/**
 * @file
 * google-benchmark microbenchmarks of the engine's primitive kernels:
 * FIFO traffic, input-stationary accumulation, aggregator updates,
 * CSR construction from the streamed COO list, and whole-engine runs.
 * These quantify simulator throughput (host-side), complementing the
 * modeled accelerator cycle counts.
 */
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/engine.h"
#include "core/fifo.h"
#include "datasets/dataset.h"
#include "nn/aggregator.h"

namespace flowgnn {
namespace {

void
BM_FifoPushPop(benchmark::State &state)
{
    Fifo<std::uint64_t> q(64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        q.push(++v);
        benchmark::DoNotOptimize(q.pop());
    }
}
BENCHMARK(BM_FifoPushPop);

void
BM_LinearAccumulate(benchmark::State &state)
{
    const std::size_t dim = state.range(0);
    Rng rng(1);
    Linear lin(dim, dim);
    lin.init_glorot(rng);
    Vec x(dim, 0.5f);
    Vec acc(dim);
    for (auto _ : state) {
        std::copy(lin.bias().begin(), lin.bias().end(), acc.begin());
        lin.accumulate(x.data(), acc.data(), 0, dim);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_LinearAccumulate)->Arg(16)->Arg(64)->Arg(100);

void
BM_AggregatorAccumulate(benchmark::State &state)
{
    auto kind = static_cast<AggregatorKind>(state.range(0));
    Aggregator agg(kind, 100);
    std::vector<float> st(agg.state_dim());
    agg.init(st.data());
    Vec msg(100, 0.25f);
    for (auto _ : state) {
        agg.accumulate(st.data(), msg.data());
        benchmark::DoNotOptimize(st.data());
    }
}
BENCHMARK(BM_AggregatorAccumulate)
    ->Arg(static_cast<int>(AggregatorKind::kSum))
    ->Arg(static_cast<int>(AggregatorKind::kPna));

void
BM_CsrBuildFromStream(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kHep, 0);
    for (auto _ : state) {
        CsrGraph csr(s.graph);
        benchmark::DoNotOptimize(csr.num_edges());
    }
    state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_CsrBuildFromStream);

void
BM_EngineMolHivGraph(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    auto kind = static_cast<ModelKind>(state.range(0));
    Model model = make_model(kind, s.node_dim(), s.edge_dim());
    Engine engine(model, {});
    for (auto _ : state) {
        RunResult r = engine.run(s);
        benchmark::DoNotOptimize(r.stats.total_cycles);
    }
}
BENCHMARK(BM_EngineMolHivGraph)
    ->Arg(static_cast<int>(ModelKind::kGcn))
    ->Arg(static_cast<int>(ModelKind::kGin))
    ->Arg(static_cast<int>(ModelKind::kGat));

void
BM_ReferenceMolHivGraph(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model model = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(s));
}
BENCHMARK(BM_ReferenceMolHivGraph);

} // namespace
} // namespace flowgnn

BENCHMARK_MAIN();
