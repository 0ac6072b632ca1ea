/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks: streaming
 * latency measurement and aligned table printing. Each bench binary
 * regenerates one table or figure of the paper and prints the paper's
 * published values next to ours.
 */
#ifndef FLOWGNN_BENCH_COMMON_H
#define FLOWGNN_BENCH_COMMON_H

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "graph/generators.h"
#include "pool/scheduler.h"
#include "tensor/rng.h"

namespace flowgnn::bench {

/** Aggregated engine results over a sample stream. */
struct StreamResult {
    double avg_latency_ms = 0.0;
    double avg_cycles = 0.0;
    double observed_imbalance = 0.0;
    std::size_t graphs = 0;
};

/**
 * Streams `count` consecutive graphs (batch size 1, zero
 * pre-processing) through a die pool over the given configuration
 * and averages latency, mirroring the paper's on-board measurement
 * loop. The modeled cycle counts are per-graph deterministic, so the
 * averages are independent of die count.
 */
inline StreamResult
run_stream(const Model &model, const EngineConfig &config,
           DatasetKind dataset, std::size_t count)
{
    SampleStream stream(dataset, count);
    StreamResult out;
    out.graphs = stream.size();

    PoolScheduler pool(model, config);
    std::vector<std::future<RunResult>> futures;
    futures.reserve(out.graphs);
    for (std::size_t i = 0; i < out.graphs; ++i)
        futures.push_back(pool.submit(stream.next()));

    double imb = 0.0;
    for (auto &future : futures) {
        RunResult r = future.get();
        out.avg_latency_ms += r.latency_ms();
        out.avg_cycles += static_cast<double>(r.stats.total_cycles);
        imb += r.stats.observed_mp_imbalance();
    }
    out.avg_latency_ms /= static_cast<double>(out.graphs);
    out.avg_cycles /= static_cast<double>(out.graphs);
    out.observed_imbalance = imb / static_cast<double>(out.graphs);
    return out;
}

/** Wraps any graph with deterministic Gaussian node features — the
 * one feature distribution every scale-out bench shares
 * (graph/sample.h's gaussian_features, also used by the io loader). */
inline GraphSample
with_features(CooGraph graph, std::size_t node_dim, std::uint64_t seed)
{
    GraphSample s;
    s.graph = std::move(graph);
    s.node_features =
        gaussian_features(s.graph.num_nodes, node_dim, seed);
    return s;
}

/**
 * The canonical large-graph sharding workload: a k=2 ring lattice
 * (node ids carry perfect locality) with deterministic Gaussian node
 * features. Shared by the shard/pool/energy scale-out benches so they
 * all study the same graph family.
 */
inline GraphSample
make_lattice_workload(NodeId nodes, std::size_t node_dim,
                      std::uint64_t seed)
{
    return with_features(make_ring_lattice(nodes, 2), node_dim, seed);
}

/** Prints a horizontal rule sized to the table width. */
inline void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Prints the standard bench banner. */
inline void
banner(const char *what, const char *detail)
{
    std::printf("\n=== FlowGNN reproduction: %s ===\n%s\n\n", what, detail);
}

} // namespace flowgnn::bench

#endif // FLOWGNN_BENCH_COMMON_H
