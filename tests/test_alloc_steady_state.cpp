/**
 * @file
 * Steady-state allocation test: once a RunWorkspace has seen a graph,
 * running it again must not allocate per node or per edge.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is kept apart from every other suite. For each model kind it
 * warms one workspace per graph on a small and a large MolHIV
 * molecule, then counts the allocations of a second run of each. The
 * two counts must be equal: what remains is a fixed per-run cost
 * (graph adjacency, layer context, per-phase unit state, the result),
 * not one buffer per message, aggregate or transform as before the
 * span kernels.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/engine.h"
#include "datasets/dataset.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void *
counted_alloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t bytes)
{
    return counted_alloc(bytes);
}

void *
operator new[](std::size_t bytes)
{
    return counted_alloc(bytes);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace flowgnn {
namespace {

template <typename Fn>
std::size_t
allocations_of(Fn fn)
{
    g_allocations = 0;
    g_counting = true;
    fn();
    g_counting = false;
    return g_allocations;
}

/** The smallest and the largest (by edges) of the first MolHIV
 * molecules. */
std::pair<GraphSample, GraphSample>
small_and_large_molecule()
{
    GraphSample small = make_sample(DatasetKind::kMolHiv, 0);
    GraphSample large = small;
    for (std::size_t i = 1; i < 200; ++i) {
        GraphSample s = make_sample(DatasetKind::kMolHiv, i);
        if (s.num_edges() < small.num_edges())
            small = s;
        if (s.num_edges() > large.num_edges())
            large = std::move(s);
    }
    return {std::move(small), std::move(large)};
}

class SteadyStateAllocations : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(SteadyStateAllocations, SecondRunDoesNotScaleWithGraphSize)
{
    auto [small, large] = small_and_large_molecule();
    ASSERT_GE(large.num_edges(), 2 * small.num_edges());
    ASSERT_GT(large.num_nodes(), small.num_nodes());

    Model model = make_model(GetParam(), small.node_dim(), small.edge_dim());
    const GraphSample prep_small = model.prepare(small);
    const GraphSample prep_large = model.prepare(large);
    for (bool fixed : {false, true}) {
        SCOPED_TRACE(fixed ? "fixed point" : "fp32");
        RunOptions opts;
        opts.emulate_fixed_point = fixed;
        Engine engine(model, EngineConfig{});
        auto second_run = [&](const GraphSample &prepared) {
            RunWorkspace ws;
            RunResult first = engine.run_prepared(prepared, opts, ws);
            RunResult again;
            std::size_t n = allocations_of(
                [&] { again = engine.run_prepared(prepared, opts, ws); });
            // A warm workspace must not change a single bit.
            EXPECT_EQ(again.embeddings, first.embeddings);
            EXPECT_EQ(again.stats.total_cycles, first.stats.total_cycles);
            return n;
        };
        const std::size_t n_small = second_run(prep_small);
        const std::size_t n_large = second_run(prep_large);
        EXPECT_EQ(n_large, n_small)
            << "small: " << prep_small.num_nodes() << " nodes / "
            << prep_small.num_edges() << " edges, large: "
            << prep_large.num_nodes() << " nodes / "
            << prep_large.num_edges() << " edges";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SteadyStateAllocations,
    ::testing::Values(ModelKind::kGin, ModelKind::kGinVn, ModelKind::kGcn,
                      ModelKind::kGat, ModelKind::kPna, ModelKind::kDgn,
                      ModelKind::kGcn16, ModelKind::kSage, ModelKind::kSgc),
    [](const ::testing::TestParamInfo<ModelKind> &info) {
        std::string name;
        for (char ch : std::string(model_name(info.param)))
            if (std::isalnum(static_cast<unsigned char>(ch)))
                name += ch;
        return name;
    });

} // namespace
} // namespace flowgnn
