/** @file Stream pipelining and balanced-banking ablation tests. */
#include <gtest/gtest.h>

#include <numeric>

#include "core/engine.h"
#include "pool/stream.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(StreamRunner, SingleGraphEqualsSequential)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    PoolScheduler pool(m);
    StreamRunner runner(pool);
    SampleStream stream(DatasetKind::kMolHiv, 1);
    StreamRunStats st = runner.run(stream, 1);
    EXPECT_EQ(st.pipelined_cycles, st.sequential_cycles);
    EXPECT_DOUBLE_EQ(st.throughput_speedup(), 1.0);
}

TEST(StreamRunner, PipeliningNeverSlower)
{
    GraphSample s = make_sample(DatasetKind::kHep, 0);
    Model m = make_model(ModelKind::kGcn, s.node_dim(), s.edge_dim());
    PoolScheduler pool(m);
    StreamRunner runner(pool);
    SampleStream stream(DatasetKind::kHep, 32);
    StreamRunStats st = runner.run(stream, 32);
    EXPECT_LE(st.pipelined_cycles, st.sequential_cycles);
    EXPECT_GE(st.throughput_speedup(), 1.0);
    EXPECT_GT(st.graphs_per_second(300.0), 0.0);
}

TEST(StreamRunner, SteadyStateBoundedByStageMax)
{
    // The pipelined stream can never beat its slower stage: total
    // cycles >= max(sum of loads, sum of computes).
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    Engine engine(m, {});
    std::uint64_t load_sum = 0, compute_sum = 0;
    SampleStream probe(DatasetKind::kMolHiv, 16);
    for (int i = 0; i < 16; ++i) {
        RunResult r = engine.run(probe.next());
        load_sum += r.stats.load_cycles;
        compute_sum += r.stats.total_cycles - r.stats.load_cycles;
    }
    PoolScheduler pool(m);
    StreamRunner runner(pool);
    SampleStream stream(DatasetKind::kMolHiv, 16);
    StreamRunStats st = runner.run(stream, 16);
    EXPECT_GE(st.pipelined_cycles, std::max(load_sum, compute_sum));
    EXPECT_LE(st.pipelined_cycles, load_sum + compute_sum);
}

TEST(StreamRunner, ZeroGraphsIsEmpty)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    PoolScheduler pool(m);
    StreamRunner runner(pool);
    SampleStream stream(DatasetKind::kMolHiv, 4);
    StreamRunStats st = runner.run(stream, 0);
    EXPECT_EQ(st.pipelined_cycles, 0u);
    EXPECT_EQ(st.graphs, 0u);
}

TEST(StreamRunner, WorksOnPausedAndRejectingPools)
{
    // The runner must start a parked pool and keep its in-flight
    // window within queue capacity, so a kReject pool never sheds
    // stream traffic.
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    PoolConfig config;
    config.num_dies = 2;
    config.queue_capacity = 2;
    config.admission = AdmissionPolicy::kReject;
    config.start_paused = true;
    PoolScheduler pool(m, {}, config);
    StreamRunner runner(pool);
    SampleStream stream(DatasetKind::kMolHiv, 16);
    StreamRunStats st = runner.run(stream, 16);
    EXPECT_EQ(st.graphs, 16u);
    EXPECT_GT(st.pipelined_cycles, 0u);
    EXPECT_EQ(pool.stats().fast.rejected, 0u);
    EXPECT_EQ(pool.stats().fast.completed, 16u);
}

CooGraph
hub_graph(NodeId n)
{
    // A star: every edge points at node 0 — the worst case for
    // modular banking (one bank owns everything).
    CooGraph g;
    g.num_nodes = n;
    for (NodeId i = 1; i < n; ++i)
        g.edges.push_back({i, 0});
    return g;
}

TEST(BalancedBanking, AssignmentIsValidPartition)
{
    Rng rng(1);
    CooGraph g = make_barabasi_albert(200, 2, rng);
    auto assignment = balanced_bank_assignment(g, 4);
    ASSERT_EQ(assignment.size(), 200u);
    for (auto b : assignment)
        EXPECT_LT(b, 4u);
    auto counts = bank_edge_counts(g, assignment, 4);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(),
                              std::size_t{0}),
              g.num_edges());
}

TEST(BalancedBanking, ImprovesSkewedGraphs)
{
    // Power-law hubs: greedy least-loaded must beat the modular hash.
    Rng rng(2);
    CooGraph g = make_barabasi_albert(400, 3, rng);
    for (std::uint32_t p : {4u, 8u}) {
        double modulo = workload_imbalance(g, p);
        double balanced = workload_imbalance(
            bank_edge_counts(g, balanced_bank_assignment(g, p), p));
        EXPECT_LE(balanced, modulo) << "Pedge=" << p;
    }
}

TEST(BalancedBanking, StarGraphStillOneBank)
{
    // A single hub cannot be split: both policies put all edges on one
    // bank (node granularity is the assignment unit).
    CooGraph g = hub_graph(32);
    auto assignment = balanced_bank_assignment(g, 4);
    auto counts = bank_edge_counts(g, assignment, 4);
    EXPECT_EQ(*std::max_element(counts.begin(), counts.end()),
              g.num_edges());
}

TEST(BalancedBanking, InputValidation)
{
    CooGraph g = hub_graph(4);
    EXPECT_THROW(balanced_bank_assignment(g, 0), std::invalid_argument);
    std::vector<std::uint32_t> short_assignment(2, 0);
    EXPECT_THROW(bank_edge_counts(g, short_assignment, 2),
                 std::invalid_argument);
    std::vector<std::uint32_t> bad_bank(4, 7);
    EXPECT_THROW(bank_edge_counts(g, bad_bank, 2),
                 std::invalid_argument);
}

TEST(BalancedBanking, EngineMatchesReferenceExactlyAtSingleNt)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 4);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    EngineConfig cfg;
    cfg.p_node = 1;
    cfg.bank_policy = BankPolicy::kGreedyBalanced;
    Engine engine(m, cfg);
    RunResult r = engine.run(s);
    Matrix expected = m.reference_embeddings(m.prepare(s));
    EXPECT_EQ(max_abs_diff(r.embeddings, expected), 0.0f)
        << "bank policy must not change functional results";
}

TEST(BalancedBanking, EngineObservedImbalanceNotWorse)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 8);
    Model m = make_model(ModelKind::kGcn, s.node_dim(), s.edge_dim());
    EngineConfig modulo;
    EngineConfig balanced;
    balanced.bank_policy = BankPolicy::kGreedyBalanced;
    double obs_modulo =
        Engine(m, modulo).run(s).stats.observed_mp_imbalance();
    double obs_balanced =
        Engine(m, balanced).run(s).stats.observed_mp_imbalance();
    EXPECT_LE(obs_balanced, obs_modulo + 1e-9);
}

} // namespace
} // namespace flowgnn
