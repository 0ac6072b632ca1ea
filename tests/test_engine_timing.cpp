/** @file Timing-model property tests for the dataflow engine. */
#include <gtest/gtest.h>

#include <numeric>

#include "core/engine.h"
#include <cmath>

#include "datasets/dataset.h"

namespace flowgnn {
namespace {

EngineConfig
cfg(std::uint32_t pn, std::uint32_t pe, std::uint32_t pa, std::uint32_t ps,
    PipelineMode mode = PipelineMode::kFlowGnn)
{
    EngineConfig c;
    c.p_node = pn;
    c.p_edge = pe;
    c.p_apply = pa;
    c.p_scatter = ps;
    c.mode = mode;
    return c;
}

std::uint64_t
cycles(const Model &model, const GraphSample &s, EngineConfig c)
{
    return Engine(model, c).run(s).stats.total_cycles;
}

class TimingFixture : public ::testing::Test
{
  protected:
    TimingFixture()
        : sample_(make_sample(DatasetKind::kMolHiv, 5)),
          gcn_(make_model(ModelKind::kGcn, sample_.node_dim(),
                          sample_.edge_dim()))
    {
    }

    GraphSample sample_;
    Model gcn_;
};

TEST_F(TimingFixture, PipelineModesAreStrictlyOrdered)
{
    // Fig. 4 / Fig. 9: each architectural step reduces latency.
    auto base = cfg(1, 1, 1, 1, PipelineMode::kNonPipelined);
    std::uint64_t np = cycles(gcn_, sample_, base);
    base.mode = PipelineMode::kFixedPipeline;
    std::uint64_t fp = cycles(gcn_, sample_, base);
    base.mode = PipelineMode::kBaselineDataflow;
    std::uint64_t bd = cycles(gcn_, sample_, base);
    std::uint64_t fg =
        cycles(gcn_, sample_, cfg(2, 4, 1, 1, PipelineMode::kFlowGnn));
    EXPECT_GT(np, fp);
    EXPECT_GE(fp, bd);
    EXPECT_GT(bd, fg);
}

TEST_F(TimingFixture, IntraNodePipeliningBeatsWholeNodeHandoff)
{
    // Same unit counts: FlowGNN's chunked streaming must not lose to
    // the baseline's whole-node handoff.
    std::uint64_t baseline = cycles(
        gcn_, sample_, cfg(1, 1, 1, 1, PipelineMode::kBaselineDataflow));
    std::uint64_t flowgnn =
        cycles(gcn_, sample_, cfg(1, 1, 1, 1, PipelineMode::kFlowGnn));
    EXPECT_LE(flowgnn, baseline);
}

TEST_F(TimingFixture, MoreApplyParallelismNeverSlower)
{
    std::uint64_t prev = cycles(gcn_, sample_, cfg(2, 4, 1, 8));
    for (std::uint32_t pa : {2u, 4u, 8u}) {
        std::uint64_t cur = cycles(gcn_, sample_, cfg(2, 4, pa, 8));
        EXPECT_LE(cur, prev) << "Papply=" << pa;
        prev = cur;
    }
}

TEST_F(TimingFixture, MoreScatterParallelismNeverSlower)
{
    std::uint64_t prev = cycles(gcn_, sample_, cfg(2, 4, 4, 1));
    for (std::uint32_t ps : {2u, 4u, 8u}) {
        std::uint64_t cur = cycles(gcn_, sample_, cfg(2, 4, 4, ps));
        EXPECT_LE(cur, prev) << "Pscatter=" << ps;
        prev = cur;
    }
}

TEST_F(TimingFixture, MoreNodeParallelismHelpsWhenNtBound)
{
    // GCN's NT dominates on molecular graphs; doubling NT units from 1
    // to 4 must reduce latency substantially.
    std::uint64_t p1 = cycles(gcn_, sample_, cfg(1, 4, 2, 2));
    std::uint64_t p4 = cycles(gcn_, sample_, cfg(4, 4, 2, 2));
    EXPECT_LT(p4, p1);
}

TEST_F(TimingFixture, StatsAreInternallyConsistent)
{
    Engine engine(gcn_, cfg(2, 4, 4, 8));
    RunResult r = engine.run(sample_);
    const RunStats &st = r.stats;
    std::uint64_t phases = std::accumulate(st.phase_cycles.begin(),
                                           st.phase_cycles.end(),
                                           std::uint64_t{0});
    EXPECT_EQ(st.total_cycles,
              phases + st.head_cycles + st.load_cycles);
    EXPECT_EQ(st.nt_units.size(), 2u);
    EXPECT_EQ(st.mp_units.size(), 4u);
    for (const auto &u : st.nt_units) {
        EXPECT_LE(u.utilization(), 1.0);
        EXPECT_GT(u.busy, 0u);
    }
    EXPECT_GE(st.queue_peak_occupancy, 1u);
    EXPECT_LE(st.queue_peak_occupancy, engine.config().queue_depth);
    EXPECT_GT(st.queue_total_pushes, 0u);
}

TEST_F(TimingFixture, MpWorkCoversEveryEdgeEveryScatterPhase)
{
    // GCN: 5 conv layers -> 5 scatter phases (encoder fused with the
    // first), each streaming ceil(dim/Pscatter) granules per edge.
    EngineConfig c = cfg(2, 4, 4, 4);
    Engine engine(gcn_, c);
    RunResult r = engine.run(sample_);
    std::uint64_t total_work =
        std::accumulate(r.stats.mp_edge_work.begin(),
                        r.stats.mp_edge_work.end(), std::uint64_t{0});
    std::uint64_t granules = (100 + c.p_scatter - 1) / c.p_scatter;
    EXPECT_EQ(total_work, sample_.num_edges() * granules * 5);
}

TEST_F(TimingFixture, ObservedImbalanceMatchesStaticAnalysis)
{
    EngineConfig c = cfg(1, 4, 4, 4);
    RunResult r = Engine(gcn_, c).run(sample_);
    double observed = r.stats.observed_mp_imbalance();
    EXPECT_GE(observed, 0.0);
    EXPECT_LE(observed, 1.0);
}

TEST_F(TimingFixture, DeterministicAcrossRuns)
{
    Engine engine(gcn_, cfg(2, 4, 4, 8));
    RunResult a = engine.run(sample_);
    RunResult b = engine.run(sample_);
    EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
    EXPECT_EQ(a.embeddings, b.embeddings);
    EXPECT_EQ(a.prediction, b.prediction);
}

TEST_F(TimingFixture, LatencyConversionUsesClock)
{
    RunResult r = Engine(gcn_, cfg(2, 4, 4, 8)).run(sample_);
    double ms300 = r.latency_ms(300.0);
    double ms150 = r.latency_ms(150.0);
    EXPECT_NEAR(ms150, 2.0 * ms300, 1e-9);
    EXPECT_GT(ms300, 0.0);
}

TEST(EngineTiming, QueueDepthOneStillCompletes)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 7);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    EngineConfig c = cfg(2, 4, 4, 8);
    c.queue_depth = 1;
    RunResult r = Engine(m, c).run(s);
    EXPECT_GT(r.stats.total_cycles, 0u);
    // Tight queues should show adapter backpressure.
    EXPECT_GE(r.stats.adapter_stall_cycles, 0u);
}

TEST(EngineTiming, DeepQueuesReduceStalls)
{
    GraphSample s = make_sample(DatasetKind::kHep, 0);
    Model m = make_model(ModelKind::kGcn, s.node_dim(), s.edge_dim());
    EngineConfig shallow = cfg(2, 4, 4, 8);
    shallow.queue_depth = 1;
    EngineConfig deep = cfg(2, 4, 4, 8);
    deep.queue_depth = 64;
    std::uint64_t stalls_shallow =
        Engine(m, shallow).run(s).stats.adapter_stall_cycles;
    std::uint64_t stalls_deep =
        Engine(m, deep).run(s).stats.adapter_stall_cycles;
    EXPECT_LE(stalls_deep, stalls_shallow);
}

TEST(EngineTiming, GatUsesTwoMpRoundsPerLayer)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 2);
    Model gat = make_model(ModelKind::kGat, s.node_dim(), s.edge_dim());
    EngineConfig c = cfg(1, 2, 4, 4);
    RunResult r = Engine(gat, c).run(s);
    std::uint64_t total_work =
        std::accumulate(r.stats.mp_edge_work.begin(),
                        r.stats.mp_edge_work.end(), std::uint64_t{0});
    std::uint64_t granules = (64 + c.p_scatter - 1) / c.p_scatter;
    // 5 attention layers x 2 rounds each.
    EXPECT_EQ(total_work, s.num_edges() * granules * 10);
}

TEST(EngineTiming, VirtualNodeAbsorbedByDataflow)
{
    // Paper Fig. 6: the dataflow pipeline hides the virtual node's
    // giant degree. GIN+VN latency should stay within a modest factor
    // of plain GIN despite the VN touching every node.
    GraphSample s = make_sample(DatasetKind::kMolHiv, 9);
    Model gin = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    Model vn = make_model(ModelKind::kGinVn, s.node_dim(), s.edge_dim());
    EngineConfig c = cfg(2, 4, 4, 8);
    std::uint64_t base = Engine(gin, c).run(s).stats.total_cycles;
    std::uint64_t with_vn = Engine(vn, c).run(s).stats.total_cycles;
    EXPECT_LT(with_vn, base * 2);
    EXPECT_GT(with_vn, base); // it is still more work
}

TEST(EngineTiming, EmptyGraphCompletes)
{
    GraphSample s;
    s.graph.num_nodes = 3;
    s.node_features = Matrix(3, 9, 0.1f);
    Model m = make_model(ModelKind::kGcn, 9, 0);
    RunResult r = Engine(m, cfg(2, 4, 4, 8)).run(s);
    EXPECT_GT(r.stats.total_cycles, 0u);
    EXPECT_TRUE(std::isfinite(r.prediction));
}

TEST(EngineTiming, SingleNodeGraphCompletes)
{
    GraphSample s;
    s.graph.num_nodes = 1;
    s.node_features = Matrix(1, 9, 0.1f);
    for (ModelKind kind : kPaperModels) {
        Model m = make_model(kind, 9, 0);
        RunResult r = Engine(m, cfg(2, 4, 4, 8)).run(s);
        EXPECT_GT(r.stats.total_cycles, 0u) << model_name(kind);
    }
}


// ---- Workspace reuse and the configured clock -------------------------

TEST(RunWorkspace, ReuseAcrossGraphsMatchesFreshRuns)
{
    // A pool die reuses one workspace for every graph; the results
    // must match fresh-workspace runs exactly for every model family
    // (GAT exercises the combine path, PNA the multi-aggregator
    // finalize, DGN the directional field).
    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);
    for (ModelKind kind : kPaperModels) {
        Model m =
            make_model(kind, probe.node_dim(), probe.edge_dim());
        Engine engine(m, {});
        RunWorkspace reused;
        for (std::size_t i = 0; i < 6; ++i) {
            GraphSample s = make_sample(DatasetKind::kMolHiv, i);
            RunResult warm = engine.run(s, RunOptions{}, reused);
            RunResult cold = engine.run(s);
            EXPECT_EQ(warm.prediction, cold.prediction)
                << model_name(kind) << " graph " << i;
            EXPECT_TRUE(warm.embeddings == cold.embeddings)
                << model_name(kind) << " graph " << i;
            EXPECT_EQ(warm.stats.total_cycles, cold.stats.total_cycles)
                << model_name(kind) << " graph " << i;
        }
    }
}

TEST(RunStats, LatencyUsesConfiguredClock)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    EngineConfig cfg;
    cfg.clock_mhz = 150.0; // half the paper clock -> double the time
    RunResult half = Engine(m, cfg).run(s);
    RunResult full = Engine(m, {}).run(s);
    ASSERT_EQ(half.stats.total_cycles, full.stats.total_cycles);
    EXPECT_DOUBLE_EQ(half.stats.clock_mhz, 150.0);
    EXPECT_DOUBLE_EQ(half.latency_ms(), 2.0 * full.latency_ms());
    // Explicit what-if clock still available.
    EXPECT_DOUBLE_EQ(half.latency_ms(300.0), full.latency_ms());
}

} // namespace
} // namespace flowgnn
