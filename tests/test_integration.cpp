/**
 * @file
 * End-to-end integration tests: all models across all datasets, plus
 * degenerate-structure stress cases (self-loops, multi-edges, stars,
 * dimension/parallelism mismatches) exercised through the full
 * engine-vs-reference pipeline.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(Integration, EveryModelOnEveryMultiGraphDataset)
{
    const DatasetKind datasets[] = {
        DatasetKind::kMolHiv, DatasetKind::kMolPcba, DatasetKind::kHep};
    for (DatasetKind d : datasets) {
        GraphSample probe = make_sample(d, 0);
        for (ModelKind kind : kPaperModels) {
            Model m = make_model(kind, probe.node_dim(),
                                 probe.edge_dim());
            Engine engine(m, {});
            RunResult r = engine.run(probe);
            EXPECT_TRUE(std::isfinite(r.prediction))
                << model_name(kind) << " on " << dataset_spec(d).name;
            EXPECT_GT(r.stats.total_cycles, 0u);
        }
    }
}

TEST(Integration, SingleGraphDatasetsRunAllModels)
{
    // Cora is the smallest citation graph; run the full model suite.
    GraphSample cora = make_sample(DatasetKind::kCora, 0);
    for (ModelKind kind : kPaperModels) {
        Model m = make_model(kind, cora.node_dim(), cora.edge_dim());
        RunResult r = Engine(m, {}).run(cora);
        EXPECT_TRUE(std::isfinite(r.prediction)) << model_name(kind);
    }
}

TEST(Integration, SelfLoopsAndMultiEdgesMatchReference)
{
    GraphSample s;
    s.graph.num_nodes = 4;
    // Self-loop on 0, duplicated edge 1->2, regular edges.
    s.graph.edges = {{0, 0}, {1, 2}, {1, 2}, {2, 3}, {3, 0}, {0, 1}};
    s.node_features = Matrix(4, 5, 0.3f);
    s.edge_features = Matrix(6, 2);
    for (std::size_t e = 0; e < 6; ++e) {
        s.edge_features(e, 0) = 0.1f * static_cast<float>(e);
        s.edge_features(e, 1) = -0.05f * static_cast<float>(e);
    }
    for (ModelKind kind : {ModelKind::kGin, ModelKind::kGcn,
                           ModelKind::kGat, ModelKind::kPna}) {
        Model m = make_model(kind, 5, 2);
        EngineConfig cfg;
        cfg.p_node = 1;
        RunResult r = Engine(m, cfg).run(s);
        Matrix expected = m.reference_embeddings(m.prepare(s));
        EXPECT_EQ(max_abs_diff(r.embeddings, expected), 0.0f)
            << model_name(kind);
    }
}

TEST(Integration, StarGraphWorstCaseBankSkew)
{
    // All edges converge on one node: one MP bank owns everything,
    // the sim must still complete and match the reference.
    GraphSample s;
    s.graph.num_nodes = 40;
    for (NodeId i = 1; i < 40; ++i) {
        s.graph.edges.push_back({i, 0});
        s.graph.edges.push_back({0, i});
    }
    s.node_features = Matrix(40, 6, 0.2f);
    Model m = make_model(ModelKind::kGcn, 6, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    RunResult r = Engine(m, cfg).run(s);
    Matrix expected = m.reference_embeddings(m.prepare(s));
    EXPECT_EQ(max_abs_diff(r.embeddings, expected), 0.0f);
    // Hub node 0 owns all i->0 edges; the 0->i half spreads evenly, so
    // the skew is just under 1/2 of the total work.
    EXPECT_GT(r.stats.observed_mp_imbalance(), 0.4)
        << "the star must visibly skew one bank";
}

TEST(Integration, NonDividingParallelismDimensions)
{
    // dims 100/64 with Papply=3, Pscatter=7: every ceil-division path
    // in the NT/adapter/MP machinery gets a remainder.
    GraphSample s = make_sample(DatasetKind::kMolHiv, 21);
    for (ModelKind kind : {ModelKind::kGin, ModelKind::kGat}) {
        Model m = make_model(kind, s.node_dim(), s.edge_dim());
        EngineConfig cfg;
        cfg.p_node = 1;
        cfg.p_edge = 3;
        cfg.p_apply = 3;
        cfg.p_scatter = 7;
        RunResult r = Engine(m, cfg).run(s);
        Matrix expected = m.reference_embeddings(m.prepare(s));
        EXPECT_EQ(max_abs_diff(r.embeddings, expected), 0.0f)
            << model_name(kind);
    }
}

TEST(Integration, InconsistentSampleRejected)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    s.node_features = Matrix(1, 9); // wrong row count
    Model m = make_model(ModelKind::kGin, 9, 3);
    EXPECT_THROW(Engine(m, {}).run(s), std::invalid_argument);
}

TEST(Integration, WrongFeatureDimensionRejected)
{
    GraphSample s = make_sample(DatasetKind::kCora, 0); // 64-dim
    Model m = make_model(ModelKind::kGin, 9, 3);        // expects 9
    EXPECT_THROW(Engine(m, {}).run(s), std::invalid_argument);
}

TEST(Integration, StreamedPredictionsMatchOneShotRuns)
{
    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, probe.node_dim(),
                         probe.edge_dim());
    Engine engine(m, {});

    SampleStream stream(DatasetKind::kMolHiv, 8);
    for (std::size_t i = 0; i < 8; ++i) {
        GraphSample s = stream.next();
        float streamed = engine.run(s).prediction;
        float direct =
            engine.run(make_sample(DatasetKind::kMolHiv, i)).prediction;
        EXPECT_EQ(streamed, direct);
    }
}

TEST(Integration, CrossModelLatencyOrderingOnHep)
{
    // GAT (dim 64) must be the fastest paper model; PNA (13d mixing)
    // the slowest — the Table V ordering.
    GraphSample s = make_sample(DatasetKind::kHep, 3);
    auto cycles = [&](ModelKind kind) {
        Model m = make_model(kind, s.node_dim(), s.edge_dim());
        return Engine(m, {}).run(s).stats.total_cycles;
    };
    std::uint64_t gat = cycles(ModelKind::kGat);
    std::uint64_t gin = cycles(ModelKind::kGin);
    std::uint64_t pna = cycles(ModelKind::kPna);
    EXPECT_LT(gat, pna);
    EXPECT_LT(gin, pna);
}

TEST(Integration, EngineOutlivesManyRuns)
{
    // One engine instance must be reusable across a long stream
    // without state bleed: the same input always gives the same
    // output, interleaved with different graphs.
    GraphSample a = make_sample(DatasetKind::kMolHiv, 1);
    GraphSample b = make_sample(DatasetKind::kMolHiv, 2);
    Model m = make_model(ModelKind::kPna, a.node_dim(), a.edge_dim());
    Engine engine(m, {});
    float first_a = engine.run(a).prediction;
    for (int i = 0; i < 5; ++i)
        engine.run(b);
    EXPECT_EQ(engine.run(a).prediction, first_a);
}

} // namespace
} // namespace flowgnn
