/**
 * @file
 * Differential fuzz suite: the correctness net under the sharded
 * execution work. ~200 seeded random graphs, rotating through every
 * model kind (all layer families) and all four pipeline modes, assert
 * that the cycle-stepped engine matches the reference executor — and
 * further passes assert that sharded execution matches unsharded
 * across shard counts and strategies (float, fixed point, preempted)
 * and that its composed cycles obey the per-die accounting identity.
 *
 * Exactness policy mirrors test_crosscheck: with one NT unit (or an
 * analytic pipeline mode, whose recorded MP completion order is
 * src-major) message arrival equals the reference's src-major order,
 * so results must be bit-identical; with more NT units only float-sum
 * reassociation may differ, so a tight tolerance applies.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/phase_model.h"
#include "ghost/ghost_engine.h"
#include "shard/sharded_engine.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_graph;
using testing::make_random_sample;

constexpr ModelKind kAllKinds[] = {
    ModelKind::kGcn, ModelKind::kGin,   ModelKind::kGinVn,
    ModelKind::kGat, ModelKind::kPna,   ModelKind::kDgn,
    ModelKind::kGcn16, ModelKind::kSage, ModelKind::kSgc,
};
constexpr PipelineMode kAllModes[] = {
    PipelineMode::kNonPipelined,
    PipelineMode::kFixedPipeline,
    PipelineMode::kBaselineDataflow,
    PipelineMode::kFlowGnn,
};

bool
order_preserving(const EngineConfig &cfg)
{
    return cfg.p_node == 1 ||
           cfg.mode == PipelineMode::kNonPipelined ||
           cfg.mode == PipelineMode::kFixedPipeline;
}

TEST(DifferentialFuzz, EngineMatchesReferenceOn200RandomGraphs)
{
    constexpr int kCases = 200;
    for (int i = 0; i < kCases; ++i) {
        const std::uint64_t seed = 0x5EED0000ull + i;
        const ModelKind kind =
            kAllKinds[i % std::size(kAllKinds)];
        const PipelineMode mode =
            kAllModes[(i / std::size(kAllKinds)) % std::size(kAllModes)];

        // Every parameter rotates on a distinct stride so the 200
        // cases cover the cross product (bit-exact x edge-featured,
        // p_apply x dim divisibility, ...), not one diagonal of it.
        const NodeId n = 6 + i % 40;
        CooGraph g = make_random_graph(i, n, seed);
        const std::size_t node_dim = 4 + (i % 3) * 6;
        const std::size_t edge_dim = ((i / 2) % 2) ? 6 : 0;
        GraphSample sample =
            make_random_sample(std::move(g), node_dim, edge_dim,
                               seed + 1);

        EngineConfig cfg;
        cfg.p_node = 1 + i % 2;
        cfg.p_edge = 1 + i % 4;
        cfg.p_apply = 1 + ((i / 3) % 3) * 3;
        cfg.p_scatter = 1 + ((i / 5) % 4) * 2;
        cfg.queue_depth = 2 + (i / 7) % 7;
        cfg.mode = mode;

        SCOPED_TRACE(::testing::Message()
                     << "case " << i << ": " << model_name(kind) << " / "
                     << pipeline_mode_name(mode) << " / n=" << n
                     << " pn=" << cfg.p_node);

        Model model = make_model(kind, node_dim, edge_dim, seed);
        Engine engine(model, cfg);
        RunResult result = engine.run(sample);

        GraphSample prepared = model.prepare(sample);
        Matrix expected = model.reference_embeddings(prepared);
        ASSERT_EQ(result.embeddings.rows(), expected.rows());
        ASSERT_EQ(result.embeddings.cols(), expected.cols());

        // Reference prediction through the same pool + head code path
        // (avoids a second full reference run via model.predict).
        Vec pooled =
            model.global_pool(expected, prepared.pool_nodes());
        float expected_pred = model.head().forward(pooled)[0];

        float diff = max_abs_diff(result.embeddings, expected);
        if (order_preserving(cfg)) {
            EXPECT_EQ(diff, 0.0f)
                << "order-preserving config must be bit-exact";
            EXPECT_EQ(result.prediction, expected_pred);
        } else {
            EXPECT_LT(diff, 1e-3f);
            EXPECT_NEAR(result.prediction, expected_pred,
                        1e-3 + 1e-3 * std::abs(expected_pred));
        }
        EXPECT_GT(result.stats.total_cycles, 0u);
    }
}

TEST(DifferentialFuzz, MpOrderScattersEveryEdgeOnceInBankOrder)
{
    // The recorded MP completion order is the only thing timing hands
    // to the value computation. For every non-GAT scatter phase it must
    // name each (node, bank) pair that has edges in that bank exactly
    // once, so the replay scatters every edge exactly once; where the
    // order is fixed statically — the analytic modes, or one NT unit —
    // it must also be src-major (the analytic modes globally, one NT
    // unit within each bank).
    constexpr ModelKind kKinds[] = {ModelKind::kGin, ModelKind::kGcn,
                                    ModelKind::kPna, ModelKind::kGat};
    int i = 0;
    for (PipelineMode mode : kAllModes) {
        for (std::uint32_t pn = 1; pn <= 2; ++pn) {
            for (std::uint32_t pe = 1; pe <= 4; ++pe) {
                for (ModelKind kind : kKinds) {
                    const std::uint64_t seed = 0x5AAD0000ull + i;
                    GraphSample sample = make_random_sample(
                        make_random_graph(i, 30 + (i % 7) * 5, seed), 8,
                        0, seed + 1);
                    ++i;
                    Model model = make_model(kind, 8, 0, seed);
                    const GraphSample prepared = model.prepare(sample);
                    EngineConfig cfg;
                    cfg.mode = mode;
                    cfg.p_node = pn;
                    cfg.p_edge = pe;
                    SCOPED_TRACE(::testing::Message()
                                 << pipeline_mode_name(mode) << " / pn="
                                 << pn << " / pe=" << pe << " / "
                                 << model_name(kind));

                    const NodeId n = prepared.num_nodes();
                    const DieShape die{.n_nodes = n, .n_owned = n};
                    const RunOptions opts;
                    PricingBuffers buf;
                    DiePricer pricer(model, cfg, opts, die, prepared.graph,
                                     buf, 1);
                    RunStats stats;
                    pricer.begin(stats);
                    std::vector<MpCompletion> order;
                    auto key = [](const MpCompletion &c) {
                        return std::pair(c.node, c.bank);
                    };
                    for (std::size_t si = 0; si < model.num_stages(); ++si) {
                        pricer.stage(si, stats, &order);
                        if (scattered_stage(model, si) == nullptr) {
                            EXPECT_TRUE(order.empty()) << "stage " << si;
                            continue;
                        }
                        std::vector<std::pair<NodeId, std::uint32_t>> want,
                            got;
                        for (NodeId v = 0; v < n; ++v)
                            for (const BankWork &bw : buf.banks[v])
                                want.emplace_back(v, bw.bank);
                        for (const MpCompletion &c : order)
                            got.push_back(key(c));
                        const bool analytic =
                            mode == PipelineMode::kNonPipelined ||
                            mode == PipelineMode::kFixedPipeline;
                        if (analytic)
                            EXPECT_EQ(got, want) << "stage " << si;
                        if (analytic || pn == 1) {
                            std::vector<NodeId> last(pe, 0);
                            std::vector<bool> seen(pe, false);
                            for (const MpCompletion &c : order) {
                                EXPECT_TRUE(!seen[c.bank] ||
                                            c.node > last[c.bank])
                                    << "bank " << c.bank << " not src-major";
                                seen[c.bank] = true;
                                last[c.bank] = c.node;
                            }
                        }
                        std::sort(got.begin(), got.end());
                        EXPECT_EQ(got, want) << "stage " << si;
                    }
                }
            }
        }
    }
}

TEST(DifferentialFuzz, GhostMatchesUnshardedOn56RandomGraphs)
{
    // Sharded (per-layer boundary exchange) vs unsharded, same
    // exactness policy as the engine pass above. With one NT unit the
    // ghost path's functional pass runs
    // src-major — the same order every die and the unsharded engine
    // see — so results must be bit-identical; with more NT units the
    // unsharded engine reorders message arrival and only float-sum
    // reassociation separates the two, bounded by 1e-4.
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    constexpr int kCases = 56; // exactly 8 cases per strategy (i % 7)
    for (int i = 0; i < kCases; ++i) {
        const std::uint64_t seed = 0x6AAD0000ull + i;
        const ModelKind kind =
            kAllKinds[i % std::size(kAllKinds)];

        const NodeId n = 60 + 4 * i;
        CooGraph g = make_random_graph(i, n, seed);
        const std::size_t node_dim = 8;
        const std::size_t edge_dim = ((i / 2) % 2) ? 4 : 0;
        GraphSample sample =
            make_random_sample(std::move(g), node_dim, edge_dim,
                               seed + 1);

        EngineConfig cfg;
        cfg.p_node = 1 + i % 2; // even cases: bit-exact path
        ShardConfig shard;
        shard.num_shards = 2 + i % 3;
        shard.strategy = kStrategies[i % std::size(kStrategies)];

        SCOPED_TRACE(::testing::Message()
                     << "ghost case " << i << ": " << model_name(kind)
                     << " / shards=" << shard.num_shards << " / "
                     << shard_strategy_name(shard.strategy)
                     << " / pn=" << cfg.p_node << " / n=" << n);

        Model model = make_model(kind, node_dim, edge_dim, seed);
        RunResult single = Engine(model, cfg).run(sample);
        ShardedRunResult sharded =
            ShardedEngine(model, cfg, shard).run(sample);

        ASSERT_EQ(sharded.embeddings.rows(), single.embeddings.rows());
        if (cfg.p_node == 1) {
            EXPECT_EQ(
                max_abs_diff(sharded.embeddings, single.embeddings),
                0.0f)
                << "single-NT ghost runs share the unsharded src-major "
                   "order and must be bit-exact";
            EXPECT_EQ(sharded.prediction, single.prediction);
        } else {
            EXPECT_LT(
                max_abs_diff(sharded.embeddings, single.embeddings),
                1e-4f);
            EXPECT_NEAR(sharded.prediction, single.prediction, 1e-4);
        }
    }
}

TEST(DifferentialFuzz, GhostDieCyclesObeyTheAccountingIdentity)
{
    // Every composed number of a sharded run is a sum the test can
    // redo from the per-die breakdown and the plan's per-exchange link
    // cycles: for each die d,
    //   die_cycles[d] = load + sum(phase_cycles) + head + exposed comm,
    // where serial composition exposes sum_p comm[p] and overlap
    // exposes sum_p max(0, comm[p] - phase_cycles[p]); the run's
    // total is the max chain and its comm the max per-die comm sum.
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    constexpr int kCases = 9; // every model kind once
    for (int i = 0; i < kCases; ++i) {
        const std::uint64_t seed = 0x8AAD0000ull + i;
        const ModelKind kind = kAllKinds[i % std::size(kAllKinds)];
        const std::size_t edge_dim = ((i / 2) % 2) ? 4 : 0;
        GraphSample sample = make_random_sample(
            make_random_graph(i, 60 + 8 * i, seed), 8, edge_dim,
            seed + 1);
        Model model = make_model(kind, 8, edge_dim, seed);
        const GraphSample prepared = model.prepare(sample);
        EngineConfig cfg;
        cfg.p_node = 1 + i % 2;
        for (ShardStrategy strategy : kStrategies) {
            for (bool overlap : {false, true}) {
                ShardConfig shard;
                shard.num_shards = 2 + i % 3;
                shard.strategy = strategy;
                shard.link.overlap = overlap;
                SCOPED_TRACE(::testing::Message()
                             << "case " << i << ": " << model_name(kind)
                             << " / " << shard_strategy_name(strategy)
                             << " / P=" << shard.num_shards
                             << (overlap ? " / overlap" : " / serial"));

                GhostPlan plan = make_ghost_plan(model, prepared, shard);
                std::vector<std::vector<std::uint64_t>> comm;
                for (const GhostShard &die : plan.shards)
                    comm.push_back(die.layer_comm_cycles);
                const bool sharded = plan.sharded;
                ShardedRunResult r =
                    run_ghost_plan(model, cfg, prepared, std::move(plan),
                                   RunOptions{}, shard.link);
                if (!sharded) {
                    EXPECT_TRUE(r.stats.die_cycles.empty());
                    continue; // the whole-graph fallback composes nothing
                }

                ASSERT_EQ(r.shards.size(), comm.size());
                ASSERT_EQ(r.stats.die_cycles.size(), comm.size());
                std::uint64_t max_chain = 0;
                std::uint64_t max_comm = 0;
                for (std::size_t d = 0; d < comm.size(); ++d) {
                    const RunStats &s = r.shards[d].stats;
                    std::uint64_t phases = 0;
                    for (std::uint64_t c : s.phase_cycles)
                        phases += c;
                    std::uint64_t exposed = 0;
                    std::uint64_t comm_sum = 0;
                    for (std::size_t p = 0; p < comm[d].size(); ++p) {
                        const std::uint64_t window =
                            p < s.phase_cycles.size() ? s.phase_cycles[p]
                                                      : 0;
                        comm_sum += comm[d][p];
                        exposed += !overlap ? comm[d][p]
                            : comm[d][p] > window ? comm[d][p] - window
                                                  : 0;
                    }
                    EXPECT_EQ(r.stats.die_cycles[d],
                              s.load_cycles + phases + s.head_cycles +
                                  exposed)
                        << "die " << d;
                    EXPECT_EQ(r.shards[d].comm_cycles, comm_sum)
                        << "die " << d;
                    max_chain = std::max(max_chain, r.stats.die_cycles[d]);
                    max_comm = std::max(max_comm, comm_sum);
                }
                EXPECT_EQ(r.stats.total_cycles, max_chain);
                EXPECT_EQ(r.stats.comm_cycles, max_comm);
            }
        }
    }
}

TEST(DifferentialFuzz, GhostFixedPointStaysBitExactWhenOrderPreserved)
{
    // The fixed-point wire format is where ghost mode could diverge:
    // every boundary crossing re-quantizes the shipped embedding. The
    // engine's quantizer is idempotent (shipped values are already
    // exactly representable), so with one NT unit — order preserved —
    // re-quantization must be value-preserving and ghost runs stay
    // BIT-EXACT against the unsharded fixed-point engine, at every
    // precision down to 8_4. No looser fixed-point tolerance exists or
    // is needed; multi-NT reassociation (covered above in float) is
    // the only inexact axis.
    constexpr FixedPointFormat kFormats[] = {kFixed16_10, kFixed12_8,
                                             kFixed8_4};
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kContiguous, ShardStrategy::kFennel,
        ShardStrategy::kHdrf};
    int i = 0;
    for (const FixedPointFormat &format : kFormats) {
        for (ShardStrategy strategy : kStrategies) {
            const std::uint64_t seed = 0x7AAD0000ull + i;
            const ModelKind kind = kAllKinds[i % std::size(kAllKinds)];
            CooGraph g = make_random_graph(i, 80 + 8 * i, seed);
            GraphSample sample =
                make_random_sample(std::move(g), 8, 0, seed + 1);

            EngineConfig cfg;
            cfg.p_node = 1;
            RunOptions opts;
            opts.emulate_fixed_point = true;
            opts.fixed_point = format;
            ShardConfig shard;
            shard.num_shards = 3;
            shard.strategy = strategy;
            SCOPED_TRACE(::testing::Message()
                         << "fixed case " << i << ": "
                         << model_name(kind) << " / "
                         << shard_strategy_name(strategy) << " / Q"
                         << format.total_bits << "."
                         << format.frac_bits);

            Model model = make_model(kind, 8, 0, seed);
            RunResult single = Engine(model, cfg).run(sample, opts);
            ShardedRunResult sharded =
                ShardedEngine(model, cfg, shard).run(sample, opts);

            EXPECT_EQ(
                max_abs_diff(sharded.embeddings, single.embeddings),
                0.0f);
            EXPECT_EQ(sharded.prediction, single.prediction);
            ++i;
        }
    }
}

TEST(DifferentialFuzz, GhostPreemptAtEveryLayerBitIdentical)
{
    // Layer-boundary preemption sweep: a GCN-16 ghost run is forced to
    // checkpoint after every k = 1, 2, ... stages and resumed, for all
    // seven partition strategies. Each resumed run must reproduce the
    // uninterrupted run bit for bit — embeddings, prediction, and the
    // composed cycle counts (the per-die timing passes are structural
    // and run once at completion, so even timing cannot drift).
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    const std::uint64_t seed = 0x9AAD0000ull;
    Model model = make_model(ModelKind::kGcn16, 8, 0, seed);
    GraphSample sample = make_random_sample(
        make_random_graph(1, 180, seed), 8, 0, seed + 1);
    GraphSample prepared = model.prepare(sample);
    EngineConfig cfg;
    RunOptions opts;
    LinkConfig link;

    for (ShardStrategy strategy : kStrategies) {
        ShardConfig shard;
        shard.num_shards = 3;
        shard.strategy = strategy;
        SCOPED_TRACE(::testing::Message()
                     << shard_strategy_name(strategy));

        GhostPlan ref_plan = make_ghost_plan(model, prepared, shard);
        ASSERT_TRUE(ref_plan.sharded);
        ShardedRunResult ref = run_ghost_plan(
            model, cfg, prepared, std::move(ref_plan), opts, link);

        for (std::size_t k = 1;; ++k) {
            SCOPED_TRACE(::testing::Message() << "preempt at k=" << k);
            GhostResumeState state;
            state.max_stages = k;
            GhostPlan plan = make_ghost_plan(model, prepared, shard);
            ShardedRunResult got = run_ghost_plan(
                model, cfg, SampleRef(prepared), std::move(plan), opts,
                link, &state);
            const bool hit_boundary = state.preempted;
            if (hit_boundary) {
                ASSERT_EQ(state.checkpoint.next_stage, k);
                state.max_stages = std::size_t(-1);
                got = run_ghost_plan(model, cfg, SampleRef(prepared),
                                     std::move(state.plan), opts, link,
                                     &state);
                ASSERT_FALSE(state.preempted);
            }
            EXPECT_EQ(max_abs_diff(got.embeddings, ref.embeddings),
                      0.0f);
            EXPECT_EQ(got.prediction, ref.prediction);
            EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles);
            EXPECT_EQ(got.stats.comm_cycles, ref.stats.comm_cycles);
            ASSERT_EQ(got.shards.size(), ref.shards.size());
            for (std::size_t s = 0; s < ref.shards.size(); ++s)
                EXPECT_EQ(got.shards[s].stats.total_cycles,
                          ref.shards[s].stats.total_cycles)
                    << "shard " << s;
            if (!hit_boundary)
                break; // k reached the stage count: sweep complete
        }
    }
}

} // namespace
} // namespace flowgnn
