/**
 * @file
 * The ghost functional pass on host threads: on a graph above
 * kSerialCutoff edges the NT transforms, the src-major pull and the GAT
 * combine run over node ranges on their own threads. For every model
 * kind, in fp32 and fixed point, the answer must be the same bits at
 * every thread count — and the src-major answer: the reference
 * executor's in fp32, the single-NT engine's in fixed point (the
 * reference has no fixed-point mode) — with the same modeled cycles.
 */
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/parallel.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "testing_util.h"

#if defined(__SANITIZE_THREAD__)
#define FLOWGNN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGNN_TSAN 1
#endif
#endif

namespace flowgnn {
namespace {

#ifdef FLOWGNN_TSAN
// ThreadSanitizer runs this pass 20-60x slower. One multi-threaded
// fp32 run per kind still puts every range's accesses in front of it
// (fixed point adds no shared state); the full matrix would outlast
// the per-test timeout.
constexpr unsigned kThreads[] = {3};
constexpr bool kPrecisions[] = {false};
#else
constexpr unsigned kThreads[] = {1, 2, 3, 4, 7};
constexpr bool kPrecisions[] = {false, true};
#endif

class GhostThreads : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(GhostThreads, ParallelPassIsBitIdenticalAtEveryThreadCount)
{
    constexpr std::size_t kNodeDim = 8;
    constexpr std::size_t kEdgeDim = 4;
    Rng rng(0x7E);
    const GraphSample sample = testing::make_random_sample(
        make_barabasi_albert(2200, 16, rng), kNodeDim, kEdgeDim, 0x7E1);
    ASSERT_GE(sample.graph.num_edges(), kSerialCutoff);

    // Analytic pricing keeps the runs cheap; the values do not depend
    // on the mode, and with one NT unit the GIN+VN fallback's engine
    // replays a src-major order too.
    EngineConfig cfg;
    cfg.mode = PipelineMode::kNonPipelined;
    cfg.p_node = 1;
    ShardConfig shard;
    shard.num_shards = 3;
    shard.strategy = ShardStrategy::kFennel;

    const Model model = make_model(GetParam(), kNodeDim, kEdgeDim);
    const GraphSample prepared = model.prepare(sample);
    const SampleRef ref(prepared);
    for (const bool fixed : kPrecisions) {
        RunOptions opts;
        opts.emulate_fixed_point = fixed;
        Matrix want_emb;
        float want_pred = 0.0f;
        if (fixed) {
            const RunResult single = Engine(model, cfg).run(sample, opts);
            want_emb = single.embeddings;
            want_pred = single.prediction;
        } else {
            want_emb = model.reference_embeddings(prepared);
            want_pred = model.predict(sample);
        }
        std::uint64_t cycles = 0;
        for (const unsigned threads : kThreads) {
            SCOPED_TRACE(::testing::Message()
                         << model.name() << (fixed ? " fixed" : " fp32")
                         << " threads " << threads);
            const ShardedRunResult got = run_ghost_plan(
                model, cfg, ref, make_ghost_plan(model, ref, shard, threads),
                opts, LinkConfig{}, threads);
            EXPECT_TRUE(got.embeddings == want_emb);
            EXPECT_EQ(got.prediction, want_pred);
            if (threads == kThreads[0])
                cycles = got.stats.total_cycles;
            EXPECT_EQ(got.stats.total_cycles, cycles);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GhostThreads,
    ::testing::Values(ModelKind::kGcn, ModelKind::kGin, ModelKind::kGinVn,
                      ModelKind::kGat, ModelKind::kPna, ModelKind::kDgn,
                      ModelKind::kGcn16, ModelKind::kSage,
                      ModelKind::kSgc));

} // namespace
} // namespace flowgnn
