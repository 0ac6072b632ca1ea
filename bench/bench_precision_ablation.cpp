/**
 * @file
 * Ablation: fixed-point datapath precision.
 *
 * The deployed FlowGNN kernels compute in ap_fixed; this bench sweeps
 * Q-formats and reports the output drift vs the fp32 reference for
 * every paper model on MolHIV — the analysis behind choosing a 16-bit
 * datapath for the board build. Cycle counts are format-independent
 * (precision changes datapath width, not the schedule).
 *
 * The second section is the multi-die question: does sharding compound
 * quantization error? Sharded runs re-quantize every embedding at
 * every boundary crossing — but the engine's quantizer is idempotent,
 * so shipped values are already exactly representable and the
 * crossing is value-preserving. The sweep (format x shard count,
 * single NT unit) demonstrates it: drift is flat in the shard count,
 * i.e. error depends on the datapath format alone, never on how many
 * dies the graph spans.
 */
#include <cmath>

#include "bench_common.h"
#include "graph/generators.h"
#include "shard/sharded_engine.h"
#include "tensor/fixed_point.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

using namespace flowgnn;

namespace {

/** Mean/max embedding error over a small stream of graphs. */
struct Drift {
    double max_abs = 0.0;
    double mean_abs = 0.0;
};

Drift
measure_drift(const Model &model, FixedPointFormat fmt,
              std::size_t graphs)
{
    // Fixed-point emulation is a per-run option: the same pool dies
    // would serve fp32 requests unchanged.
    RunOptions opts;
    opts.emulate_fixed_point = true;
    opts.fixed_point = fmt;

    PoolScheduler pool(model);
    SampleStream stream(DatasetKind::kMolHiv, graphs);
    std::vector<GraphSample> samples;
    std::vector<std::future<RunResult>> futures;
    samples.reserve(stream.size());
    futures.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        samples.push_back(stream.next());
        futures.push_back(pool.submit(samples.back(), opts));
    }

    Drift drift;
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        Matrix quantized = futures[i].get().embeddings;
        Matrix reference =
            model.reference_embeddings(model.prepare(samples[i]));
        for (std::size_t k = 0; k < quantized.size(); ++k) {
            double d = std::abs(quantized.data()[k] -
                                reference.data()[k]);
            drift.max_abs = std::max(drift.max_abs, d);
            sum += d;
            ++count;
        }
    }
    drift.mean_abs = sum / static_cast<double>(count);
    return drift;
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation — fixed-point datapath precision (MolHIV, 16 graphs)",
        "Embedding drift vs the fp32 reference per Q-format. The board "
        "kernels use a 16-bit datapath; 8 bits visibly degrades.");

    const FixedPointFormat formats[] = {
        {24, 12}, {16, 8}, {12, 6}, {8, 4}};

    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);

    std::printf("%-7s", "Model");
    char name[16];
    for (const auto &fmt : formats)
        std::printf(" | %-21s", fmt.name_into(name, sizeof name));
    std::printf("\n%-7s", "");
    for (std::size_t i = 0; i < std::size(formats); ++i)
        std::printf(" | %10s %10s", "max", "mean");
    std::printf("\n");
    bench::rule(105);

    for (ModelKind kind : kPaperModels) {
        Model model =
            make_model(kind, probe.node_dim(), probe.edge_dim());
        std::printf("%-7s", model_name(kind));
        for (const auto &fmt : formats) {
            Drift d = measure_drift(model, fmt, 16);
            std::printf(" | %10.2e %10.2e", d.max_abs, d.mean_abs);
        }
        std::printf("\n");
    }
    bench::rule(105);
    std::printf("Expected: drift shrinks monotonically with precision. "
                "GIN+VN saturates below 24 bits: the virtual node\n"
                "amplifies (untrained) activations beyond the 16-bit "
                "range — why deployments calibrate formats per model.\n");

    // ---- Quantization error vs shard count ---------------------------
    bench::banner(
        "Quantization error vs shard count (GCN-16, Barabási–Albert)",
        "Max |sharded fixed-point - fp32 reference| per format and "
        "shard count, with one NT unit (order-preserving). Every "
        "boundary crossing re-quantizes; idempotent quantization keeps "
        "the drift flat in P — sharding never compounds datapath "
        "error.");

    Rng rng(0xFACE);
    GraphSample big = bench::with_features(
        make_barabasi_albert(3000, 4, rng), 16, 0xFACE1);
    Model gcn16 = make_model(ModelKind::kGcn16, 16, 0);
    Matrix reference =
        gcn16.reference_embeddings(gcn16.prepare(big));

    EngineConfig ecfg;
    ecfg.p_node = 1; // src-major everywhere: isolates quantization
    const std::uint32_t shard_counts[] = {1, 2, 4};

    std::printf("%-9s", "format");
    for (std::uint32_t p : shard_counts)
        std::printf(" %14s%u", "max drift P=", p);
    std::printf("\n");
    bench::rule(58);
    char fmt_name[16];
    for (const auto &fmt : formats) {
        RunOptions opts;
        opts.emulate_fixed_point = true;
        opts.fixed_point = fmt;
        std::printf("%-9s", fmt.name_into(fmt_name, sizeof fmt_name));
        for (std::uint32_t p : shard_counts) {
            ShardConfig shard;
            shard.num_shards = p;
            shard.strategy = ShardStrategy::kFennel;
            ShardedRunResult r =
                ShardedEngine(gcn16, ecfg, shard).run(big, opts);
            double drift = 0.0;
            for (std::size_t k = 0; k < r.embeddings.size(); ++k)
                drift = std::max(
                    drift, static_cast<double>(std::abs(
                               r.embeddings.data()[k] -
                               reference.data()[k])));
            std::printf(" %15.2e", drift);
        }
        std::printf("\n");
    }
    bench::rule(58);
    std::printf(
        "Expected: every P column repeats P=1 — error growth with "
        "shard count is zero by construction\n(idempotent "
        "re-quantization at the boundary).\n");
    return 0;
}
