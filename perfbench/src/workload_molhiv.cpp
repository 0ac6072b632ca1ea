/**
 * @file
 * molhiv-screen: a closed loop, one driver thread, one run outstanding.
 * Each distinct MolHIV molecule goes through all six paper models by
 * Engine::run with one reused RunWorkspace. Stresses the per-run fixed
 * cost and the NT transforms (tensor, nn, core); pool, io, shard and
 * ghost do no work.
 */
#include <memory>

#include "bench.h"
#include "core/engine.h"
#include "datasets/dataset.h"
#include "tensor/rng.h"

namespace perfbench {

namespace {

using namespace flowgnn;

/** Molecules whose modeled cycles define modeled_ms and core.* (fixed
 * per seed, independent of host speed and --seconds). */
constexpr std::size_t kModeledSet = 384;
/** Completions per block of the median block rate (~1 s of runs). */
constexpr std::size_t kRunBlock = 192;
/** Molecules of the traced half that the reference probe re-runs. */
constexpr std::size_t kProbeSet = 40;

struct Record {
    std::size_t molecule = 0; ///< index into the generated set
    std::size_t model = 0;
    double ms = 0.0;
    std::uint64_t cycles = 0;
    float prediction = 0.0f;
    bool ok = false;
};

struct Setup {
    std::vector<GraphSample> molecules;
    std::vector<std::unique_ptr<Model>> models;
    std::vector<std::unique_ptr<Engine>> engines;
};

void
build(Setup &s, std::size_t offset)
{
    const DatasetSpec &spec = dataset_spec(DatasetKind::kMolHiv);
    s = Setup{};
    s.molecules.reserve(spec.num_graphs);
    for (std::size_t i = 0; i < spec.num_graphs; ++i)
        s.molecules.push_back(make_sample(DatasetKind::kMolHiv,
                                          (offset + i) % spec.num_graphs));
    for (ModelKind kind : kPaperModels) {
        s.models.push_back(std::make_unique<Model>(
            make_model(kind, spec.node_dim, spec.edge_dim)));
        s.engines.push_back(std::make_unique<Engine>(*s.models.back()));
    }
}

/** Runs molecules [first, ...) through all six models until `seconds`
 * elapse or the molecules run out; returns the next unused molecule. */
std::size_t
closed_loop(const Setup &s, std::size_t first, double seconds,
            SpanRecorder *rec, std::vector<Record> &records,
            std::vector<double> &molecule_ms,
            std::vector<double> &molecule_done_s,
            std::vector<double> &run_done_s, Accounting &ops,
            double &elapsed_s)
{
    RunWorkspace ws;
    const RunOptions opts;
    const Clock::time_point t0 = Clock::now();
    std::size_t m = first;
    for (; m < s.molecules.size() && seconds_since(t0) < seconds; ++m) {
        ScopedSpan graph(rec, "graph", m);
        const Clock::time_point tm = Clock::now();
        for (std::size_t k = 0; k < s.engines.size(); ++k) {
            Record r{m, k};
            ++ops.attempted;
            const Clock::time_point tr = Clock::now();
            try {
                ScopedSpan run(rec,
                               rec ? std::string("core.run.") +
                                         model_key(kPaperModels[k])
                                   : std::string(),
                               m, graph.index());
                RunResult res = s.engines[k]->run(s.molecules[m], opts, ws);
                r.cycles = res.stats.total_cycles;
                r.prediction = res.prediction;
                r.ok = true;
                ++ops.succeeded;
            } catch (const std::exception &e) {
                ++ops.failed;
                std::fprintf(stderr, "run failed: %s\n", e.what());
            }
            const Clock::time_point done = Clock::now();
            r.ms = ms_between(tr, done);
            records.push_back(r);
            run_done_s.push_back(ms_between(t0, done) / 1e3);
        }
        const Clock::time_point done = Clock::now();
        molecule_ms.push_back(ms_between(tm, done));
        molecule_done_s.push_back(ms_between(t0, done) / 1e3);
    }
    elapsed_s = seconds_since(t0);
    return m;
}

} // namespace

void
run_molhiv(const Args &args, Results &out)
{
    const DatasetSpec &spec = dataset_spec(DatasetKind::kMolHiv);
    Rng rng(args.seed);
    const std::size_t offset = rng.uniform_index(spec.num_graphs);

    // ---- set-up: generate every molecule, build six models/engines ----
    Setup s;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        build(s, offset);
        setup_s.push_back(seconds_since(t0));
    }
    const std::size_t num_models = s.engines.size();

    // ---- timed closed loop (untraced; plus a traced half in trace mode)
    std::vector<Record> records;
    std::vector<double> molecule_ms, molecule_done_s, run_done_s;
    double untraced_s = 0.0;
    const double untraced_window = args.trace ? args.seconds / 2 : args.seconds;
    std::size_t next =
        closed_loop(s, 0, untraced_window, nullptr, records, molecule_ms,
                    molecule_done_s, run_done_s, out.ops, untraced_s);
    const std::size_t untraced_runs = records.size();
    const MemoryKb mem = read_memory();

    std::size_t traced_first = next;
    std::size_t traced_runs = 0;
    double traced_s = 0.0;
    if (args.trace) {
        std::vector<double> ms, mol_done, run_done;
        next = closed_loop(s, next, args.seconds / 2, &out.spans, records,
                           ms, mol_done, run_done, out.ops, traced_s);
        traced_runs = records.size() - untraced_runs;
    }

    std::printf("molecules %zu (offset %zu), model-runs %zu, window %.2f s"
                "%s\n",
                next, offset, records.size(), untraced_s + traced_s,
                args.trace ? " (half traced)" : "");
    std::vector<double> run_ms;
    for (std::size_t i = 0; i < untraced_runs; ++i)
        run_ms.push_back(records[i].ok ? records[i].ms : kMiss);
    print_latency_line("model-run latency", run_ms);

    // ---- output checks (outside the timed window) ----
    // 1. every engine prediction within test_crosscheck's tolerance of
    //    Model::predict;
    std::vector<char> pred_ok(records.size(), 0);
    parallel_for(records.size(), args.nproc, [&](std::size_t i) {
        const Record &r = records[i];
        pred_ok[i] = !r.ok || prediction_close(
                                 r.prediction,
                                 s.models[r.model]->predict(
                                     s.molecules[r.molecule]));
    });
    std::size_t bad = 0;
    for (char ok : pred_ok)
        bad += ok ? 0 : 1;
    out.check(bad == 0, std::to_string(bad) +
                            " engine predictions outside tolerance of "
                            "Model::predict");

    // 2. the fixed modeled set re-run on fresh workspaces must match the
    //    timed runs cycle for cycle and bit for bit.
    const std::size_t fixed = std::min(kModeledSet, s.molecules.size());
    std::vector<RunStats> fixed_stats(fixed * num_models);
    std::vector<float> fixed_pred(fixed * num_models);
    parallel_for(fixed * num_models, args.nproc, [&](std::size_t i) {
        RunWorkspace ws;
        RunResult r = s.engines[i % num_models]->run(
            s.molecules[i / num_models], RunOptions{}, ws);
        fixed_stats[i] = std::move(r.stats);
        fixed_pred[i] = r.prediction;
    });
    std::size_t mismatched = 0;
    for (const Record &r : records) {
        if (r.molecule >= fixed || !r.ok)
            continue;
        const std::size_t i = r.molecule * num_models + r.model;
        mismatched += (fixed_stats[i].total_cycles != r.cycles ||
                       fixed_pred[i] != r.prediction);
    }
    out.check(mismatched == 0,
              std::to_string(mismatched) +
                  " model-runs differ in cycles/prediction between runs "
                  "of one invocation");

    double modeled_ms = 0.0;
    for (const RunStats &st : fixed_stats)
        modeled_ms += st.latency_ms();
    modeled_ms /= static_cast<double>(fixed_stats.size());

    if (!args.trace) {
        out.set("setup_s", median(setup_s), "s");
        out.set("graphs_per_s",
                median_block_rate(run_done_s, kRunBlock), "1/s");
        out.set("latency_p50_ms", percentile(run_ms, 0.5), "ms");
        out.set("goodput",
                double(out.ops.succeeded) / double(out.ops.attempted),
                "fraction");
        out.set("max_rate_hz",
                median_block_rate(molecule_done_s, kRunBlock / num_models),
                "1/s");
        out.set("chain_s", median(molecule_ms) / 1e3, "s");
        out.set("peak_rss_mb", mb(mem.hwm), "MB");
        out.set("modeled_ms", modeled_ms, "ms");
        return;
    }

    // ---- traced run: per-layer metrics from spans + probes ----
    const double untraced_ms = untraced_s * 1e3 / double(untraced_runs);
    const double traced_ms = traced_s * 1e3 / double(traced_runs);
    out.set("obs.primary_untraced_ms", untraced_ms, "ms");
    out.set("obs.primary_traced_ms", traced_ms, "ms");
    out.set("obs.trace_overhead", traced_ms / untraced_ms, "ratio");
    out.set("driver.latency_p95_ms", percentile(run_ms, 0.95), "ms");

    // Probe: reference executor on the first molecules of the traced
    // half, paired with their traced engine spans.
    const std::size_t probe_end = std::min(next, traced_first + kProbeSet);
    double engine_ns = 0.0, engine_cycles = 0.0;
    for (std::size_t k = 0; k < num_models; ++k) {
        const char *key = model_key(kPaperModels[k]);
        double run_sum = 0.0, ref_sum = 0.0, macs = 0.0;
        std::size_t n = 0;
        for (std::size_t i = untraced_runs; i < records.size(); ++i) {
            const Record &r = records[i];
            if (r.model != k || r.molecule >= probe_end || !r.ok)
                continue;
            const GraphSample prepared =
                s.models[k]->prepare(s.molecules[r.molecule]);
            const Clock::time_point t0 = Clock::now();
            {
                ScopedSpan probe(&out.spans,
                                 std::string("nn.reference.") + key,
                                 r.molecule);
                s.models[k]->reference_embeddings(prepared);
            }
            ref_sum += ms_between(t0, Clock::now());
            run_sum += r.ms;
            macs += static_cast<double>(s.models[k]->macs(prepared));
            ++n;
        }
        const double dn = n ? double(n) : 1.0;
        out.set(std::string("core.run_ms.") + key, run_sum / dn, "ms");
        out.set(std::string("nn.reference_ms.") + key, ref_sum / dn, "ms");
        out.set(std::string("core.timing_overhead_ms.") + key,
                (run_sum - ref_sum) / dn, "ms");
        out.set(std::string("nn.gmacs_per_s.") + key,
                run_sum > 0 ? macs / (run_sum / 1e3) / 1e9 : 0.0, "GMAC/s");
        double cycles = 0.0;
        for (std::size_t m = 0; m < fixed; ++m)
            cycles += double(fixed_stats[m * num_models + k].total_cycles);
        out.set(std::string("core.modeled_cycles.") + key,
                cycles / double(fixed), "cycles");
    }
    for (std::size_t i = untraced_runs; i < records.size(); ++i) {
        if (!records[i].ok)
            continue;
        engine_ns += records[i].ms * 1e6;
        engine_cycles += double(records[i].cycles);
    }
    out.set("core.ns_per_modeled_cycle", engine_ns / engine_cycles, "ns");
    CoreMeans core;
    for (const RunStats &st : fixed_stats)
        core.add(st);
    core.report(out);
    out.set("tensor.linear_gmacs.d100", linear_gmacs(100, 0.3), "GMAC/s");
    out.set("tensor.linear_gmacs.d80", linear_gmacs(80, 0.3), "GMAC/s");
}

} // namespace perfbench
