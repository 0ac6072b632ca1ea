/**
 * @file
 * reddit16-ghost: one 1/16-scale Reddit-class graph (14,560 nodes,
 * ~7.1M directed edges, Barabási–Albert m=246 as flowgnn_make_reddit
 * generates it) written to FGNB once in set-up. The timed loop repeats
 * the out-of-core chain io::GraphView open -> features ->
 * make_ghost_plan (fennel, P=8, 3 restream passes, threads = nproc) ->
 * run_ghost_plan with GCN-16. io, partitioning and the ghost functional
 * pass do all the work; pool and per-run fixed cost are absent.
 *
 * Set-up runs in a forked child so the graph generator's memory never
 * shows in this process's peak RSS: peak_rss_mb is the chain's own.
 */
#include <filesystem>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "core/engine.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "io/graph_file.h"
#include "io/graph_view.h"
#include "tensor/rng.h"

namespace perfbench {

namespace {

using namespace flowgnn;

/** Table IV Reddit at 1/16 scale, BA degree as flowgnn_make_reddit. */
constexpr NodeId kNodes = 232965 / 16;
constexpr std::uint32_t kAttach = 246;
constexpr std::size_t kNodeDim = 16;
constexpr std::uint64_t kFeatureSeed = 0x5EED;

ShardConfig
ghost_config()
{
    ShardConfig cfg;
    cfg.num_shards = 8;
    cfg.strategy = ShardStrategy::kFennel;
    cfg.mode = ShardMode::kGhostExchange;
    cfg.restream_passes = 3;
    return cfg;
}

/** Generates the graph and writes it to `path`; returns seconds. */
double
write_graph(const std::string &path, std::uint64_t seed, unsigned threads)
{
    const Clock::time_point t0 = Clock::now();
    Rng rng(seed);
    GraphSample s;
    s.graph = make_barabasi_albert(kNodes, kAttach, rng);
    s.node_features = gaussian_features(kNodes, 0, seed ^ 0xFEA7);
    GraphFile::save(path, s, {.threads = threads});
    return seconds_since(t0);
}

/** Runs kSetupReps graph writes in a child process; returns their
 * durations (empty when the child failed). */
std::vector<double>
setup_in_child(const std::string &path, std::uint64_t seed, unsigned threads)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("reddit16-ghost: pipe failed");
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("reddit16-ghost: fork failed");
    if (pid == 0) {
        close(fds[0]);
        int code = 0;
        try {
            for (int rep = 0; rep < kSetupReps; ++rep) {
                const double s = write_graph(path, seed, threads);
                if (write(fds[1], &s, sizeof s) != sizeof s)
                    code = 1;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "set-up failed: %s\n", e.what());
            code = 1;
        }
        close(fds[1]);
        _exit(code);
    }
    close(fds[1]);
    std::vector<double> times;
    double s = 0.0;
    while (read(fds[0], &s, sizeof s) == sizeof s)
        times.push_back(s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        times.size() != kSetupReps)
        times.clear();
    return times;
}

struct Chain {
    double open_ms = 0, features_ms = 0, plan_ms = 0, run_ms = 0, ms = 0;
    long rss_after_plan_kb = 0, rss_after_run_kb = 0;
    std::size_t cut_edges = 0;
    double replication = 0.0;
    ShardedRunResult result;
};

Chain
run_chain(const Model &model, const std::string &path, unsigned threads,
          SpanRecorder *rec, std::uint64_t id)
{
    Chain c;
    const ShardConfig cfg = ghost_config();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan chain(rec, "chain", id);
    Clock::time_point t = Clock::now();
    auto lap = [&](double &ms) {
        const Clock::time_point now = Clock::now();
        ms = ms_between(t, now);
        t = now;
    };
    std::unique_ptr<io::GraphView> view;
    {
        ScopedSpan s(rec, "io.open", id, chain.index());
        view = std::make_unique<io::GraphView>(
            path, io::GraphViewOptions{.threads = threads});
    }
    lap(c.open_ms);
    SampleRef sample = view->sample();
    Matrix features;
    {
        ScopedSpan s(rec, "features", id, chain.index());
        features = gaussian_features(view->num_nodes(), kNodeDim,
                                     kFeatureSeed);
        sample.node_features = features.data();
        sample.node_dim = kNodeDim;
    }
    lap(c.features_ms);
    GhostPlan plan;
    {
        ScopedSpan s(rec, "ghost.plan", id, chain.index());
        plan = make_ghost_plan(model, sample, cfg, threads);
    }
    lap(c.plan_ms);
    if (rec)
        c.rss_after_plan_kb = read_memory().rss;
    c.cut_edges = plan.cut_edges;
    c.replication = plan.replication_factor;
    {
        ScopedSpan s(rec, "ghost.run", id, chain.index());
        c.result = run_ghost_plan(model, EngineConfig{}, sample,
                                  std::move(plan), RunOptions{}, cfg.link,
                                  threads);
    }
    lap(c.run_ms);
    if (rec)
        c.rss_after_run_kb = read_memory().rss;
    c.ms = ms_between(t0, Clock::now());
    return c;
}

/** The mapped file copied into an in-memory sample (for the reference
 * executor, which takes a GraphSample). */
GraphSample
materialize(const std::string &path)
{
    io::GraphView view(path);
    GraphSample s;
    s.graph.num_nodes = view.num_nodes();
    s.graph.edges.resize(view.num_edges());
    for (std::size_t e = 0; e < view.num_edges(); ++e)
        s.graph.edges[e] = Edge{view.src()[e], view.dst()[e]};
    s.node_features = gaussian_features(view.num_nodes(), kNodeDim,
                                        kFeatureSeed);
    return s;
}

double
median_of(const std::vector<Chain> &chains, double Chain::*field)
{
    std::vector<double> v;
    for (const Chain &c : chains)
        v.push_back(c.*field);
    return median(v);
}

} // namespace

void
run_reddit(const Args &args, Results &out)
{
    const std::string path = args.work_dir + "/reddit16-" +
                             std::to_string(args.seed) + ".fgnb";
    Rng rng(args.seed);
    const std::uint64_t graph_seed = rng.next_u64();

    // ---- set-up (child process): generate + write FGNB, repeated ----
    std::vector<double> setup_s =
        setup_in_child(path, graph_seed, args.nproc);
    if (setup_s.empty())
        throw std::runtime_error("reddit16-ghost: set-up failed");
    const Model model = make_model(ModelKind::kGcn16, kNodeDim, 0);
    const std::uintmax_t file_bytes = std::filesystem::file_size(path);

    // ---- timed loop of chains (plus a traced half in trace mode) ----
    auto loop = [&](double seconds, SpanRecorder *rec,
                    std::vector<Chain> &chains, double &elapsed) {
        const Clock::time_point t0 = Clock::now();
        do {
            ++out.ops.attempted;
            try {
                chains.push_back(run_chain(model, path, args.nproc, rec,
                                           out.ops.attempted));
                ++out.ops.succeeded;
            } catch (const std::exception &e) {
                ++out.ops.failed;
                std::fprintf(stderr, "chain failed: %s\n", e.what());
            }
        } while (seconds_since(t0) < seconds);
        elapsed = seconds_since(t0);
    };
    std::vector<Chain> chains, traced;
    double untraced_s = 0.0, traced_s = 0.0;
    loop(args.trace ? args.seconds / 2 : args.seconds, nullptr, chains,
         untraced_s);
    const MemoryKb mem = read_memory();
    if (args.trace)
        loop(args.seconds / 2, &out.spans, traced, traced_s);
    if (chains.empty())
        throw std::runtime_error("reddit16-ghost: no chain completed");

    std::vector<double> chain_ms;
    for (const Chain &c : chains)
        chain_ms.push_back(c.ms);
    std::printf("graph %u nodes, file %.1f MB, chains %zu in %.2f s\n",
                kNodes, double(file_bytes) / 1e6, chains.size(), untraced_s);
    std::printf("  median stages: open %.1f ms, features %.1f ms, plan "
                "%.1f ms, run %.1f ms\n",
                median_of(chains, &Chain::open_ms),
                median_of(chains, &Chain::features_ms),
                median_of(chains, &Chain::plan_ms),
                median_of(chains, &Chain::run_ms));
    print_latency_line("chain latency", chain_ms);

    // ---- output checks (outside the timed window) ----
    // Every chain of this invocation must agree bit for bit (cycles,
    // cut, prediction, embeddings) ...
    const Chain &first = chains.front();
    std::size_t differing = 0;
    for (const std::vector<Chain> *set : {&chains, &traced})
        for (const Chain &c : *set)
            differing += (c.result.stats.total_cycles !=
                               first.result.stats.total_cycles ||
                           c.result.stats.comm_cycles !=
                               first.result.stats.comm_cycles ||
                           c.cut_edges != first.cut_edges ||
                           c.result.prediction != first.result.prediction ||
                           !(c.result.embeddings == first.result.embeddings));
    out.check(differing == 0, std::to_string(differing) +
                                  " chains differ from the first chain");
    // ... and be bit-identical to the reference executor.
    const GraphSample sample = materialize(path);
    const GraphSample prepared = model.prepare(sample);
    Clock::time_point t0 = Clock::now();
    Matrix reference;
    {
        ScopedSpan s(args.trace ? &out.spans : nullptr, "nn.reference", 0);
        reference = model.reference_embeddings(prepared);
    }
    const double reference_ms = ms_between(t0, Clock::now());
    out.check(reference == first.result.embeddings,
              "ghost embeddings differ from Model::reference_embeddings");
    out.check(model.predict(sample) == first.result.prediction,
              "ghost prediction differs from Model::predict");

    const double modeled_ms = first.result.stats.latency_ms();
    if (!args.trace) {
        out.set("setup_s", median(setup_s), "s");
        out.set("graphs_per_s", double(chains.size()) / untraced_s, "1/s");
        out.set("latency_p50_ms", percentile(chain_ms, 0.5), "ms");
        out.set("goodput",
                double(out.ops.succeeded) / double(out.ops.attempted),
                "fraction");
        out.set("max_rate_hz", 1e3 / median(chain_ms), "1/s");
        out.set("chain_s", median(chain_ms) / 1e3, "s");
        out.set("peak_rss_mb", mb(mem.hwm), "MB");
        out.set("modeled_ms", modeled_ms, "ms");
        std::filesystem::remove(path);
        return;
    }

    // ---- traced run: stage metrics from the traced chains + probes ----
    if (traced.empty())
        throw std::runtime_error("reddit16-ghost: no traced chain");
    const double untraced_ms = median(chain_ms);
    const double traced_ms = median_of(traced, &Chain::ms);
    out.set("obs.primary_untraced_ms", untraced_ms, "ms");
    out.set("obs.primary_traced_ms", traced_ms, "ms");
    out.set("obs.trace_overhead", traced_ms / untraced_ms, "ratio");
    out.set("driver.latency_p95_ms", percentile(chain_ms, 0.95), "ms");

    const double open_ms = median_of(traced, &Chain::open_ms);
    out.set("io.open_ms", open_ms, "ms");
    out.set("io.open_gbps", double(file_bytes) / (open_ms / 1e3) / 1e9,
            "GB/s");
    out.set("features_ms", median_of(traced, &Chain::features_ms), "ms");
    out.set("ghost.plan_ms", median_of(traced, &Chain::plan_ms), "ms");
    const double run_ms = median_of(traced, &Chain::run_ms);
    out.set("ghost.run_ms", run_ms, "ms");
    std::vector<double> rss_plan, rss_run;
    for (const Chain &c : traced) {
        rss_plan.push_back(mb(c.rss_after_plan_kb));
        rss_run.push_back(mb(c.rss_after_run_kb));
    }
    out.set("ghost.rss_after_plan_mb", median(rss_plan), "MB");
    out.set("ghost.rss_after_run_mb", median(rss_run), "MB");

    const RunStats &st = first.result.stats;
    out.set("ghost.modeled_cycles", double(st.total_cycles), "cycles");
    out.set("ghost.comm_cycles", double(st.comm_cycles), "cycles");
    double die_max = 0.0, die_sum = 0.0;
    for (std::uint64_t c : st.die_cycles) {
        die_max = std::max(die_max, double(c));
        die_sum += double(c);
    }
    out.set("ghost.die_imbalance",
            die_sum > 0 ? die_max / (die_sum / double(st.die_cycles.size()))
                        : 0.0,
            "ratio");
    out.set("ghost.cut_fraction",
            double(first.cut_edges) / double(sample.num_edges()), "fraction");
    out.set("ghost.replication", first.replication, "ratio");
    out.set("core.ns_per_modeled_cycle", run_ms * 1e6 / double(st.total_cycles),
            "ns");
    CoreMeans core;
    core.add(st);
    core.report(out);
    out.set("nn.reference_ms", reference_ms, "ms");

    // Probe: the partitioner alone, on the same mapped graph.
    {
        io::GraphView view(path);
        const Clock::time_point ta = Clock::now();
        std::vector<std::uint32_t> assignment;
        {
            ScopedSpan s(&out.spans, "shard.assign", 0);
            assignment =
                shard_plan_assignment(view.graph(), ghost_config(), args.nproc);
        }
        out.set("shard.assign_ms", ms_between(ta, Clock::now()), "ms");
    }
    out.set("tensor.linear_gmacs.d100", linear_gmacs(100, 0.3), "GMAC/s");
    out.set("tensor.linear_gmacs.d80", linear_gmacs(80, 0.3), "GMAC/s");
    std::filesystem::remove(path);
}

} // namespace perfbench
