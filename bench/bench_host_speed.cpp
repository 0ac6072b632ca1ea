/**
 * @file
 * Host-side ingestion/planning speed on an on-disk FGNB graph: the
 * wall-clock and peak-RSS budget of everything that happens *before*
 * the modeled accelerator cycles — open+verify, feature attach,
 * partition+ghost-plan, and the modeled multi-die run — measured on
 * the out-of-core mmap path (io::GraphView -> SampleRef, nothing
 * materialized in RAM).
 *
 *   ./bench_host_speed --graph-file PATH [--json PATH] [--threads T]
 *                      [--shards P] [--strategy NAME] [--restream N]
 *                      [--compare-in-memory] [--trace PATH]
 *                      [--metrics PATH]
 *
 * --trace captures the run as a Chrome trace (io/shard/ghost spans +
 * the modeled per-die timeline); --metrics dumps the metrics registry
 * (.prom -> Prometheus text, else JSON).
 *
 * Stages (each row reports seconds, VmRSS after the stage, and the
 * process-lifetime VmHWM):
 *  - open     GraphView: mmap, header/endpoint validation, payload
 *             checksum (chunked in parallel on v2 files)
 *  - features deterministic Gaussian features when the file stores
 *             none (same (seed, dim) policy as load_graph_sample)
 *  - plan     shard_plan_assignment (fennel + restream passes reuse
 *             one undirected CSR) + make_ghost_plan, all off the view
 *  - run      run_ghost_plan: global functional engine pass + per-die
 *             structural pricing
 *
 * --compare-in-memory additionally runs the identical chain through
 * the copying loader (load_graph_sample -> GraphSample) and asserts
 * the out-of-core result is bit-identical — embeddings, prediction,
 * cycles, and cut. That differential is the bench's correctness gate;
 * the exit code reflects it.
 *
 * --json writes a machine-readable record (stages, totals, host core
 * count) consumed by CI as a workflow artifact so the host-speed
 * trajectory is tracked per commit.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ghost/ghost_engine.h"
#include "io/graph_view.h"
#include "io/load.h"
#include "obs/stage_profile.h"
#include "obs/trace_session.h"

namespace {

using namespace flowgnn;

double
mb(long kb)
{
    return static_cast<double>(kb) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string graph_file;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    unsigned threads = 0;
    std::uint32_t shards = 8;
    std::uint32_t restream = 3;
    ShardStrategy strategy = ShardStrategy::kFennel;
    bool compare_in_memory = false;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--graph-file") && a + 1 < argc)
            graph_file = argv[++a];
        else if (!std::strcmp(argv[a], "--json") && a + 1 < argc)
            json_path = argv[++a];
        else if (!std::strcmp(argv[a], "--trace") && a + 1 < argc)
            trace_path = argv[++a];
        else if (!std::strcmp(argv[a], "--metrics") && a + 1 < argc)
            metrics_path = argv[++a];
        else if (!std::strcmp(argv[a], "--threads") && a + 1 < argc)
            threads = static_cast<unsigned>(std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--shards") && a + 1 < argc)
            shards = static_cast<std::uint32_t>(std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--restream") && a + 1 < argc)
            restream =
                static_cast<std::uint32_t>(std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--strategy") && a + 1 < argc) {
            try {
                strategy = shard_strategy_from_name(argv[++a]);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
        } else if (!std::strcmp(argv[a], "--compare-in-memory"))
            compare_in_memory = true;
        else {
            std::fprintf(
                stderr,
                "usage: bench_host_speed --graph-file PATH "
                "[--json PATH] [--threads T] [--shards P] "
                "[--strategy NAME] [--restream N] "
                "[--compare-in-memory] [--trace PATH] "
                "[--metrics PATH]\n");
            return 1;
        }
    }
    if (graph_file.empty() || shards == 0) {
        std::fprintf(stderr, "error: --graph-file is required and "
                             "--shards must be >= 1\n");
        return 1;
    }

    std::unique_ptr<obs::TraceSession> session;
    if (!trace_path.empty()) {
        session = std::make_unique<obs::TraceSession>();
        session->install();
    }

    obs::StageProfiler profiler(obs::MetricsRegistry::global());
    const auto t_start = std::chrono::steady_clock::now();
    auto timed = [&](const char *name, auto &&fn) {
        profiler.stage(name, fn);
        const obs::StageProfile &s = profiler.stages().back();
        std::printf("%-10s %9.3f s   rss %8.1f MB   peak %8.1f MB\n",
                    name, s.seconds, mb(s.rss_kb), mb(s.hwm_kb));
        std::fflush(stdout);
    };

    std::printf("\n=== FlowGNN host-speed: out-of-core ingestion & "
                "planning ===\n");
    std::printf("graph file: %s\nthreads: %u (host cores: %u), "
                "P=%u %s +%u restream, ghost mode\n\n",
                graph_file.c_str(), threads,
                std::thread::hardware_concurrency(), shards,
                shard_strategy_name(strategy), restream);

    try {
        constexpr std::size_t kNodeDim = 16;
        constexpr std::uint64_t kFeatureSeed = 0x5EED;

        // ---- open: mmap + validate + checksum ----
        std::unique_ptr<io::GraphView> view;
        timed("open", [&] {
            view = std::make_unique<io::GraphView>(
                graph_file, io::GraphViewOptions{.threads = threads});
        });

        SampleRef sample = view->sample();

        // ---- features: attach when the file stores none ----
        Matrix generated;
        timed("features", [&] {
            if (sample.node_dim == 0) {
                generated = gaussian_features(view->num_nodes(),
                                              kNodeDim, kFeatureSeed);
                sample.node_features = generated.data();
                sample.node_dim = kNodeDim;
            }
        });

        Model model = make_model(ModelKind::kGcn16, sample.node_dim,
                                 sample.edge_dim);

        ShardConfig cfg;
        cfg.num_shards = shards;
        cfg.strategy = strategy;
        cfg.restream_passes = restream;

        // ---- plan: partition (adjacency reused across restreams)
        // + ghost extraction, all straight off the mmap view ----
        GhostPlan plan;
        timed("plan", [&] {
            plan = make_ghost_plan(model, sample, cfg, threads);
        });
        const std::size_t cut_edges = plan.cut_edges;
        const double replication = plan.replication_factor;

        // ---- run: functional pass + per-die structural pricing ----
        ShardedRunResult result;
        timed("run", [&] {
            result = run_ghost_plan(model, EngineConfig{}, sample,
                                    std::move(plan), RunOptions{},
                                    cfg.link, threads);
        });

        const double total_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t_start)
                .count();
        const long peak_kb = obs::read_memory_stats().hwm_kb;
        std::printf("%-10s %9.3f s   peak %8.1f MB\n", "total",
                    total_seconds, mb(peak_kb));

        const double cut_fraction =
            sample.num_edges() == 0
                ? 0.0
                : static_cast<double>(cut_edges) /
                      static_cast<double>(sample.num_edges());
        std::printf("\ngraph: %u nodes / %zu edges  cut %.4f  "
                    "repl %.3f  cycles %llu  prediction %.6f\n",
                    view->num_nodes(), view->num_edges(), cut_fraction,
                    replication,
                    static_cast<unsigned long long>(
                        result.stats.total_cycles),
                    result.prediction);

        // ---- differential: identical chain via the copying loader --
        bool match = true;
        if (compare_in_memory) {
            std::printf("\ncomparing against the in-memory "
                        "(GraphSample) chain...\n");
            LoadOptions lo;
            lo.node_dim = kNodeDim;
            lo.feature_seed = kFeatureSeed;
            GraphSample mem = load_graph_sample(graph_file, lo);
            GhostPlan mem_plan = make_ghost_plan(model, mem, cfg);
            ShardedRunResult mem_result = run_ghost_plan(
                model, EngineConfig{}, mem, std::move(mem_plan),
                RunOptions{}, cfg.link);
            match = mem_result.embeddings == result.embeddings &&
                    mem_result.prediction == result.prediction &&
                    mem_result.stats.total_cycles ==
                        result.stats.total_cycles &&
                    mem_result.cut_edges == result.cut_edges;
            std::printf("out-of-core vs in-memory: %s\n",
                        match ? "bit-identical" : "MISMATCH");
        }

        if (!json_path.empty()) {
            std::ofstream os(json_path);
            os << "{\n  \"bench\": \"host_speed\",\n"
               << "  \"graph\": \"" << graph_file << "\",\n"
               << "  \"nodes\": " << view->num_nodes() << ",\n"
               << "  \"edges\": " << view->num_edges() << ",\n"
               << "  \"fgnb_version\": " << view->version() << ",\n"
               << "  \"threads\": " << threads << ",\n"
               << "  \"host_cores\": "
               << std::thread::hardware_concurrency() << ",\n"
               << "  \"shards\": " << shards << ",\n"
               << "  \"strategy\": \"" << shard_strategy_name(strategy)
               << "\",\n"
               << "  \"restream\": " << restream << ",\n"
               << "  \"total_seconds\": " << total_seconds << ",\n"
               << "  \"peak_rss_mb\": " << mb(peak_kb) << ",\n"
               << "  \"cut_fraction\": " << cut_fraction << ",\n"
               << "  \"replication\": " << replication << ",\n"
               << "  \"total_cycles\": " << result.stats.total_cycles
               << ",\n"
               << "  \"compare_in_memory\": "
               << (compare_in_memory ? (match ? "\"bit-identical\""
                                              : "\"MISMATCH\"")
                                     : "null")
               << ",\n  \"stages\": ";
            profiler.write_json_array(os, "    ");
            os << "\n}\n";
            std::printf("\nwrote %s\n", json_path.c_str());
        }

        if (session) {
            std::ofstream os(trace_path);
            session->write_chrome_trace(os);
            std::printf("wrote Chrome trace %s (%zu records)\n",
                        trace_path.c_str(), session->recorded());
        }
        if (!metrics_path.empty()) {
            obs::MetricsSnapshot snap =
                obs::MetricsRegistry::global()->snapshot();
            std::ofstream os(metrics_path);
            if (metrics_path.size() >= 5 &&
                metrics_path.compare(metrics_path.size() - 5, 5,
                                     ".prom") == 0)
                snap.write_prometheus(os);
            else
                snap.write_json(os);
            std::printf("wrote metrics %s\n", metrics_path.c_str());
        }

        return match ? 0 : 2;
    } catch (const GraphFileError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
