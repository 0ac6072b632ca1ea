/**
 * @file
 * Gates the cost of observability instrumentation left compiled into
 * the hot paths: with NO TraceSession installed, a Span is one
 * relaxed atomic load (TraceSession::current()) and a branch, and the
 * serving fabric must not lose more than 2% of throughput to those
 * checks.
 *
 *   ./bench_obs_overhead [--json PATH] [--graphs N]
 *
 * Method: a same-binary A/B cannot isolate "the binary without
 * instrumentation", and on small shared runners macro timing is too
 * noisy to resolve sub-percent deltas. So the gate is built from two
 * direct measurements:
 *   1. the disabled-path cost of one Span (measured over millions of
 *      constructions with no session installed), and
 *   2. the number of instrumentation sites actually hit per graph
 *      (counted by installing a session and reading back its record
 *      count), against the per-graph wall time of the
 *      bench_throughput-style serving workload.
 * modeled overhead = sites/graph x disabled-span cost / graph wall
 * time, gated < 2%. The enabled-tracing macro delta is also reported
 * (informational: that is the *opt-in* cost of capturing a trace).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "datasets/dataset.h"
#include "obs/trace_session.h"
#include "pool/scheduler.h"

using namespace flowgnn;

namespace {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Streams `graphs` molhiv graphs through a 2-die pool and returns
 * the wall seconds. */
double
run_workload(const Model &model, std::size_t graphs)
{
    PoolConfig config;
    config.num_dies = 2;
    PoolScheduler pool(model, EngineConfig{}, config);
    SampleStream stream(DatasetKind::kMolHiv, graphs);
    std::vector<std::future<RunResult>> futures;
    futures.reserve(graphs);
    const double t0 = now_s();
    for (std::size_t i = 0; i < graphs; ++i)
        futures.push_back(pool.submit(stream.next()));
    for (auto &f : futures)
        f.get();
    return now_s() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::size_t graphs = 256;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--json") && a + 1 < argc)
            json_path = argv[++a];
        else if (!std::strcmp(argv[a], "--graphs") && a + 1 < argc)
            graphs = static_cast<std::size_t>(std::atoll(argv[++a]));
        else {
            std::fprintf(stderr, "usage: bench_obs_overhead "
                                 "[--json PATH] [--graphs N]\n");
            return 1;
        }
    }

    std::printf("=== flowgnn::obs overhead (tracing disabled) ===\n\n");

    // ---- 1. Disabled-path Span cost: no session installed. ----
    constexpr std::size_t kSpanIters = 20'000'000;
    const double span_t0 = now_s();
    for (std::size_t i = 0; i < kSpanIters; ++i)
        obs::Span span(obs::Track::kPool, "probe");
    const double disabled_span_ns =
        (now_s() - span_t0) * 1e9 / kSpanIters;
    std::printf("disabled Span cost:   %.2f ns "
                "(current() load + branch, x%zu)\n",
                disabled_span_ns, kSpanIters);

    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);
    Model model =
        make_model(ModelKind::kGin, probe.node_dim(), probe.edge_dim());

    // ---- 2. Baseline workload: no session, warm then measure. ----
    run_workload(model, graphs / 4); // warmup
    const double base_s = run_workload(model, graphs);
    const double per_graph_ms = base_s * 1e3 / graphs;
    std::printf("baseline:             %.3f s for %zu graphs "
                "(%.3f ms/graph)\n",
                base_s, graphs, per_graph_ms);

    // ---- 3. Sites hit per graph, from an enabled session. ----
    double enabled_s;
    std::size_t recorded;
    {
        obs::TraceSession session(
            obs::TraceOptions{.buffer_capacity = 1 << 20});
        session.install();
        enabled_s = run_workload(model, graphs);
        session.uninstall();
        recorded = session.recorded();
    }
    const double sites_per_graph =
        static_cast<double>(recorded) / graphs;
    std::printf("enabled:              %.3f s (%zu records, %.1f "
                "spans/graph)\n",
                enabled_s, recorded, sites_per_graph);

    // ---- Gate: modeled disabled-session overhead < 2%. ----
    const double overhead =
        sites_per_graph * disabled_span_ns / (per_graph_ms * 1e6);
    const double enabled_delta = enabled_s / base_s - 1.0;
    const bool pass = overhead < 0.02;
    std::printf("\nmodeled disabled-session overhead: %.5f%% "
                "(gate < 2%%) -> %s\n",
                overhead * 100.0, pass ? "PASS" : "FAIL");
    std::printf("enabled-tracing macro delta:       %+.1f%% "
                "(informational; opt-in capture cost)\n",
                enabled_delta * 100.0);

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << "{\n  \"bench\": \"obs_overhead\",\n"
           << "  \"graphs\": " << graphs << ",\n"
           << "  \"disabled_span_ns\": " << disabled_span_ns << ",\n"
           << "  \"per_graph_ms\": " << per_graph_ms << ",\n"
           << "  \"sites_per_graph\": " << sites_per_graph << ",\n"
           << "  \"modeled_overhead_fraction\": " << overhead << ",\n"
           << "  \"enabled_delta_fraction\": " << enabled_delta
           << ",\n"
           << "  \"gate\": \"" << (pass ? "pass" : "fail")
           << "\"\n}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return pass ? 0 : 2;
}
