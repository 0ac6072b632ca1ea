/**
 * @file
 * perfbench — one invocation runs one workload and prints, as the last
 * line of stdout, {"correct", "attempted", "failed", "metrics"} with
 * every metric the workload measured (name -> {value, unit}).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no spans recorded;
 * --trace 1 measures an untraced and a traced half, records spans
 * around every library call, runs the per-layer probes after the timed
 * section and writes the spans to DIR/spans-<workload>-<seed>.json.
 * Output checks run outside the timed window in both modes; a failed
 * check makes the exit code 3. A latency percentile that lands on a
 * refused or failed operation (+inf) prints as the largest double.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "molhiv-screen|hep-trigger|reddit16-ghost --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
}

void
print_json(const Results &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                r.correct ? "true" : "false", r.ops.attempted,
                r.ops.misses());
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Results::Metric &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value)
                        ? m.value
                        : std::numeric_limits<double>::max(),
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

void
print_span_report(const Results &r)
{
    std::printf("\nspans (recorded around library calls; self = total "
                "minus child spans):\n");
    std::printf("  %-18s %8s %12s %12s %12s\n", "span", "count",
                "total_ms", "self_ms", "mean_ms");
    for (const auto &[name, s] : r.spans.summarize())
        std::printf("  %-18s %8zu %12.3f %12.3f %12.4f\n", name.c_str(),
                    s.count, s.total_ms, s.self_ms,
                    s.total_ms / double(s.count));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.nproc = std::max(2u, std::thread::hardware_concurrency());
    for (int a = 1; a < argc; ++a) {
        auto value = [&]() -> const char * {
            return a + 1 < argc ? argv[++a] : nullptr;
        };
        const char *flag = argv[a];
        const char *v = value();
        if (!v)
            return usage();
        if (!std::strcmp(flag, "--workload"))
            args.workload = v;
        else if (!std::strcmp(flag, "--seed"))
            args.seed = std::strtoull(v, nullptr, 10);
        else if (!std::strcmp(flag, "--seconds"))
            args.seconds = std::atof(v);
        else if (!std::strcmp(flag, "--trace"))
            args.trace = std::atoi(v) != 0;
        else if (!std::strcmp(flag, "--work-dir"))
            args.work_dir = v;
        else
            return usage();
    }
    if (args.seconds <= 0.0)
        return usage();

    Results out;
    try {
        std::printf("perfbench %s seed=%llu seconds=%g trace=%d "
                    "host_cores=%u\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.seconds, args.trace ? 1 : 0, args.nproc);
        if (args.workload == "molhiv-screen")
            run_molhiv(args, out);
        else if (args.workload == "hep-trigger")
            run_hep(args, out);
        else if (args.workload == "reddit16-ghost")
            run_reddit(args, out);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (!out.ops.balanced()) {
        std::fprintf(stderr, "error: operation accounting unbalanced\n");
        return 1;
    }

    if (args.trace) {
        print_span_report(out);
        const std::string path = args.work_dir + "/spans-" +
                                 args.workload + "-" +
                                 std::to_string(args.seed) + ".json";
        std::ofstream os(path);
        out.spans.write_json(os);
        std::printf("wrote %zu spans to %s\n", out.spans.spans().size(),
                    path.c_str());
    }
    std::printf("\n");
    for (const Results::Metric &m : out.metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("operations: attempted=%zu succeeded=%zu refused=%zu "
                "failed=%zu\n",
                out.ops.attempted, out.ops.succeeded, out.ops.refused,
                out.ops.failed);
    print_json(out);
    std::fflush(stdout);
    return out.correct ? 0 : 3;
}
