/**
 * @file
 * Shared plumbing of the three workloads: arguments, the result sheet
 * every workload fills, and small measurement helpers. Each workload
 * calls libflowgnn only through its public API (Engine, Model,
 * PoolScheduler, io::GraphView, make_ghost_plan / run_ghost_plan and
 * the generators).
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/stats.h"
#include "nn/model.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for the generated graph file and span dump. */
    std::string work_dir = ".";
    /** Host cores (hardware_concurrency, at least 2). */
    unsigned nproc = 2;
};

/** What one invocation reports. */
struct Results {
    bool correct = true;
    Accounting ops;
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Present in the traced run only. */
    SpanRecorder spans;

    void
    set(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Records a failed output check; the run then reports
     * correct=false and exits non-zero. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** Repetitions of every workload's set-up; setup_s is their median. */
inline constexpr int kSetupReps = 5;

/** Tolerance test_crosscheck applies between engine and reference. */
inline bool
prediction_close(float engine, float reference)
{
    return std::abs(double(engine) - double(reference)) <=
           1e-3 + 1e-3 * std::abs(double(reference));
}

inline double
seconds_since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

struct MemoryKb {
    long rss = 0; ///< VmRSS
    long hwm = 0; ///< VmHWM, the process's peak
};

/** VmRSS / VmHWM of this process from /proc/self/status. */
MemoryKb read_memory();

inline double
mb(long kb)
{
    return static_cast<double>(kb) / 1024.0;
}

/**
 * Runs fn(i) for i in [0, n) on `threads` host threads (the output
 * checks, which run after the timed section). The first exception is
 * rethrown after every thread has joined.
 */
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)> &fn);

/** Linear::forward throughput at dim x dim, GMAC/s, over ~`seconds`. */
double linear_gmacs(std::size_t dim, double seconds);

/** Metric-name suffix of a paper model: gin, gin_vn, gcn, gat, pna,
 * dgn. */
const char *model_key(flowgnn::ModelKind kind);

/** Means of the per-run unit statistics (RunStats) over many runs —
 * the core.* modeled per-layer metrics. */
struct CoreMeans {
    std::size_t runs = 0;
    double nt_util = 0.0;
    double mp_util = 0.0;
    double adapter_stall_cycles = 0.0;
    double mp_imbalance = 0.0;

    void add(const flowgnn::RunStats &stats);
    /** Publishes core.nt_util, core.mp_util,
     * core.adapter_stall_cycles and core.mp_imbalance. */
    void report(Results &out) const;
};

/** Prints one sample-count line for a latency list. */
void print_latency_line(const char *label, const std::vector<double> &ms);

void run_molhiv(const Args &args, Results &out);
void run_hep(const Args &args, Results &out);
void run_reddit(const Args &args, Results &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
