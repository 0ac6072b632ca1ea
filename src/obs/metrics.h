/**
 * @file
 * flowgnn::obs — the unified metrics registry: named counters, gauges,
 * and log-bucketed histograms shared by every subsystem, exportable as
 * JSON and as Prometheus text exposition.
 *
 * Design constraints, in order:
 *  - Hot-path updates are lock-free (relaxed atomics); registration is
 *    mutex-guarded and meant to happen once at wire-up time, after
 *    which call sites hold plain references.
 *  - Histograms are O(1) in memory regardless of sample count: a fixed
 *    array of geometric ("log") buckets. With accuracy parameter
 *    `alpha` the bucket ratio is gamma = (1 + alpha) / (1 - alpha) and
 *    every reported quantile is within relative error `alpha` of the
 *    exact sample quantile (the DDSketch bound: a bucket spans
 *    [g^i, g^(i+1)) and its representative is the geometric midpoint,
 *    so |reported - exact| / exact <= (sqrt(gamma) - 1) ≈ alpha).
 *    The default alpha = 0.01 keeps p50/p95/p99 within 1% over the
 *    full service lifetime — strictly better than the bounded
 *    most-recent-window rings it replaced, which were exact over the
 *    window but blind to everything before it.
 *  - Everything is mergeable: snapshots subtract (delta semantics) and
 *    histograms add bucket-wise, so per-replica or per-process
 *    registries can be combined without losing quantile accuracy.
 *
 * Naming scheme (see docs/DESIGN.md "Observability"): metric names are
 * dot-separated `<subsystem>.<noun>[_<unit>]`, e.g. `pool.latency_ms`,
 * `pool.queue_delay_ms`, `io.bytes_mapped`. Prometheus export rewrites
 * dots to underscores and prefixes `flowgnn_`.
 */
#ifndef FLOWGNN_OBS_METRICS_H
#define FLOWGNN_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sync.h"

namespace flowgnn {
namespace obs {

/** Monotonic event count. Lock-free; relaxed memory order (telemetry
 * never orders data). */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value (queue depth, RSS, occupancy). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double v)
    {
        value_.fetch_add(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Read-only copy of a histogram's state at one instant. */
struct HistogramSnapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; ///< exact observed minimum (0 when count == 0)
    double max = 0.0; ///< exact observed maximum
    double alpha = 0.0;       ///< relative quantile-error bound
    double bucket_floor = 0.0; ///< values below clamp to bucket 0
    double gamma = 1.0;        ///< bucket boundary ratio
    std::vector<std::uint64_t> buckets;

    /**
     * Nearest-rank quantile estimate, q in [0, 1]. Within relative
     * error `alpha` of the exact sample quantile for values in
     * [bucket_floor, bucket_floor * gamma^buckets]; values at or below
     * the floor report the floor. Returns 0 when empty.
     */
    double quantile(double q) const;

    double
    mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /** Bucket-wise difference vs an earlier snapshot of the same
     * histogram (count/sum/buckets subtract; min/max stay absolute —
     * extremes are not invertible from a delta). */
    HistogramSnapshot delta(const HistogramSnapshot &earlier) const;

    /** Bucket-wise sum with a snapshot of an identically-configured
     * histogram (merging per-replica registries). */
    HistogramSnapshot merge(const HistogramSnapshot &other) const;
};

/**
 * Log-bucketed histogram: O(1) memory, lock-free record(), mergeable.
 * Covers [bucket_floor, bucket_floor * gamma^N) with N =
 * ceil(log(range) / log(gamma)) buckets; out-of-range values clamp to
 * the end buckets (their counts stay exact, their value error grows).
 * Defaults cover 1e-6 .. 1e9 — nine decades above a microsecond, wide
 * enough for ns-to-hours latencies in ms units.
 */
class Histogram
{
  public:
    explicit Histogram(double alpha = 0.01, double floor = 1e-6,
                       double ceiling = 1e9);

    /** Records one sample. Lock-free: one relaxed fetch_add per
     * bucket/count/sum plus two bounded CAS loops for min/max. */
    void record(double v);

    HistogramSnapshot snapshot() const;

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double alpha() const { return alpha_; }

  private:
    std::size_t bucket_index(double v) const;

    double alpha_;
    double floor_;
    double gamma_;
    double inv_log_gamma_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/** A deterministic copy of every metric in a registry at one instant:
 * iteration order is sorted by name, so two snapshots of identical
 * state serialize byte-identically. */
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Counter/histogram difference vs an earlier snapshot (gauges
     * stay at their current values — they are not cumulative). */
    MetricsSnapshot delta(const MetricsSnapshot &earlier) const;

    /** JSON object: {"counters": {...}, "gauges": {...},
     * "histograms": {name: {count, sum, min, max, mean, p50, p90,
     * p95, p99}}}, keys sorted. */
    void write_json(std::ostream &os) const;

    /** Prometheus text exposition: counters and gauges verbatim,
     * histograms as summaries (quantile labels + _sum/_count) plus
     * _min/_max gauges. Names are prefixed `flowgnn_` with dots
     * rewritten to underscores. */
    void write_prometheus(std::ostream &os) const;
};

/**
 * Named metric registry. register-once / update-forever: counter(),
 * gauge(), and histogram() return a stable reference (creating the
 * metric on first use, mutex-guarded); updates through the reference
 * are lock-free. Requesting an existing name as a different metric
 * type throws std::logic_error.
 *
 * Sharing: subsystems accept a std::shared_ptr<MetricsRegistry> in
 * their configs and default to a private one; pass the same registry
 * to every subsystem to get one process-wide export surface (metric
 * names are disjoint per subsystem by the naming scheme; two
 * *instances* of the same subsystem sharing a registry aggregate into
 * the same metrics, which is the Prometheus-style intent).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name, double alpha = 0.01);

    MetricsSnapshot snapshot() const;

    /** The process-wide default registry (CLI tools and benches). */
    static const std::shared_ptr<MetricsRegistry> &global();

  private:
    struct Entry {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable Mutex mutex_; ///< guards the map, not the metrics
    std::map<std::string, Entry> metrics_ FLOWGNN_GUARDED_BY(mutex_);
};

} // namespace obs
} // namespace flowgnn

#endif // FLOWGNN_OBS_METRICS_H
