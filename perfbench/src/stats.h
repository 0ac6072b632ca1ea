/**
 * @file
 * The benchmark's statistics rules, kept apart from the workloads so
 * the self-test can pin them on synthetic data:
 *
 *  - percentiles are nearest-rank over every attempted operation, with
 *    refused and failed operations entered as +inf (a miss can never
 *    hide below the limit);
 *  - a tail percentile is only "resolved" when at least ten samples lie
 *    beyond it;
 *  - the open-loop ladder's acceptance rule: a rung meets the latency
 *    limit when nothing was refused or failed, the backlog did not grow
 *    and its p99 (chunked, see chunked_percentile) is within the limit;
 *    max rate is the highest such rung.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile, q in (0, 1]. Copies and sorts. Empty -> 0. */
double percentile(std::vector<double> values, double q);

/** Median of the values (nearest-rank p50). */
inline double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

/**
 * Robust throughput: the sorted completion times (seconds from the
 * window's start) are cut into consecutive blocks of `block`
 * completions; each block's rate is `block` over the time from the
 * previous block's last completion to its own, and the result is the
 * median block rate. Short bursts of host contention move the median
 * far less than the mean. Fewer than `block` completions fall back to
 * count / time of the last completion.
 */
double median_block_rate(const std::vector<double> &done_s,
                         std::size_t block);

/**
 * Transient-robust tail percentile: the values, in the order they were
 * produced, are cut into `parts` consecutive chunks of equal size and
 * the result is the median of the chunks' q-th percentiles. A host
 * stall shorter than one chunk inflates that chunk's tail only. With
 * fewer values than parts it is the plain percentile.
 */
double chunked_percentile(const std::vector<double> &values, double q,
                          std::size_t parts);

/** Chunks of the open-loop tail percentiles (driver.latency_p95_ms and the
 * ladder rule's p99). */
inline constexpr std::size_t kTailParts = 3;

/** Samples strictly beyond the q-th percentile of n samples. */
std::size_t samples_beyond(std::size_t n, double q);

/** The highest of p99.9/p99/p95/p90/p50 that has at least ten samples
 * beyond it; 0 when n < 20 (not even the median is resolved). */
double highest_resolved_percentile(std::size_t n);

/** Operation accounting: every attempt ends in exactly one bucket. */
struct Accounting {
    std::size_t attempted = 0;
    std::size_t succeeded = 0;
    std::size_t refused = 0; ///< admission said no (queue full)
    std::size_t failed = 0;  ///< accepted, then the run threw

    /** Attempts that did not produce a result. */
    std::size_t misses() const { return refused + failed; }
    bool balanced() const
    {
        return attempted == succeeded + refused + failed;
    }
    Accounting &operator+=(const Accounting &o);
};

/** One rung of an open-loop rate ladder. */
struct Rung {
    double rate_hz = 0.0;
    double window_s = 0.0;
    Accounting ops;
    /** Due -> completion-observed latency of every attempt, ms; refused
     * and failed attempts are kMiss. */
    std::vector<double> latency_ms;
    /** Operations still outstanding when the send window closed. */
    std::size_t backlog_at_close = 0;
};

/** Share of attempts completed within `limit_ms` (0 when none). */
double goodput(const Rung &rung, double limit_ms);

/**
 * Growing backlog: more operations in flight at the close of the send
 * window than the dies plus what Little's law allows at the limit
 * (rate x limit). A stable queue holds about rate x mean latency.
 */
bool backlog_growing(const Rung &rung, double limit_ms, std::size_t dies);

/** The rung's chunked p99 meets the limit with nothing refused or
 * failed and no growing backlog. */
bool rung_meets_limit(const Rung &rung, double limit_ms, std::size_t dies);

/**
 * The measured send rate (attempted / window) of the highest-rate rung
 * that meets the limit; 0 when none does. Measured rather than nominal
 * so the value carries the schedule's own Poisson variation.
 */
double max_rate_meeting_limit(const std::vector<Rung> &rungs,
                              double limit_ms, std::size_t dies);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
