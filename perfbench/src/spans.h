/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by
 * the benchmark around each public library call it makes (no tracing
 * inside the library): a name, start and end on the steady clock, the
 * parent span, and one id per graph or event that all spans of that
 * unit share. Nothing is written until the run ends.
 *
 * A recorder belongs to one thread; every workload records from its
 * single driver thread.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
    std::string name;
    std::uint64_t id = 0;   ///< graph / event / chain id
    std::int64_t parent = -1; ///< index into the recorder, -1 = root
    Clock::time_point start{};
    Clock::time_point end{};

    double ms() const { return ms_between(start, end); }
};

/** Aggregate of every span with one name. */
struct SpanSummary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0; ///< total minus the time children cover
};

class SpanRecorder
{
  public:
    /** Opens a span now; returns its index for end() and children. */
    std::int64_t begin(std::string name, std::uint64_t id,
                       std::int64_t parent = -1);
    void end(std::int64_t index);
    /** Records an already-closed span (e.g. an open-loop event timed
     * from its due time, which lies before the call that records it). */
    std::int64_t add(std::string name, std::uint64_t id,
                     std::int64_t parent, Clock::time_point start,
                     Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of span `index`: its duration minus the union of its
     * children's intervals clipped to it. */
    double self_ms(std::size_t index) const;
    std::map<std::string, SpanSummary> summarize() const;

    /** JSON array of spans, times in µs from the first span's start. */
    void write_json(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::vector<std::size_t>> children_;
};

/** RAII span that is a no-op without a recorder (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name, std::uint64_t id,
               std::int64_t parent = -1)
        : rec_(rec),
          index_(rec ? rec->begin(std::move(name), id, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return index_; }

  private:
    SpanRecorder *rec_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
