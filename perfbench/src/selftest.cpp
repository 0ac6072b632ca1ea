/**
 * @file
 * The benchmark's own unit tests: the percentile and sample-count rule,
 * failure counting, the ladder / latency-limit rule on synthetic
 * latency lists, and span self times. Exits non-zero on the first
 * failure. Run with `python3 perfbench/run.py --selftest`, which also
 * runs the two-invocation determinism check.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "spans.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest line %d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(double(i)); // unsorted on purpose
    return v;
}

void
test_percentiles()
{
    // Nearest rank over 1..100: p50 = 50, p99 = 99, p100 = 100.
    const std::vector<double> v = ramp(100);
    EXPECT(percentile(v, 0.5) == 50.0);
    EXPECT(percentile(v, 0.99) == 99.0);
    EXPECT(percentile(v, 1.0) == 100.0);
    EXPECT(percentile({}, 0.5) == 0.0);
    EXPECT(percentile({7.0}, 0.99) == 7.0);
    // A miss sorts last: one refusal in 100 is the p100, not the p99.
    std::vector<double> with_miss = ramp(99);
    with_miss.push_back(kMiss);
    EXPECT(percentile(with_miss, 0.99) == 99.0);
    EXPECT(percentile(with_miss, 1.0) == kMiss);
    // Two misses in 100 reach the p99.
    with_miss[0] = kMiss;
    EXPECT(percentile(with_miss, 0.99) == kMiss);
}

void
test_chunked_percentile()
{
    // 300 samples of 10 ms; a stall in the middle third adds five of
    // 500 ms. The plain p99 sees the stall, the chunked p99 does not.
    std::vector<double> v(300, 10.0);
    for (int i = 0; i < 5; ++i)
        v[120 + i] = 500.0;
    EXPECT(percentile(v, 0.99) == 500.0);
    EXPECT(chunked_percentile(v, 0.99, 3) == 10.0);
    // A tail present in every chunk is kept.
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < 5; ++i)
            v[c * 100 + i] = 500.0;
    EXPECT(chunked_percentile(v, 0.99, 3) == 500.0);
    // Too few values, or one part: the plain percentile.
    EXPECT(chunked_percentile({1.0, 2.0}, 0.5, 3) == 1.0);
    EXPECT(chunked_percentile(v, 0.99, 1) == percentile(v, 0.99));
    // Misses sort last inside their chunk.
    std::vector<double> miss(90, 5.0);
    miss[10] = miss[40] = miss[70] = kMiss;
    EXPECT(chunked_percentile(miss, 0.99, 3) == kMiss);
}

void
test_block_rate()
{
    // 10 completions per second for 4 s, then a burst of 40 in the
    // fifth second: the mean rate is 16/s, the median block rate stays
    // 10/s with blocks of 10.
    std::vector<double> done;
    for (int i = 1; i <= 40; ++i)
        done.push_back(i / 10.0);
    for (int i = 1; i <= 40; ++i)
        done.push_back(4.0 + i / 40.0);
    EXPECT(near(median_block_rate(done, 10), 10.0));
    // A trailing partial block is ignored.
    done.push_back(5.5);
    EXPECT(near(median_block_rate(done, 10), 10.0));
    // Fewer completions than one block: count / last completion.
    EXPECT(near(median_block_rate({0.1, 0.5}, 10), 4.0));
    EXPECT(median_block_rate({}, 10) == 0.0);
}

void
test_sample_count_rule()
{
    EXPECT(samples_beyond(1000, 0.99) == 10);
    EXPECT(samples_beyond(999, 0.99) == 9);
    EXPECT(samples_beyond(100, 0.5) == 50);
    EXPECT(highest_resolved_percentile(10000) == 0.999);
    EXPECT(highest_resolved_percentile(1000) == 0.99);
    EXPECT(highest_resolved_percentile(999) == 0.95);
    EXPECT(highest_resolved_percentile(200) == 0.95);
    EXPECT(highest_resolved_percentile(100) == 0.9);
    EXPECT(highest_resolved_percentile(20) == 0.5);
    EXPECT(highest_resolved_percentile(19) == 0.0);
}

void
test_failure_counting()
{
    Accounting a;
    a.attempted = 10;
    a.succeeded = 7;
    a.refused = 2;
    a.failed = 1;
    EXPECT(a.balanced());
    EXPECT(a.misses() == 3);
    Accounting b;
    b.attempted = 5;
    b.succeeded = 5;
    a += b;
    EXPECT(a.attempted == 15 && a.succeeded == 12 && a.misses() == 3);
    EXPECT(a.balanced());
    b.succeeded = 4; // one attempt lost track of
    EXPECT(!b.balanced());

    // Refused and failed attempts count against goodput.
    Rung r;
    r.rate_hz = 100;
    r.ops = {4, 2, 1, 1};
    r.latency_ms = {5.0, 50.0, kMiss, kMiss};
    EXPECT(goodput(r, 10.0) == 0.25);
    EXPECT(goodput(r, 100.0) == 0.5);
    Rung empty;
    EXPECT(goodput(empty, 10.0) == 0.0);
}

Rung
synthetic_rung(double rate, std::size_t n, double base_ms, double tail_ms,
               std::size_t tail_count)
{
    Rung r;
    r.rate_hz = rate;
    r.window_s = double(n) / rate;
    // Tail samples spread evenly over the rung, as a steady tail is.
    r.latency_ms.assign(n, base_ms);
    for (std::size_t k = 0; k < tail_count; ++k)
        r.latency_ms[k * n / tail_count] = tail_ms;
    r.ops.attempted = n;
    r.ops.succeeded = n;
    return r;
}

void
test_ladder_rule()
{
    const double limit = 50.0;
    const std::size_t dies = 3;
    // Three healthy rungs: max rate is the top one.
    std::vector<Rung> ladder = {synthetic_rung(80, 1000, 10, 30, 5),
                                synthetic_rung(120, 1000, 12, 40, 9),
                                synthetic_rung(160, 1000, 15, 45, 10)};
    EXPECT(near(max_rate_meeting_limit(ladder, limit, dies), 160.0));

    // Top rung's tail crosses the limit: 11 of 1000 over -> p99 over.
    ladder[2] = synthetic_rung(160, 1000, 15, 70, 11);
    EXPECT(!rung_meets_limit(ladder[2], limit, dies));
    EXPECT(near(max_rate_meeting_limit(ladder, limit, dies), 120.0));
    // Exactly 10 of 1000 over stays within p99.
    ladder[2] = synthetic_rung(160, 1000, 15, 70, 10);
    EXPECT(rung_meets_limit(ladder[2], limit, dies));

    // A single refusal disqualifies a rung even with a tiny p99.
    Rung refused = synthetic_rung(160, 1000, 5, 5, 0);
    refused.ops.succeeded = 999;
    refused.ops.refused = 1;
    refused.latency_ms[0] = kMiss;
    EXPECT(!rung_meets_limit(refused, limit, dies));
    // So does a failure.
    Rung failed = refused;
    failed.ops.refused = 0;
    failed.ops.failed = 1;
    EXPECT(!rung_meets_limit(failed, limit, dies));

    // Growing backlog: allowed in flight = dies + rate * limit
    // = 3 + 160 * 0.05 = 11.
    Rung backlog = synthetic_rung(160, 1000, 5, 5, 0);
    backlog.backlog_at_close = 11;
    EXPECT(!backlog_growing(backlog, limit, dies));
    EXPECT(rung_meets_limit(backlog, limit, dies));
    backlog.backlog_at_close = 12;
    EXPECT(backlog_growing(backlog, limit, dies));
    EXPECT(!rung_meets_limit(backlog, limit, dies));

    // No rung meets the limit: max rate 0. Rung order does not matter.
    std::vector<Rung> bad = {backlog, refused};
    EXPECT(near(max_rate_meeting_limit(bad, limit, dies), 0.0));
    std::vector<Rung> unordered = {synthetic_rung(160, 500, 5, 5, 0),
                                   synthetic_rung(80, 500, 5, 5, 0)};
    EXPECT(near(max_rate_meeting_limit(unordered, limit, dies), 160.0));
    Rung nothing;
    EXPECT(!rung_meets_limit(nothing, limit, dies));
    // The reported rate is the rung's measured send rate: a 100 Hz rung
    // that drew 95 Poisson arrivals in its 1 s window reads 95/s.
    std::vector<Rung> drawn = {synthetic_rung(100, 95, 5, 5, 0)};
    drawn[0].window_s = 1.0;
    EXPECT(near(max_rate_meeting_limit(drawn, limit, dies), 95.0));
}

void
test_span_self_time()
{
    using std::chrono::milliseconds;
    SpanRecorder rec;
    const Clock::time_point t = Clock::now();
    const auto root = rec.add("chain", 1, -1, t, t + milliseconds(100));
    rec.add("a", 1, root, t + milliseconds(10), t + milliseconds(40));
    rec.add("b", 1, root, t + milliseconds(30), t + milliseconds(60));
    // Child running past its parent is clipped to the parent.
    rec.add("c", 1, root, t + milliseconds(90), t + milliseconds(120));
    // Covered: [10, 60) + [90, 100) = 60 ms -> self 40 ms.
    EXPECT(std::abs(rec.self_ms(0) - 40.0) < 1e-6);
    EXPECT(std::abs(rec.self_ms(1) - 30.0) < 1e-6);
    const auto sum = rec.summarize();
    EXPECT(sum.at("chain").count == 1);
    EXPECT(std::abs(sum.at("chain").self_ms - 40.0) < 1e-6);
    std::ostringstream os;
    rec.write_json(os);
    EXPECT(os.str().find("\"parent\": 0") != std::string::npos);
    bool threw = false;
    try {
        rec.add("orphan", 2, 99, t, t);
    } catch (const std::out_of_range &) {
        threw = true;
    }
    EXPECT(threw);
}

} // namespace

int
main()
{
    test_percentiles();
    test_chunked_percentile();
    test_block_rate();
    test_sample_count_rule();
    test_failure_counting();
    test_ladder_rule();
    test_span_self_time();
    if (failures) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
