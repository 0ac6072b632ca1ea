/** @file flowgnn::obs tests: histogram quantile error, registry
 * snapshot/delta/merge semantics, span recording across threads,
 * cycle->us mapping, and Chrome-trace JSON round-trip through a real
 * parser. The concurrent tests double as the TSan proof that
 * lock-free recording + live export is race-free. */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage_profile.h"
#include "obs/trace_session.h"

namespace flowgnn {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser (objects/arrays/strings/numbers/bools/null),
// just enough to prove exported documents parse. Throws on malformed
// input; parsed values are discarded — structure is the assertion.

struct JsonParser {
    const std::string &s;
    std::size_t i = 0;

    explicit JsonParser(const std::string &text) : s(text) {}

    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error(std::string("JSON error at ") +
                                 std::to_string(i) + ": " + what);
    }

    void
    ws()
    {
        while (i < s.size() && std::isspace(
                                   static_cast<unsigned char>(s[i])))
            ++i;
    }

    char
    peek()
    {
        ws();
        if (i >= s.size())
            fail("unexpected end");
        return s[i];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++i;
    }

    void
    value()
    {
        switch (peek()) {
          case '{': object(); break;
          case '[': array(); break;
          case '"': string(); break;
          case 't': literal("true"); break;
          case 'f': literal("false"); break;
          case 'n': literal("null"); break;
          default: number(); break;
        }
    }

    void
    literal(const char *lit)
    {
        for (const char *p = lit; *p; ++p, ++i)
            if (i >= s.size() || s[i] != *p)
                fail("bad literal");
    }

    void
    number()
    {
        std::size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '-' || s[i] == '+'))
            ++i;
        if (i == start)
            fail("bad number");
    }

    void
    string()
    {
        expect('"');
        while (i < s.size() && s[i] != '"') {
            if (static_cast<unsigned char>(s[i]) < 0x20)
                fail("unescaped control character");
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    fail("dangling escape");
                char e = s[i];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k)
                        if (++i >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[i])))
                            fail("bad \\u escape");
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    fail("bad escape");
                }
            }
            ++i;
        }
        expect('"');
    }

    void
    object()
    {
        expect('{');
        if (peek() == '}') {
            ++i;
            return;
        }
        for (;;) {
            string();
            expect(':');
            value();
            if (peek() == ',') {
                ++i;
                continue;
            }
            expect('}');
            return;
        }
    }

    std::size_t
    array()
    {
        expect('[');
        std::size_t n = 0;
        if (peek() == ']') {
            ++i;
            return n;
        }
        for (;;) {
            value();
            ++n;
            if (peek() == ',') {
                ++i;
                continue;
            }
            expect(']');
            return n;
        }
    }

    /** Parses one complete document and requires only whitespace
     * after it. Returns array element count (0 for non-arrays). */
    std::size_t
    document()
    {
        std::size_t n = peek() == '[' ? array() : (value(), 0);
        ws();
        if (i != s.size())
            fail("trailing garbage");
        return n;
    }
};

// ---------------------------------------------------------------------------
// Histogram

TEST(ObsHistogram, QuantilesWithinAlphaOfExact)
{
    const double alpha = 0.01;
    Histogram h(alpha);
    // Geometric ramp spanning four decades: adjacent samples are
    // 0.1% apart, so rank-convention slop is negligible next to the
    // alpha bucket bound under test.
    std::vector<double> exact;
    for (int i = 0; i < 10000; ++i) {
        double v = 0.1 * std::pow(1.001, i); // 0.1 .. ~2200
        h.record(v);
        exact.push_back(v);
    }
    HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, exact.size());
    for (double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(exact.size())));
        const double truth = exact[rank == 0 ? 0 : rank - 1];
        const double got = s.quantile(q);
        // The header's bound: relative error <= sqrt(gamma)-1 ~ alpha.
        EXPECT_NEAR(got, truth, truth * 1.5 * alpha) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(s.min, exact.front());
    EXPECT_DOUBLE_EQ(s.max, exact.back());
    EXPECT_NEAR(s.mean(), s.sum / static_cast<double>(s.count), 1e-12);
}

TEST(ObsHistogram, EmptyAndOutOfRangeValues)
{
    Histogram h;
    HistogramSnapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.min, 0.0);
    EXPECT_EQ(empty.max, 0.0);

    // Below-floor, zero, negative, and absurdly large values must all
    // land in a bucket rather than crash or be dropped.
    h.record(0.0);
    h.record(-5.0);
    h.record(1e-300);
    h.record(1e300);
    EXPECT_EQ(h.snapshot().count, 4u);
}

TEST(ObsHistogram, ConcurrentRecordersLoseNothing)
{
    Histogram h;
    constexpr int kThreads = 4, kPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(0.5 + t + i * 1e-4);
        });
    for (auto &th : threads)
        th.join();
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, std::uint64_t(kThreads) * kPerThread);
    std::uint64_t bucketed = 0;
    for (std::uint64_t b : s.buckets)
        bucketed += b;
    EXPECT_EQ(bucketed, s.count);
}

TEST(ObsHistogram, DeltaAndMerge)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(i);
    HistogramSnapshot early = h.snapshot();
    for (int i = 101; i <= 200; ++i)
        h.record(i);
    HistogramSnapshot late = h.snapshot();

    HistogramSnapshot d = late.delta(early);
    EXPECT_EQ(d.count, 100u);
    EXPECT_NEAR(d.sum, late.sum - early.sum, 1e-9);
    // The delta window holds 101..200, so its median is ~150.
    EXPECT_NEAR(d.quantile(0.5), 150.0, 150.0 * 0.03);

    HistogramSnapshot m = early.merge(d);
    EXPECT_EQ(m.count, late.count);
    EXPECT_NEAR(m.quantile(0.5), late.quantile(0.5), 1e-9);
}

// ---------------------------------------------------------------------------
// Registry

TEST(ObsRegistry, SnapshotsAreDeterministic)
{
    MetricsRegistry reg;
    reg.counter("serve.requests_total").add(7);
    reg.gauge("pool.busy_dies").set(3.0);
    reg.histogram("serve.latency_ms").record(12.5);

    std::ostringstream a, b;
    reg.snapshot().write_json(a);
    reg.snapshot().write_json(b);
    EXPECT_EQ(a.str(), b.str()); // unchanged registry, identical text
    JsonParser(a.str()).document();

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("serve.requests_total"), 7u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("pool.busy_dies"), 3.0);
    EXPECT_EQ(snap.histograms.at("serve.latency_ms").count, 1u);
}

TEST(ObsRegistry, DeltaSubtractsEarlierSnapshot)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("jobs");
    c.add(5);
    MetricsSnapshot early = reg.snapshot();
    c.add(3);
    MetricsSnapshot d = reg.snapshot().delta(early);
    EXPECT_EQ(d.counters.at("jobs"), 3u);
}

TEST(ObsRegistry, DeltaIsTheAutoscalerInputContract)
{
    // The pool autoscaler consumes snapshot().delta(prev) windows, so
    // the delta semantics are load-bearing: counters subtract (and a
    // quiet window reads 0), gauges keep their last value (they are
    // levels, not flows), and a histogram delta reproduces only the
    // window's samples — quantiles on a known ramp included.
    MetricsRegistry reg;
    Counter &jobs = reg.counter("pool.jobs_total");
    Gauge &busy = reg.gauge("pool.busy_dies");
    Histogram &delay = reg.histogram("pool.queue_delay_ms");

    jobs.add(10);
    busy.set(4.0);
    for (int v = 1; v <= 100; ++v)
        delay.record(v); // ramp 1..100 before the window
    MetricsSnapshot early = reg.snapshot();

    // Counter monotonicity across the window: the delta is exactly
    // the in-window increment, never negative.
    jobs.add(7);
    busy.set(1.0); // level drops: delta must report the NEW level
    for (int v = 101; v <= 200; ++v)
        delay.record(v); // in-window ramp 101..200
    MetricsSnapshot late = reg.snapshot();
    ASSERT_GE(late.counters.at("pool.jobs_total"),
              early.counters.at("pool.jobs_total"))
        << "counters are monotone between snapshots";

    MetricsSnapshot d = late.delta(early);
    EXPECT_EQ(d.counters.at("pool.jobs_total"), 7u);
    EXPECT_DOUBLE_EQ(d.gauges.at("pool.busy_dies"), 1.0)
        << "gauge delta is last-value, not a difference";

    const HistogramSnapshot &h = d.histograms.at("pool.queue_delay_ms");
    EXPECT_EQ(h.count, 100u) << "only the window's samples remain";
    // Nearest-rank quantiles of the in-window ramp 101..200, within
    // the sketch's relative-error bound alpha.
    EXPECT_NEAR(h.quantile(0.5), 150.0, 150.0 * 2 * h.alpha);
    EXPECT_NEAR(h.quantile(0.99), 199.0, 199.0 * 2 * h.alpha);
    EXPECT_GE(h.quantile(0.0), 101.0 * (1.0 - 2 * h.alpha));
    EXPECT_LE(h.quantile(1.0), 200.0 * (1.0 + 2 * h.alpha));

    // A quiet window: zero deltas, empty histogram window.
    MetricsSnapshot quiet = reg.snapshot().delta(late);
    EXPECT_EQ(quiet.counters.at("pool.jobs_total"), 0u);
    EXPECT_EQ(quiet.histograms.at("pool.queue_delay_ms").count, 0u);
}

TEST(ObsRegistry, TypeConflictThrows)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
    EXPECT_NO_THROW(reg.counter("x")); // same type: same instance
}

TEST(ObsRegistry, PrometheusExport)
{
    MetricsRegistry reg;
    reg.counter("serve.requests_total").add(2);
    reg.histogram("serve.latency_ms").record(1.0);
    std::ostringstream os;
    reg.snapshot().write_prometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE flowgnn_serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("flowgnn_serve_requests_total 2"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE flowgnn_serve_latency_ms summary"),
              std::string::npos);
    EXPECT_NE(text.find("flowgnn_serve_latency_ms{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("flowgnn_serve_latency_ms_count 1"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceSession

TEST(ObsTrace, DisabledSessionRecordsNothing)
{
    ASSERT_EQ(TraceSession::current(), nullptr);
    { Span span(Track::kPool, "noop"); }
    TraceSession session;
    EXPECT_EQ(session.recorded(), 0u); // never installed
}

TEST(ObsTrace, SpansNestAndMergeAcrossThreads)
{
    TraceSession session;
    session.install();
    {
        Span outer(Track::kHost, "outer");
        { Span inner(Track::kHost, "inner"); }
    }
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            TraceSession *s = TraceSession::current();
            ASSERT_NE(s, nullptr);
            char nm[16];
            std::snprintf(nm, sizeof nm, "worker %d", t);
            s->name_thread(Track::kShard, nm);
            for (int i = 0; i < 100; ++i)
                Span(Track::kShard, "tick");
        });
    for (auto &th : threads)
        th.join();
    session.uninstall();

    EXPECT_EQ(session.recorded(), 2u + kThreads * 100u);
    EXPECT_EQ(session.dropped(), 0u);

    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    JsonParser parser(json);
    EXPECT_GT(parser.document(), 2u + kThreads * 100u); // + metadata
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"worker 3\""), std::string::npos);
    // Process label keeps its UTF-8 middle dot raw (json_escape only
    // escapes quotes, backslashes, and control characters).
    EXPECT_NE(json.find("flowgnn \xc2\xb7 shard"), std::string::npos);
}

TEST(ObsTrace, NamesAreJsonEscapedAndTruncated)
{
    TraceSession session;
    session.install();
    session.span(Track::kHost, "quote \" backslash \\ tab \t", 0, 10);
    session.span(Track::kHost,
                 std::string(200, 'x'), // far past the inline buffer
                 0, 10);
    session.uninstall();
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    JsonParser(json).document(); // must still parse
    EXPECT_NE(json.find("quote \\\" backslash \\\\ tab \\t"),
              std::string::npos);
}

TEST(ObsTrace, FullBufferDropsAndCounts)
{
    TraceSession session(TraceOptions{.buffer_capacity = 8});
    session.install();
    for (int i = 0; i < 20; ++i)
        session.span(Track::kHost, "s", i, i + 1);
    session.uninstall();
    EXPECT_EQ(session.recorded(), 8u);
    EXPECT_EQ(session.dropped(), 12u);
}

TEST(ObsTrace, GenerationGuardsAgainstStaleSessions)
{
    {
        TraceSession a;
        a.install();
        Span(Track::kHost, "in a");
        EXPECT_EQ(a.recorded(), 1u);
    } // destroyed (auto-uninstalls)
    TraceSession b;
    b.install();
    Span(Track::kHost, "in b");
    b.uninstall();
    EXPECT_EQ(b.recorded(), 1u); // not 2: a's record died with a
}

TEST(ObsTrace, CycleClockMapping)
{
    CycleClockMap map{1000, 250.0}; // 250 MHz: 1 cycle = 4 ns
    EXPECT_EQ(map.to_ns(0), 1000u);
    EXPECT_EQ(map.to_ns(1), 1004u);
    EXPECT_EQ(map.to_ns(250'000'000), 1'000'001'000u); // 1 s of cycles
}

TEST(ObsTrace, CycleTraceLandsOnEngineRows)
{
    TraceSession session;
    session.install();
    std::vector<TraceEvent> events = {
        {TraceKind::kNtAccumulate, 0, 7, 10, 20},
        {TraceKind::kMpWork, 1, 7, 15, 30},
    };
    session.add_cycle_trace(events, CycleClockMap{500, 500.0}, 2);
    session.uninstall();
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    JsonParser(json).document();
    // die 2, NT 0 -> tid 1000 + 2*200 + 0; MP 1 -> +100 + 1.
    EXPECT_NE(json.find("\"tid\": 1400"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 1501"), std::string::npos);
    // 500 MHz: cycle 10 -> 500 + 20 ns -> 0.520 us.
    EXPECT_NE(json.find("\"ts\": 0.520"), std::string::npos);
}

TEST(ObsTrace, ExportWhileRecordingIsConsistent)
{
    TraceSession session;
    session.install();
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed))
            Span(Track::kPool, "concurrent");
    });
    while (session.recorded() == 0) // writer actually running
        std::this_thread::yield();
    // Export repeatedly while the writer hammers its buffer; every
    // intermediate document must parse (and TSan must stay quiet).
    for (int round = 0; round < 20; ++round) {
        std::ostringstream os;
        session.write_chrome_trace(os);
        JsonParser(os.str()).document();
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    session.uninstall();
    EXPECT_GT(session.recorded(), 0u);
}

// ---------------------------------------------------------------------------
// StageProfiler / memory stats / sampler

TEST(ObsStageProfile, ReadsMemoryAndRecordsStages)
{
    MemoryStats m = read_memory_stats();
    EXPECT_GT(m.rss_kb, 0);
    EXPECT_GE(m.hwm_kb, m.rss_kb);

    auto registry = std::make_shared<MetricsRegistry>();
    StageProfiler profiler(registry);
    profiler.stage("alloc", [] {
        std::vector<double> sink(1 << 20);
        EXPECT_EQ(sink.size(), std::size_t(1) << 20);
    });
    profiler.stage("noop", [] {});
    ASSERT_EQ(profiler.stages().size(), 2u);
    EXPECT_EQ(profiler.stages()[0].name, "alloc");
    EXPECT_GT(profiler.stages()[0].rss_kb, 0);
    EXPECT_GE(profiler.total_seconds(),
              profiler.stages()[1].seconds);
    EXPECT_EQ(registry->snapshot()
                  .histograms.at("host.stage_seconds")
                  .count,
              2u);

    std::ostringstream os;
    profiler.write_json_array(os);
    JsonParser(os.str()).document();
}

TEST(ObsSampler, TicksGaugesAtLeastOnce)
{
    auto registry = std::make_shared<MetricsRegistry>();
    Sampler sampler(registry, std::chrono::milliseconds(1));
    sampler.add_rss_probe();
    sampler.add_probe("test.answer", Track::kHost,
                      [] { return 42.0; });
    sampler.start();
    sampler.stop(); // final tick guaranteed on stop
    MetricsSnapshot snap = registry->snapshot();
    EXPECT_GT(snap.gauges.at("host.rss_mb"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauges.at("test.answer"), 42.0);
}

TEST(ObsSampler, RestartAfterStopTicksAgain)
{
    // Pins the start() fix: stopping_ must be reset (under the mutex)
    // on every start, or the second cycle's thread exits immediately
    // without ever ticking the probes.
    auto registry = std::make_shared<MetricsRegistry>();
    int ticks = 0;
    Sampler sampler(registry, std::chrono::milliseconds(1));
    sampler.add_probe("test.ticks", Track::kHost,
                      [&] { return static_cast<double>(++ticks); });

    sampler.start();
    sampler.stop();
    int after_first = ticks;
    EXPECT_GE(after_first, 1);

    sampler.start();
    sampler.stop();
    EXPECT_GT(ticks, after_first)
        << "restarted sampler never ticked: stopping_ was not reset";
}

} // namespace
} // namespace obs
} // namespace flowgnn
