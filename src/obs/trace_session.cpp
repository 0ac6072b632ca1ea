#include "obs/trace_session.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>

namespace flowgnn {
namespace obs {

namespace {

/** The installed session + an install generation. The generation lets
 * per-thread caches detect that "the same pointer" is actually a new
 * session (destroy + re-allocate at one address) without ever
 * dereferencing a stale pointer. */
std::atomic<TraceSession *> g_session{nullptr};
std::atomic<std::uint64_t> g_generation{0};

struct ThreadCache {
    TraceSession *session = nullptr;
    std::uint64_t generation = 0;
    void *buffer = nullptr;
};
thread_local ThreadCache t_cache;

} // namespace

const char *
track_name(Track track)
{
    switch (track) {
      case Track::kHost: return "host";
      case Track::kIo: return "io";
      case Track::kPool: return "pool";
      case Track::kShard: return "shard";
      case Track::kGhost: return "ghost";
      case Track::kEngine: return "engine (cycle domain)";
    }
    return "?";
}

TraceSession::TraceSession(TraceOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now())
{
    if (options_.buffer_capacity == 0)
        options_.buffer_capacity = 1;
}

TraceSession::~TraceSession() { uninstall(); }

void
TraceSession::install()
{
    g_session.store(this, std::memory_order_release);
    g_generation.fetch_add(1, std::memory_order_release);
}

void
TraceSession::uninstall()
{
    TraceSession *expected = this;
    if (g_session.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel))
        g_generation.fetch_add(1, std::memory_order_release);
}

TraceSession *
TraceSession::current()
{
    return g_session.load(std::memory_order_relaxed);
}

std::uint64_t
TraceSession::now_ns() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

TraceSession::ThreadBuffer &
TraceSession::buffer_for_this_thread()
{
    std::uint64_t gen = g_generation.load(std::memory_order_acquire);
    if (t_cache.session == this && t_cache.generation == gen &&
        t_cache.buffer)
        return *static_cast<ThreadBuffer *>(t_cache.buffer);

    MutexLock lock(&mutex_);
    buffers_.push_back(
        std::make_unique<ThreadBuffer>(options_.buffer_capacity));
    ThreadBuffer &buf = *buffers_.back();
    buf.tid = next_tid_++;
    t_cache = {this, gen, &buf};
    return buf;
}

void
TraceSession::push(ThreadBuffer &buf, Track track, std::uint32_t tid,
                   std::uint8_t kind, std::string_view name,
                   std::uint64_t start_ns, std::uint64_t end_ns)
{
    std::size_t idx = buf.published.load(std::memory_order_relaxed);
    if (idx >= buf.records.size()) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Record &r = buf.records[idx];
    r.start_ns = start_ns;
    r.end_ns = end_ns;
    r.tid = tid;
    r.track = track;
    r.kind = kind;
    std::size_t n = std::min(name.size(), sizeof(r.name) - 1);
    std::memcpy(r.name, name.data(), n);
    r.name[n] = '\0';
    // Publish after the slot is fully written: the exporter's acquire
    // read of `published` then sees a complete record. Slots below the
    // published count are never rewritten, so concurrent export is
    // race-free.
    buf.published.store(idx + 1, std::memory_order_release);
}

void
TraceSession::span(Track track, std::string_view name,
                   std::uint64_t start_ns, std::uint64_t end_ns)
{
    ThreadBuffer &buf = buffer_for_this_thread();
    push(buf, track, buf.tid, 0, name, start_ns, end_ns);
}

void
TraceSession::span_on(Track track, std::uint32_t tid,
                      std::string_view name, std::uint64_t start_ns,
                      std::uint64_t end_ns)
{
    push(buffer_for_this_thread(), track, tid, 0, name, start_ns,
         end_ns);
}

void
TraceSession::counter(Track track, std::string_view name, double value)
{
    ThreadBuffer &buf = buffer_for_this_thread();
    push(buf, track, buf.tid, 1, name, now_ns(),
         std::bit_cast<std::uint64_t>(value));
}

void
TraceSession::name_thread(Track track, std::string_view name)
{
    ThreadBuffer &buf = buffer_for_this_thread();
    name_row(track, buf.tid, name);
}

void
TraceSession::name_row(Track track, std::uint32_t tid,
                       std::string_view name)
{
    MutexLock lock(&mutex_);
    row_names_[{static_cast<std::uint8_t>(track), tid}] =
        std::string(name);
}

void
TraceSession::add_cycle_trace(const std::vector<TraceEvent> &events,
                              const CycleClockMap &map,
                              std::uint32_t die)
{
    ThreadBuffer &buf = buffer_for_this_thread();
    std::set<std::pair<std::uint32_t, bool>> units_seen;
    char name[48];
    for (const TraceEvent &e : events) {
        const bool mp = e.kind == TraceKind::kMpWork;
        std::uint32_t tid = kExplicitTidBase + die * kUnitsPerDie +
                            (mp ? kMpRowOffset : 0) + e.unit;
        if (units_seen.insert({e.unit, mp}).second) {
            std::snprintf(name, sizeof name, "die %u \xc2\xb7 %s %u",
                          die, mp ? "MP" : "NT", e.unit);
            name_row(Track::kEngine, tid, name);
        }
        std::snprintf(name, sizeof name, "%s n%u",
                      trace_kind_name(e.kind), e.node);
        push(buf, Track::kEngine, tid, 0, name, map.to_ns(e.start),
             map.to_ns(e.end));
    }
}

void
TraceSession::write_chrome_trace(std::ostream &os) const
{
    // Snapshot the buffer list and row names; each buffer is then read
    // up to its published count (acquire), which is a consistent
    // prefix even if its owner thread keeps recording.
    std::vector<ThreadBuffer *> buffers;
    std::map<std::pair<std::uint8_t, std::uint32_t>, std::string> names;
    {
        MutexLock lock(&mutex_);
        buffers.reserve(buffers_.size());
        for (const auto &b : buffers_)
            buffers.push_back(b.get());
        names = row_names_;
    }

    // Which (track, tid) rows actually hold events, for metadata.
    std::set<std::uint8_t> tracks_used;
    std::set<std::pair<std::uint8_t, std::uint32_t>> rows_used;
    for (ThreadBuffer *buf : buffers) {
        std::size_t n = buf->published.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const Record &r = buf->records[i];
            tracks_used.insert(static_cast<std::uint8_t>(r.track));
            if (r.kind == 0)
                rows_used.insert(
                    {static_cast<std::uint8_t>(r.track), r.tid});
        }
    }

    os << "[\n";
    bool first = true;
    auto emit = [&](const std::string &line) {
        os << (first ? "  " : ",\n  ") << line;
        first = false;
    };

    // Process metadata: one row per subsystem, sorted by track id so
    // pool/shard/ghost read top-to-bottom in pipeline order.
    for (std::uint8_t t : tracks_used) {
        emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
             std::to_string(t) + ", \"args\": {\"name\": \"" +
             json_escape(std::string("flowgnn \xc2\xb7 ") +
                         track_name(static_cast<Track>(t))) +
             "\"}}");
        emit("{\"name\": \"process_sort_index\", \"ph\": \"M\", "
             "\"pid\": " +
             std::to_string(t) + ", \"args\": {\"sort_index\": " +
             std::to_string(t) + "}}");
    }
    for (const auto &row : rows_used) {
        auto it = names.find(row);
        std::string label = it != names.end()
                                ? it->second
                                : "thread " + std::to_string(row.second);
        emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
             std::to_string(row.first) +
             ", \"tid\": " + std::to_string(row.second) +
             ", \"args\": {\"name\": \"" + json_escape(label) + "\"}}");
    }

    char buf_line[512];
    for (ThreadBuffer *buf : buffers) {
        std::size_t n = buf->published.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const Record &r = buf->records[i];
            const int pid = static_cast<int>(r.track);
            if (r.kind == 0) {
                std::uint64_t dur =
                    r.end_ns > r.start_ns ? r.end_ns - r.start_ns : 0;
                std::snprintf(
                    buf_line, sizeof buf_line,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                    "\"X\", \"pid\": %d, \"tid\": %u, \"ts\": %.3f, "
                    "\"dur\": %.3f}",
                    json_escape(r.name).c_str(),
                    track_name(r.track),
                    pid, r.tid,
                    static_cast<double>(r.start_ns) / 1e3,
                    static_cast<double>(dur) / 1e3);
            } else {
                std::snprintf(
                    buf_line, sizeof buf_line,
                    "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": %d, "
                    "\"tid\": %u, \"ts\": %.3f, \"args\": "
                    "{\"value\": %.6g}}",
                    json_escape(r.name).c_str(), pid, r.tid,
                    static_cast<double>(r.start_ns) / 1e3,
                    std::bit_cast<double>(r.end_ns));
            }
            emit(buf_line);
        }
    }
    os << "\n]\n";
}

std::size_t
TraceSession::recorded() const
{
    MutexLock lock(&mutex_);
    std::size_t total = 0;
    for (const auto &b : buffers_)
        total += b->published.load(std::memory_order_acquire);
    return total;
}

std::size_t
TraceSession::dropped() const
{
    MutexLock lock(&mutex_);
    std::size_t total = 0;
    for (const auto &b : buffers_)
        total += b->dropped.load(std::memory_order_relaxed);
    return total;
}

} // namespace obs
} // namespace flowgnn
