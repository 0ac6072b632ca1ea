#include "spans.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

std::int64_t
SpanRecorder::begin(std::string name, std::uint64_t id, std::int64_t parent)
{
    const Clock::time_point now = Clock::now();
    return add(std::move(name), id, parent, now, now);
}

void
SpanRecorder::end(std::int64_t index)
{
    spans_.at(static_cast<std::size_t>(index)).end = Clock::now();
}

std::int64_t
SpanRecorder::add(std::string name, std::uint64_t id, std::int64_t parent,
                  Clock::time_point start, Clock::time_point end)
{
    if (parent >= static_cast<std::int64_t>(spans_.size()))
        throw std::out_of_range("SpanRecorder: unknown parent span");
    const auto index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{std::move(name), id, parent, start, end});
    children_.emplace_back();
    if (parent >= 0)
        children_[static_cast<std::size_t>(parent)].push_back(
            static_cast<std::size_t>(index));
    return index;
}

double
SpanRecorder::self_ms(std::size_t index) const
{
    const Span &s = spans_.at(index);
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (std::size_t c : children_[index]) {
        auto lo = std::max(spans_[c].start, s.start);
        auto hi = std::min(spans_[c].end, s.end);
        if (lo < hi)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto &[lo, hi] : cover) {
        const Clock::time_point from = std::max(lo, reach);
        if (hi > from) {
            covered += ms_between(from, hi);
            reach = hi;
        }
    }
    return s.ms() - covered;
}

std::map<std::string, SpanSummary>
SpanRecorder::summarize() const
{
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SpanSummary &sum = out[spans_[i].name];
        ++sum.count;
        sum.total_ms += spans_[i].ms();
        sum.self_ms += self_ms(i);
    }
    return out;
}

void
SpanRecorder::write_json(std::ostream &os) const
{
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    auto us = [&](Clock::time_point t) {
        return ms_between(origin, t) * 1e3;
    };
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"start_us\": "
           << us(s.start) << ", \"end_us\": " << us(s.end) << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

} // namespace perfbench
