#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, values.size() - 1);
    return values[idx];
}

double
chunked_percentile(const std::vector<double> &values, double q,
                   std::size_t parts)
{
    if (parts <= 1 || values.size() < parts)
        return percentile(values, q);
    std::vector<double> tails;
    for (std::size_t p = 0; p < parts; ++p) {
        const auto lo = values.begin() +
                        static_cast<std::ptrdiff_t>(p * values.size() / parts);
        const auto hi =
            values.begin() +
            static_cast<std::ptrdiff_t>((p + 1) * values.size() / parts);
        tails.push_back(percentile(std::vector<double>(lo, hi), q));
    }
    return median(tails);
}

double
median_block_rate(const std::vector<double> &done_s, std::size_t block)
{
    if (done_s.empty() || block == 0)
        return 0.0;
    if (done_s.size() < block)
        return done_s.back() > 0.0
                   ? static_cast<double>(done_s.size()) / done_s.back()
                   : 0.0;
    std::vector<double> rates;
    double prev = 0.0;
    for (std::size_t end = block; end <= done_s.size(); end += block) {
        const double t = done_s[end - 1];
        if (t > prev)
            rates.push_back(static_cast<double>(block) / (t - prev));
        prev = t;
    }
    return median(rates);
}

std::size_t
samples_beyond(std::size_t n, double q)
{
    const double rank = std::ceil(q * static_cast<double>(n));
    const std::size_t at = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
    return n > at ? n - at : 0;
}

double
highest_resolved_percentile(std::size_t n)
{
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.5})
        if (samples_beyond(n, q) >= 10)
            return q;
    return 0.0;
}

Accounting &
Accounting::operator+=(const Accounting &o)
{
    attempted += o.attempted;
    succeeded += o.succeeded;
    refused += o.refused;
    failed += o.failed;
    return *this;
}

double
goodput(const Rung &rung, double limit_ms)
{
    if (rung.ops.attempted == 0)
        return 0.0;
    const auto within = std::count_if(
        rung.latency_ms.begin(), rung.latency_ms.end(),
        [&](double ms) { return ms <= limit_ms; });
    return static_cast<double>(within) /
           static_cast<double>(rung.ops.attempted);
}

bool
backlog_growing(const Rung &rung, double limit_ms, std::size_t dies)
{
    const double allowed =
        static_cast<double>(dies) + rung.rate_hz * limit_ms / 1e3;
    return static_cast<double>(rung.backlog_at_close) > allowed;
}

bool
rung_meets_limit(const Rung &rung, double limit_ms, std::size_t dies)
{
    return rung.ops.attempted > 0 && rung.ops.misses() == 0 &&
           !backlog_growing(rung, limit_ms, dies) &&
           chunked_percentile(rung.latency_ms, 0.99, kTailParts) <= limit_ms;
}

double
max_rate_meeting_limit(const std::vector<Rung> &rungs, double limit_ms,
                       std::size_t dies)
{
    const Rung *best = nullptr;
    for (const Rung &r : rungs)
        if (rung_meets_limit(r, limit_ms, dies) &&
            (!best || r.rate_hz > best->rate_hz))
            best = &r;
    if (!best || best->window_s <= 0.0)
        return 0.0;
    return static_cast<double>(best->ops.attempted) / best->window_s;
}

} // namespace perfbench
