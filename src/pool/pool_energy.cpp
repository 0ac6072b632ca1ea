#include "pool/pool_energy.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace flowgnn {

std::uint64_t
provisioned_die_cycles(const SimResult &sched)
{
    const auto &timeline = sched.active_timeline;
    if (timeline.empty())
        return sched.die_busy.size() * sched.makespan;
    std::uint64_t area = 0;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const std::uint64_t t0 = timeline[i].first;
        const std::uint64_t t1 = i + 1 < timeline.size()
            ? timeline[i + 1].first
            : sched.makespan;
        if (t1 > t0)
            area += timeline[i].second * (t1 - t0);
    }
    return area;
}

MultiDieEnergy
pool_schedule_energy(const SimResult &sched, double clock_mhz,
                     std::uint64_t link_words,
                     double replication_factor,
                     std::size_t graph_nodes, std::size_t node_dim)
{
    if (clock_mhz <= 0.0)
        throw std::invalid_argument(
            "pool_schedule_energy: clock must be positive");
    if (sched.die_busy.empty())
        throw std::invalid_argument(
            "pool_schedule_energy: schedule has no dies");
    const double cycles_per_ms = clock_mhz * 1e3;
    const double latency_ms =
        static_cast<double>(sched.makespan) / cycles_per_ms;
    std::vector<double> die_busy_ms;
    die_busy_ms.reserve(sched.die_busy.size());
    std::uint64_t busy = 0;
    for (std::uint64_t b : sched.die_busy) {
        die_busy_ms.push_back(static_cast<double>(b) / cycles_per_ms);
        busy += b;
    }
    MultiDieEnergy out = multi_die_energy(
        static_cast<std::uint32_t>(sched.die_busy.size()), latency_ms,
        link_words, replication_factor, graph_nodes, node_dim,
        die_busy_ms);
    if (sched.active_timeline.empty())
        return out; // static pool: every die provisioned throughout
    // Elastic pool: static draw only on provisioned, non-busy die time.
    // A gang wider than the autoscaler's target runs on dies above it,
    // so provisioned time never counts below busy time.
    const std::uint64_t idle =
        std::max(provisioned_die_cycles(sched), busy) - busy;
    out.idle_mj = platform_idle_power_w(Platform::kFpga) *
        static_cast<double>(idle) / cycles_per_ms;
    out.compute_mj = out.busy_mj + out.idle_mj;
    out.total_mj = out.compute_mj + out.link_mj + out.ghost_mj;
    out.graphs_per_kj = 1e6 / out.total_mj;
    return out;
}

} // namespace flowgnn
