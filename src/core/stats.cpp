#include "core/stats.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

double
RunStats::observed_mp_imbalance() const
{
    if (mp_edge_work.empty())
        return 0.0;
    std::uint64_t total = 0;
    for (auto w : mp_edge_work)
        total += w;
    if (total == 0)
        return 0.0;
    auto [mn, mx] = std::minmax_element(mp_edge_work.begin(),
                                        mp_edge_work.end());
    return static_cast<double>(*mx - *mn) / static_cast<double>(total);
}

std::vector<double>
RunStats::die_utilizations() const
{
    std::vector<double> out(die_cycles.size(), 0.0);
    for (std::size_t d = 0; d < die_cycles.size(); ++d)
        out[d] = total_cycles == 0
            ? 0.0
            : static_cast<double>(die_cycles[d]) /
                  static_cast<double>(total_cycles);
    return out;
}

RunStats
compose_shard_stats(
    const std::vector<RunStats> &shards,
    const std::vector<std::vector<std::uint64_t>> &per_layer_comm,
    bool overlap_comm)
{
    if (shards.empty())
        throw std::invalid_argument(
            "compose_shard_stats: need at least one shard");
    if (per_layer_comm.size() != shards.size())
        throw std::invalid_argument(
            "compose_shard_stats: per_layer_comm size mismatch");

    RunStats out;
    out.clock_mhz = shards.front().clock_mhz;
    out.die_cycles.reserve(shards.size());
    std::uint32_t nt_offset = 0;
    std::uint32_t mp_offset = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const RunStats &sh = shards[s];
        const std::vector<std::uint64_t> &comm = per_layer_comm[s];
        // Die s's chain: its compute plus the exposed cost of every
        // boundary exchange (see the header for the two models).
        std::uint64_t die_comm = 0;
        std::uint64_t exposed = 0;
        for (std::size_t p = 0; p < comm.size(); ++p) {
            die_comm += comm[p];
            const std::uint64_t window =
                p < sh.phase_cycles.size() ? sh.phase_cycles[p] : 0;
            exposed += overlap_comm
                ? (comm[p] > window ? comm[p] - window : 0)
                : comm[p];
        }
        const std::uint64_t chain = sh.total_cycles + exposed;
        out.die_cycles.push_back(chain);
        out.total_cycles = std::max(out.total_cycles, chain);
        out.comm_cycles = std::max(out.comm_cycles, die_comm);
        if (comm.size() > out.layer_comm_cycles.size())
            out.layer_comm_cycles.resize(comm.size(), 0);
        for (std::size_t p = 0; p < comm.size(); ++p)
            out.layer_comm_cycles[p] =
                std::max(out.layer_comm_cycles[p], comm[p]);

        out.load_cycles = std::max(out.load_cycles, sh.load_cycles);
        out.head_cycles = std::max(out.head_cycles, sh.head_cycles);
        if (sh.phase_cycles.size() > out.phase_cycles.size())
            out.phase_cycles.resize(sh.phase_cycles.size(), 0);
        for (std::size_t p = 0; p < sh.phase_cycles.size(); ++p)
            out.phase_cycles[p] =
                std::max(out.phase_cycles[p], sh.phase_cycles[p]);
        out.nt_units.insert(out.nt_units.end(), sh.nt_units.begin(),
                            sh.nt_units.end());
        out.mp_units.insert(out.mp_units.end(), sh.mp_units.begin(),
                            sh.mp_units.end());
        out.mp_edge_work.insert(out.mp_edge_work.end(),
                                sh.mp_edge_work.begin(),
                                sh.mp_edge_work.end());
        out.adapter_stall_cycles += sh.adapter_stall_cycles;
        out.queue_peak_occupancy = std::max(out.queue_peak_occupancy,
                                            sh.queue_peak_occupancy);
        out.queue_total_pushes += sh.queue_total_pushes;
        for (TraceEvent ev : sh.trace) {
            ev.unit += ev.kind == TraceKind::kMpWork ? mp_offset
                                                     : nt_offset;
            out.trace.push_back(ev);
        }
        nt_offset += static_cast<std::uint32_t>(sh.nt_units.size());
        mp_offset += static_cast<std::uint32_t>(sh.mp_units.size());
    }
    return out;
}

} // namespace flowgnn
