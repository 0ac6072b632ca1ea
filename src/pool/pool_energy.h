/**
 * @file
 * flowgnn::pool — measured-occupancy energy for a scheduled trace.
 *
 * The Table VI scale-out model (perf/energy.h) charges idle power for
 * every die-millisecond a die is not computing; what that costs in
 * practice depends on the *schedule*, not just the per-run latency: a
 * gang policy that head-of-line blocks leaves dies idling that
 * space-share would have filled. This header closes the loop by
 * converting a schedule's per-die busy-cycle occupancy (from the
 * cycle-domain simulator, or any measured timeline) into the
 * die_busy_ms vector multi_die_energy prices, so policies can be
 * compared in millijoules as well as makespan. Dies an autoscaler
 * switched off (SimResult::active_timeline) are parked and draw
 * nothing: every die-cycle of the makespan is busy, idle (provisioned
 * but not computing) or parked.
 */
#ifndef FLOWGNN_POOL_POOL_ENERGY_H
#define FLOWGNN_POOL_POOL_ENERGY_H

#include <cstdint>

#include "perf/energy.h"
#include "pool/schedule_sim.h"

namespace flowgnn {

/**
 * Die-cycles the pool kept switched on: the integral of the active-die
 * cap over [0, makespan), or D x makespan for a static pool (empty
 * active_timeline).
 */
std::uint64_t provisioned_die_cycles(const SimResult &sched);

/**
 * Prices a simulated schedule with the multi-die energy model using
 * its exact per-die occupancy: die d is charged active power for
 * die_busy[d] cycles, and static power is charged on the provisioned
 * die time (provisioned_die_cycles) that is not busy.
 *
 * @param sched      outcome of simulate_pool_schedule
 * @param clock_mhz  engine clock used to convert cycles to wall time
 * @param link_words total inter-die exchange words moved by the
 *                   trace's jobs (0 for unsharded pools)
 * @param replication_factor average node copies across dies, owners
 *                   plus ghost fringes (1.0 for unsharded pools)
 * @param graph_nodes total nodes processed across the trace (scales
 *                   the ghost-storage term)
 * @param node_dim   feature width in words
 */
MultiDieEnergy pool_schedule_energy(const SimResult &sched,
                                    double clock_mhz,
                                    std::uint64_t link_words = 0,
                                    double replication_factor = 1.0,
                                    std::size_t graph_nodes = 0,
                                    std::size_t node_dim = 0);

} // namespace flowgnn

#endif // FLOWGNN_POOL_POOL_ENERGY_H
