#include "pool/policy.h"

#include <algorithm>

namespace flowgnn {

const char *
pool_policy_name(PoolPolicy policy)
{
    switch (policy) {
      case PoolPolicy::kFifoGang: return "fifo-gang";
      case PoolPolicy::kSpaceShare: return "space-share";
      case PoolPolicy::kPriority: return "priority";
      case PoolPolicy::kEdf: return "edf";
    }
    return "unknown";
}

namespace {

constexpr std::size_t kNone = PolicyDecision::kNone;

/** Highest aged priority; strict > keeps FIFO order among ties. */
std::size_t
pick_priority(const PolicyRules &rules, const PolicyInput &in)
{
    std::size_t best = kNone;
    long best_eff = 0;
    for (std::size_t i = 0; i < in.queue.size(); ++i) {
        const QueuedJob &job = in.queue[i];
        long eff = job.priority;
        if (rules.aging > 0 && in.now > job.admit)
            eff += static_cast<long>((in.now - job.admit) / rules.aging);
        if (best == kNone || eff > best_eff) {
            best = i;
            best_eff = eff;
        }
    }
    return best;
}

/** Earliest deadline (strict <: ties FIFO), under the gang rule. */
std::size_t
pick_edf(const PolicyInput &in, std::size_t idle)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < in.queue.size(); ++i)
        if (in.queue[i].deadline < in.queue[best].deadline)
            best = i;
    const QueuedJob &job = in.queue[best];
    return job.started || idle >= job.remaining ? best : kNone;
}

/** FIFO gang with optional EASY backfill; fills the reservation. */
std::size_t
pick_fifo_gang(const PolicyRules &rules, const PolicyInput &in,
               std::size_t idle, PolicyDecision &out)
{
    std::size_t head = kNone;
    std::size_t extra = 0; // dies free at the reservation beyond the head
    for (std::size_t i = 0; i < in.queue.size(); ++i) {
        const QueuedJob &job = in.queue[i];
        // A started job's remaining tasks go first.
        if (job.started)
            return i;
        if (head == kNone) {
            if (idle >= job.remaining)
                return i;
            if (!rules.easy_backfill)
                return kNone; // head-of-line block
            head = i;
            continue; // scan on for a backfill candidate
        }
        if (job.remaining > idle)
            continue;
        if (out.reserved == kNone) {
            // The reservation: when the (width - idle)-th soonest
            // running finish frees the head's width. An unknown finish
            // anywhere means no proof, so no backfill at all.
            std::vector<Tick> fins;
            fins.reserve(in.running.size());
            for (const RunningTask &r : in.running) {
                if (r.finish == kNoTick)
                    return kNone;
                fins.push_back(r.finish);
            }
            const std::size_t need = in.queue[head].remaining - idle;
            if (fins.size() < need)
                return kNone;
            std::sort(fins.begin(), fins.end());
            out.reserved = head;
            out.reservation = fins[need - 1];
            const std::size_t freed = static_cast<std::size_t>(
                std::upper_bound(fins.begin(), fins.end(),
                                 out.reservation) -
                fins.begin());
            extra = idle + freed - in.queue[head].remaining;
        }
        // Either rule proves the head cannot be delayed: the job ends
        // by the reservation, or it fits in the extra dies.
        const bool ends_in_time = job.longest_task != kNoTick &&
            out.reservation >= in.now &&
            job.longest_task <= out.reservation - in.now;
        if (ends_in_time || job.remaining <= extra)
            return i;
    }
    return kNone;
}

/** Running tasks to evict for the urgent job, least urgent first. */
std::vector<std::size_t>
choose_victims(const PolicyRules &rules, const PolicyInput &in,
               std::size_t cap)
{
    std::vector<std::size_t> victims;
    const bool edf = rules.policy == PoolPolicy::kEdf;
    if (!rules.preemption ||
        (rules.policy != PoolPolicy::kPriority && !edf))
        return victims;
    if (in.running.size() < cap)
        return victims; // a die is (about to be) free; no need to evict
    const QueuedJob &urgent = in.queue[in.urgent];
    std::vector<std::size_t> order;
    for (std::size_t r = 0; r < in.running.size(); ++r)
        if (!in.running[r].yielding)
            order.push_back(r);
    auto less_urgent = [&](const RunningTask &a, const RunningTask &b) {
        return edf ? a.deadline > b.deadline : a.priority < b.priority;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return less_urgent(in.running[a], in.running[b]);
                     });
    // Each victim strictly less urgent than the newcomer, so
    // preemption can only shorten its wait; sorted, so the first one
    // that is not ends the scan.
    for (std::size_t r : order) {
        if (victims.size() == urgent.remaining)
            break;
        const RunningTask &v = in.running[r];
        const bool more_urgent = edf
            ? urgent.deadline < v.deadline
            : urgent.priority - v.priority >= rules.preempt_priority_gap;
        if (!more_urgent)
            break;
        victims.push_back(r);
    }
    return victims;
}

} // namespace

PolicyDecision
decide(const PolicyRules &rules, const PolicyInput &in)
{
    PolicyDecision out;
    std::size_t cap = in.target;
    for (const QueuedJob &job : in.queue)
        cap = std::max(cap, job.width);
    out.cap = std::min(cap, in.num_dies);
    if (in.urgent != kNone)
        out.victims = choose_victims(rules, in, out.cap);
    if (in.queue.empty() || in.running.size() >= out.cap)
        return out; // nothing pending, or scaled down: dies stay parked
    const std::size_t idle = out.cap - in.running.size();
    switch (rules.policy) {
      case PoolPolicy::kSpaceShare: out.pick = 0; break;
      case PoolPolicy::kPriority: out.pick = pick_priority(rules, in); break;
      case PoolPolicy::kEdf: out.pick = pick_edf(in, idle); break;
      case PoolPolicy::kFifoGang:
        out.pick = pick_fifo_gang(rules, in, idle, out);
        break;
    }
    return out;
}

} // namespace flowgnn
