#include "pool/schedule_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace flowgnn {

namespace {

constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();

struct JobState {
    const SimJob *job = nullptr;
    std::size_t next_task = 0;
    std::size_t done_tasks = 0;
    bool dispatched_any = false;
    /** Cycles still owed per task; grows by the checkpoint overhead
     * on each preemption. */
    std::vector<std::uint64_t> owed;
    /** Preempted tasks waiting to resume (LIFO, like the live pool). */
    std::vector<std::size_t> requeued;
    std::uint64_t abs_deadline = kNever;

    std::size_t
    remaining() const
    {
        return job->task_cycles.size() - next_task + requeued.size();
    }
    bool
    pending() const
    {
        return remaining() > 0;
    }
    /** Longest still-owed undispatched task — a gang job's duration
     * when all its tasks start together (the backfill bound). */
    std::uint64_t
    max_owed() const
    {
        std::uint64_t m = 0;
        for (std::size_t t = next_task; t < owed.size(); ++t)
            m = std::max(m, owed[t]);
        for (std::size_t t : requeued)
            m = std::max(m, owed[t]);
        return m;
    }
};

} // namespace

double
SimResult::utilization() const
{
    if (makespan == 0 || die_busy.empty())
        return 0.0;
    std::uint64_t busy = 0;
    for (std::uint64_t b : die_busy)
        busy += b;
    return static_cast<double>(busy) /
           (static_cast<double>(die_busy.size()) *
            static_cast<double>(makespan));
}

SimResult
simulate_pool_schedule(const std::vector<SimJob> &jobs,
                       std::uint32_t num_dies, PoolPolicy policy,
                       std::uint64_t aging_cycles)
{
    SimOptions options;
    options.num_dies = num_dies;
    options.policy = policy;
    options.aging_cycles = aging_cycles;
    return simulate_pool_schedule(jobs, options);
}

SimResult
simulate_pool_schedule(const std::vector<SimJob> &jobs,
                       const SimOptions &options)
{
    const std::uint32_t num_dies = options.num_dies;
    const PoolPolicy policy = options.policy;
    if (num_dies == 0)
        throw std::invalid_argument(
            "simulate_pool_schedule: num_dies must be >= 1");
    for (const SimJob &job : jobs) {
        if (job.task_cycles.empty())
            throw std::invalid_argument(
                "simulate_pool_schedule: job with no tasks");
        if (job.task_cycles.size() > num_dies)
            throw std::invalid_argument(
                "simulate_pool_schedule: job wider than the pool");
    }
    if (options.autoscaler != nullptr && options.window_cycles == 0)
        throw std::invalid_argument(
            "simulate_pool_schedule: autoscaler needs window_cycles");

    SimResult out;
    out.die_busy.assign(num_dies, 0);
    out.start_.assign(jobs.size(), 0);
    out.finish_.assign(jobs.size(), 0);
    out.reservation_.assign(jobs.size(), SimResult::kNoReservation);
    out.lateness_.assign(jobs.size(), 0);

    std::vector<JobState> states(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        states[j].job = &jobs[j];
        states[j].owed = jobs[j].task_cycles;
        if (jobs[j].deadline > 0)
            states[j].abs_deadline = jobs[j].arrival + jobs[j].deadline;
    }

    // free_at[d]: the cycle die d finishes (or yields) its current
    // task (meaningful only while busy).
    std::vector<std::uint64_t> free_at(num_dies, 0);
    std::vector<std::size_t> die_job(num_dies, 0);
    std::vector<std::size_t> die_task(num_dies, 0);
    std::vector<std::uint64_t> die_started(num_dies, 0);
    std::vector<bool> die_busy_now(num_dies, false);
    std::vector<bool> die_preempting(num_dies, false);

    // FIFO admission order = arrival order (stable for equal arrivals).
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        order[j] = j;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[a].arrival < jobs[b].arrival;
                     });

    PolicyRules rules;
    rules.policy = policy;
    rules.easy_backfill = options.easy_backfill;
    rules.aging = options.aging_cycles;
    rules.preemption = options.enable_preemption;
    rules.preempt_priority_gap = options.preempt_priority_gap;

    // Elastic capacity: the autoscaler's target caps concurrency.
    std::size_t cap_target =
        options.autoscaler ? options.autoscaler->target() : num_dies;
    if (options.autoscaler)
        out.active_timeline.emplace_back(0, cap_target);
    std::uint64_t window_area = 0;   // busy-dies x cycles this window
    std::uint64_t next_window = options.autoscaler
        ? options.window_cycles
        : kNever;

    // The policy core's view of the pool at `now`: arrived jobs with
    // tasks still needing a die (queue_job maps back to job indices)
    // and the busy dies (running_die maps back to die indices).
    std::vector<QueuedJob> queue;
    std::vector<std::size_t> queue_job;
    std::vector<RunningTask> running;
    std::vector<std::uint32_t> running_die;
    std::uint64_t now = 0;
    // Yield arithmetic: a preempted task yields at the next
    // layer-boundary multiple since its start.
    auto yield_at = [&](std::uint32_t d) {
        const std::uint64_t b = jobs[die_job[d]].boundary_cycles;
        return die_started[d] + ((now - die_started[d]) / b + 1) * b;
    };
    auto decide_at = [&](std::size_t urgent_job) {
        queue.clear();
        queue_job.clear();
        std::size_t urgent = PolicyDecision::kNone;
        for (std::size_t j : order) {
            const JobState &st = states[j];
            if (!st.pending() || jobs[j].arrival > now)
                continue;
            if (j == urgent_job)
                urgent = queue.size();
            QueuedJob q;
            q.remaining = st.remaining();
            q.width = st.job->task_cycles.size() - st.done_tasks;
            q.started = st.dispatched_any;
            q.priority = jobs[j].priority;
            q.admit = jobs[j].arrival;
            q.deadline = st.abs_deadline;
            q.longest_task = st.max_owed();
            queue.push_back(q);
            queue_job.push_back(j);
        }
        running.clear();
        running_die.clear();
        for (std::uint32_t d = 0; d < num_dies; ++d) {
            if (!die_busy_now[d])
                continue;
            const SimJob &job = jobs[die_job[d]];
            RunningTask r;
            r.priority = job.priority;
            r.deadline = states[die_job[d]].abs_deadline;
            r.finish = free_at[d];
            // No victim when unpreemptible, already yielding, or done
            // before its next boundary.
            r.yielding = die_preempting[d] || job.boundary_cycles == 0 ||
                yield_at(d) >= free_at[d];
            running.push_back(r);
            running_die.push_back(d);
        }
        PolicyInput in;
        in.queue = queue;
        in.running = running;
        in.target = cap_target;
        in.num_dies = num_dies;
        in.now = now;
        in.urgent = urgent;
        PolicyDecision dec = decide(rules, in);
        if (dec.reserved != PolicyDecision::kNone) {
            std::uint64_t &res = out.reservation_[queue_job[dec.reserved]];
            if (res == SimResult::kNoReservation)
                res = dec.reservation;
        }
        return dec;
    };

    std::size_t done_jobs = 0;
    std::size_t tasks_running = 0;
    while (done_jobs < jobs.size()) {
        // ---- Dispatch everything pickable at `now`, re-deciding
        // after every dispatch because idle-die counts change. ----
        for (;;) {
            const PolicyDecision dec = decide_at(jobs.size());
            if (dec.pick == PolicyDecision::kNone)
                break;
            const std::size_t pick = queue_job[dec.pick];
            JobState &st = states[pick];
            if (!st.dispatched_any) {
                st.dispatched_any = true;
                out.start_[pick] = now;
            }
            std::size_t task;
            if (!st.requeued.empty()) {
                task = st.requeued.back();
                st.requeued.pop_back();
            } else {
                task = st.next_task++;
            }
            std::uint32_t die = 0;
            while (die_busy_now[die])
                ++die;
            die_busy_now[die] = true;
            die_preempting[die] = false;
            free_at[die] = now + st.owed[task];
            die_job[die] = pick;
            die_task[die] = task;
            die_started[die] = now;
            ++tasks_running;
        }

        // ---- Advance to the next event: a die completing/yielding,
        // the next arrival, or an autoscaler window boundary. ----
        std::uint64_t next = kNever;
        for (std::uint32_t d = 0; d < num_dies; ++d)
            if (die_busy_now[d])
                next = std::min(next, free_at[d]);
        for (std::size_t j = 0; j < jobs.size(); ++j)
            if (states[j].pending() && jobs[j].arrival > now)
                next = std::min(next, jobs[j].arrival);
        if (next == kNever)
            throw std::logic_error(
                "simulate_pool_schedule: stalled schedule");
        next = std::min(next, next_window);
        window_area +=
            static_cast<std::uint64_t>(tasks_running) * (next - now);
        now = next;

        for (std::uint32_t d = 0; d < num_dies; ++d) {
            if (!die_busy_now[d] || free_at[d] > now)
                continue;
            die_busy_now[d] = false;
            --tasks_running;
            out.die_busy[d] += free_at[d] - die_started[d];
            JobState &st = states[die_job[d]];
            if (die_preempting[d]) {
                // Layer-boundary yield: requeue the remainder plus
                // the checkpoint round-trip.
                die_preempting[d] = false;
                const std::uint64_t ran = free_at[d] - die_started[d];
                st.owed[die_task[d]] = st.owed[die_task[d]] - ran +
                    options.preempt_overhead_cycles;
                st.requeued.push_back(die_task[d]);
                ++out.preemptions;
                continue;
            }
            ++st.done_tasks;
            if (st.done_tasks == st.job->task_cycles.size()) {
                const std::size_t j = die_job[d];
                out.finish_[j] = free_at[d];
                out.makespan = std::max(out.makespan, free_at[d]);
                if (st.abs_deadline != kNever &&
                    free_at[d] > st.abs_deadline) {
                    out.lateness_[j] = free_at[d] - st.abs_deadline;
                    ++out.deadline_misses;
                }
                ++done_jobs;
            }
        }

        // ---- Autoscaler window boundary: exact windowed inputs. ----
        if (options.autoscaler != nullptr && now == next_window) {
            AutoscalerWindow w;
            w.busy_dies = static_cast<double>(window_area) /
                static_cast<double>(options.window_cycles);
            double depth = 0.0;
            for (std::size_t j = 0; j < jobs.size(); ++j)
                if (states[j].pending() && jobs[j].arrival <= now)
                    depth += 1.0;
            w.queue_depth = depth;
            const std::size_t target = options.autoscaler->step(w);
            if (target != cap_target) {
                cap_target = target;
                out.active_timeline.emplace_back(now, cap_target);
            }
            window_area = 0;
            next_window += options.window_cycles;
        }

        // ---- Preemption: each job arriving exactly now evicts the
        // victims the policy core names; they yield at their next
        // layer boundary. ----
        if (!options.enable_preemption)
            continue;
        for (std::size_t j : order) {
            if (jobs[j].arrival != now || !states[j].pending())
                continue;
            for (std::size_t v : decide_at(j).victims) {
                const std::uint32_t d = running_die[v];
                free_at[d] = yield_at(d);
                die_preempting[d] = true;
            }
        }
    }
    return out;
}

} // namespace flowgnn
