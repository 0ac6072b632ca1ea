#include "pool/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/telemetry.h"
#include "ghost/ghost_engine.h"
#include "obs/trace_session.h"

namespace flowgnn {

/** One admitted job: immutable inputs (prepared sample, plan, opts)
 * plus mutable dispatch/completion state guarded by the scheduler
 * mutex. A job leases `width` dies. Task 0 leads: it runs the job — a
 * one-die engine run, or the ghost run of a sharded job. The other
 * width - 1 tasks hold the further dies a sharded job models until
 * that run ends, so occupancy and the policy's width rules see the
 * job's real width. Only the leading task touches the run's state
 * (plan, checkpoints, results) outside the mutex. */
struct PoolScheduler::Job {
    enum class Deliver { kRun, kSharded };

    bool sharded_path = false; ///< admitted via submit_sharded*
    Deliver deliver = Deliver::kRun;
    JobSpec spec;
    /** The policy core's view of the job, in ns ticks (set at
     * admission; start_tick at first dispatch). */
    Tick admit_tick = 0;
    Tick deadline_tick = kNoTick;
    Tick est_task = kNoTick;
    Tick start_tick = 0;
    std::uint64_t id = 0;       ///< admission order
    std::uint64_t enq_ns = 0;   ///< admit instant on the trace clock
    GraphSample prepared;
    RunOptions opts;
    /** Sharded jobs: the ghost plan (moved into the run, stashed back
     * when the run yields) and the link it was priced on. */
    GhostPlan plan;
    LinkConfig link{};
    /** Dies the job leases: the plan's effective P, 1 for one-die
     * jobs. */
    std::size_t width = 1;
    /** Tasks of the current round on a die or dropped (a round ends
     * when every task has returned; a preempted job starts anew). */
    std::size_t next_task = 0;
    std::size_t done_tasks = 0; ///< tasks of the round returned
    bool run_over = false;      ///< the leading task's run returned
    bool yielded = false;       ///< ... at a layer boundary
    bool dispatched_any = false;
    /** Layer-boundary resume points (one-die / sharded jobs). */
    LayerCheckpoint ckpt;
    GhostResumeState ghost_resume;
    RunResult result;                ///< one-die jobs
    ShardedRunResult sharded_result; ///< sharded jobs

    /** Tasks of the round still needing a die. */
    std::size_t
    remaining() const
    {
        return width - next_task;
    }
    std::exception_ptr error;
    std::chrono::steady_clock::time_point enqueued{};
    std::promise<RunResult> run_promise;
    std::promise<ShardedRunResult> sharded_promise;
};

PoolScheduler::PoolScheduler(const Model &model, EngineConfig engine_config,
                             PoolConfig config)
    : model_(model),
      config_(config),
      rules_{config.policy, config.easy_backfill,
             config.aging_ms > 0.0
                 ? static_cast<Tick>(std::max(1.0, config.aging_ms * 1e6))
                 : 0,
             config.enable_preemption, config.preempt_priority_gap},
      epoch_(std::chrono::steady_clock::now()),
      pool_(model, engine_config, config.num_dies),
      metrics_(config.metrics
                   ? config.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      jobs_ctr_(metrics_->counter("pool.jobs_total")),
      completed_ctr_(metrics_->counter("pool.completed_total")),
      failed_ctr_(metrics_->counter("pool.failed_total")),
      rejected_ctr_(metrics_->counter("pool.rejected_total")),
      busy_dies_gauge_(metrics_->gauge("pool.busy_dies")),
      queue_depth_gauge_(metrics_->gauge("pool.queue_depth")),
      queue_delay_hist_(metrics_->histogram("pool.queue_delay_ms")),
      deadline_miss_ctr_(metrics_->counter("pool.deadline_misses_total")),
      preempt_ctr_(metrics_->counter("pool.preemptions_total")),
      active_dies_gauge_(metrics_->gauge("pool.active_dies")),
      lateness_hist_(metrics_->histogram("pool.lateness_ms")),
      latency_hist_(metrics_->histogram("pool.latency_ms"))
{
    // Fail fast: a malformed config must never reach die threads.
    config_.validate();
    config_.run_options.validate();

    active_dies_ = pool_.size();
    active_dies_gauge_.set(static_cast<double>(active_dies_));
    running_.resize(pool_.size());
    die_tokens_.reserve(pool_.size());
    for (std::size_t d = 0; d < pool_.size(); ++d)
        die_tokens_.push_back(std::make_unique<PreemptToken>());

    started_ = !config_.start_paused;
    die_threads_.reserve(pool_.size());
    for (std::size_t d = 0; d < pool_.size(); ++d)
        die_threads_.emplace_back([this, d] { die_loop(d); });
}

PoolScheduler::~PoolScheduler() { shutdown(); }

void
PoolScheduler::start()
{
    {
        MutexLock lock(&mutex_);
        if (started_)
            return;
        started_ = true;
    }
    // Utilization should measure the serving interval, not the parked
    // prefix tests use to build deterministic backlogs.
    pool_.reset_epoch();
    unpark_.notify_all();
}

Tick
PoolScheduler::ticks(std::chrono::steady_clock::time_point t) const
{
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
}

PolicyDecision
PoolScheduler::decide_now(const Job *urgent)
{
    queue_view_.clear();
    std::size_t urgent_at = PolicyDecision::kNone;
    for (const JobPtr &job : queue_) {
        if (job.get() == urgent)
            urgent_at = queue_view_.size();
        QueuedJob q;
        q.remaining = job->remaining();
        q.width = job->width - job->done_tasks;
        // Per round: a requeued (yielded) job goes through the width
        // rule again when it resumes.
        q.started = job->next_task > 0;
        q.priority = job->spec.priority;
        q.admit = job->admit_tick;
        q.deadline = job->deadline_tick;
        q.longest_task = job->est_task;
        queue_view_.push_back(q);
    }
    running_view_.clear();
    running_dies_.clear();
    for (std::size_t d = 0; d < running_.size(); ++d) {
        const Running &r = running_[d];
        if (!r.job)
            continue;
        RunningTask t;
        t.priority = r.job->spec.priority;
        t.deadline = r.job->deadline_tick;
        t.finish = r.finish;
        // A holding task cannot yield on its own: its job yields
        // through the leading task, which frees every die it holds.
        t.yielding = r.task != 0 || die_tokens_[d]->requested();
        running_view_.push_back(t);
        running_dies_.push_back(d);
    }
    PolicyInput in;
    in.queue = queue_view_;
    in.running = running_view_;
    in.target = active_dies_;
    in.num_dies = pool_.size();
    in.now = ticks(std::chrono::steady_clock::now());
    in.urgent = urgent_at;
    return decide(rules_, in);
}

bool
PoolScheduler::try_pick(Dispatch &out)
{
    out.job.reset();
    if (queue_.empty())
        return false;
    const PolicyDecision dec = decide_now(nullptr);
    if (dec.pick == PolicyDecision::kNone)
        return false; // blocked, or scaled down: leave the die parked
    out.job = queue_[dec.pick];
    out.task = out.job->next_task;
    return true;
}

bool
PoolScheduler::run_task(std::size_t die, Job &job, unsigned leased)
{
    Engine &engine = pool_.engine(die);
    RunOptions opts = job.opts;
    if (config_.enable_preemption)
        opts.preempt = die_tokens_[die].get();
    if (job.sharded_path) {
        job.sharded_result = run_ghost_plan(
            model_, engine.config(), SampleRef(job.prepared),
            std::move(job.plan), opts, job.link,
            config_.enable_preemption ? &job.ghost_resume : nullptr,
            leased);
        if (!job.ghost_resume.preempted)
            return false;
        job.plan = std::move(job.ghost_resume.plan);
        return true;
    }
    RunWorkspace &ws = pool_.workspace(die);
    if (!config_.enable_preemption) {
        job.result = engine.run_prepared(job.prepared, opts, ws);
        return false;
    }
    return engine.run_resumable(SampleRef(job.prepared), opts, ws,
                                job.ckpt, job.result, std::size_t(-1),
                                1) == SegmentOutcome::kPreempted;
}

void
PoolScheduler::die_loop(std::size_t die)
{
    obs::TraceSession *named_for = nullptr; // row named once per session
    UniqueLock lock(&mutex_);
    unpark_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
        return started_ || shutdown_;
    });

    for (;;) {
        Dispatch d;
        work_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
            return shutdown_ || try_pick(d);
        });
        if (!d.job) {
            if (shutdown_)
                return;
            continue;
        }

        // ---- Lease this die to task d.task of d.job. ----
        obs::TraceSession *session = obs::TraceSession::current();
        Job &job = *d.job;
        if (!job.dispatched_any) {
            job.dispatched_any = true;
            const auto start = std::chrono::steady_clock::now();
            job.start_tick = ticks(start);
            queue_delay_hist_.record(ms_between(job.enqueued, start));
            // The request's time-in-queue, on its own timeline.
            if (session && job.enq_ns != 0)
                session->span(obs::Track::kPool, "queue-wait",
                              job.enq_ns, session->now_ns());
        }
        const bool leads = d.task == 0;
        ++job.next_task;
        ++tasks_running_;
        if (job.next_task == job.width) {
            // Fully dispatched: leaves the pending queue (freeing
            // admission capacity) while its tasks run on the dies.
            queue_.erase(
                std::find(queue_.begin(), queue_.end(), d.job));
            admit_.notify_one();
        }
        // Record what this die runs and when it should finish, if
        // the submitter provided an estimate — the inputs to EASY
        // reservations and preemption victim selection. A job's tasks
        // run together, so they share one finish estimate.
        running_[die] = Running{
            d.job, d.task,
            job.est_task == kNoTick ? kNoTick
                                    : job.start_tick + job.est_task};
        // Other idle dies may now have work (e.g. the rest of the
        // job's tasks).
        work_.notify_all();
        pool_.lease(die);
        busy_dies_gauge_.set(static_cast<double>(tasks_running_));
        queue_depth_gauge_.set(static_cast<double>(queue_.size()));
        std::uint64_t lease_start_ns = 0;
        if (session) {
            if (session != named_for) {
                char row[24];
                std::snprintf(row, sizeof row, "die %zu", die);
                session->name_thread(obs::Track::kPool, row);
                named_for = session;
            }
            session->counter(obs::Track::kPool, "busy dies",
                             static_cast<double>(tasks_running_));
            lease_start_ns = session->now_ns();
        }

        if (leads) {
            // Let idle dies take the holding tasks first, so the run
            // starts with the job's whole width leased whenever the
            // pool has room for it.
            work_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
                Dispatch next;
                return job.next_task == job.width || !try_pick(next) ||
                       next.job != d.job;
            });
            // The held dies' host threads would otherwise sit idle: the
            // run uses one per leased die (bit-identical at any count).
            const auto leased = static_cast<unsigned>(job.next_task);
            lock.unlock();
            bool yielded = false;
            std::exception_ptr error;
            try {
                yielded = run_task(die, job, leased);
            } catch (...) {
                error = std::current_exception();
            }
            die_tokens_[die]->reset(); // never leak into the next lease
            lock.lock();
            job.run_over = true;
            job.yielded = yielded;
            if (error && !job.error)
                job.error = error;
            // Holding tasks that never reached a die have nothing left
            // to hold.
            if (job.next_task < job.width) {
                job.done_tasks += job.width - job.next_task;
                job.next_task = job.width;
                queue_.erase(
                    std::find(queue_.begin(), queue_.end(), d.job));
                admit_.notify_one();
            }
            held_.notify_all();
        } else {
            held_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
                return job.run_over;
            });
        }
        const bool finished = job.run_over && !job.yielded && !job.error;
        lock.unlock();

        pool_.release(die);
        if (session) {
            // Drop the engine's cycle-domain unit trace onto the same
            // timeline, anchored at the instant this lease began (a
            // ghost run emits its modeled per-die timeline itself).
            if (leads && finished && !job.sharded_path &&
                !job.result.stats.trace.empty())
                session->add_cycle_trace(
                    job.result.stats.trace,
                    obs::CycleClockMap{lease_start_ns,
                                       job.result.stats.clock_mhz});
            char nm[64];
            if (job.sharded_path)
                std::snprintf(nm, sizeof nm,
                              "lease: job %llu die %zu/%zu",
                              static_cast<unsigned long long>(job.id),
                              d.task, job.width);
            else
                std::snprintf(nm, sizeof nm, "lease: job %llu",
                              static_cast<unsigned long long>(job.id));
            session->span(obs::Track::kPool, nm, lease_start_ns,
                          session->now_ns());
        }

        lock.lock();
        --tasks_running_;
        running_[die] = Running{};
        busy_dies_gauge_.set(static_cast<double>(tasks_running_));
        if (session)
            session->counter(obs::Track::kPool, "busy dies",
                             static_cast<double>(tasks_running_));
        ++job.done_tasks;
        // A die freed up: gang starts that did not fit may fit now.
        work_.notify_all();
        if (job.done_tasks < job.width)
            continue;
        if (job.yielded) {
            // Yielded at a layer boundary with every lease returned:
            // the checkpoint lives in the job; requeue it at its
            // admission position for a new round of leases.
            preempt_ctr_.add(1);
            job.next_task = 0;
            job.done_tasks = 0;
            job.run_over = false;
            job.yielded = false;
            queue_.insert(std::find_if(queue_.begin(), queue_.end(),
                                       [&](const JobPtr &other) {
                                           return other->id > job.id;
                                       }),
                          d.job);
            queue_depth_gauge_.set(static_cast<double>(queue_.size()));
            continue;
        }
        lock.unlock();
        finalize(d.job); // delivery is real work; never under the lock
        lock.lock();
    }
}

void
PoolScheduler::finalize(const JobPtr &jobp)
{
    Job &job = *jobp;
    const bool ok = !job.error;

    // Count the completion BEFORE fulfilling the promise, so a caller
    // that checks stats() right after future.get() sees it.
    const double latency_ms =
        ms_between(job.enqueued, std::chrono::steady_clock::now());
    latency_hist_.record(latency_ms);
    completed_ctr_.add(ok);
    failed_ctr_.add(!ok);
    if (job.spec.deadline_ms > 0.0) {
        // Lateness vs the admission-relative deadline, clamped at 0
        // so the histogram's quantiles read "how late are the late
        // ones" over ALL deadline jobs.
        const double lateness = latency_ms - job.spec.deadline_ms;
        lateness_hist_.record(std::max(0.0, lateness));
        if (lateness > 0.0)
            deadline_miss_ctr_.add(1);
    }
    {
        MutexLock lock(&mutex_);
        PoolPathStats &path = job.sharded_path ? sharded_ : fast_;
        path.completed += ok;
        path.failed += !ok;
    }
    idle_.notify_all();

    if (job.deliver == Job::Deliver::kSharded) {
        if (ok)
            job.sharded_promise.set_value(std::move(job.sharded_result));
        else
            job.sharded_promise.set_exception(job.error);
    } else if (!ok) {
        job.run_promise.set_exception(job.error);
    } else if (job.sharded_path) {
        RunResult run;
        run.embeddings = std::move(job.sharded_result.embeddings);
        run.prediction = job.sharded_result.prediction;
        run.stats = std::move(job.sharded_result.stats);
        job.run_promise.set_value(std::move(run));
    } else {
        job.run_promise.set_value(std::move(job.result));
    }
}

void
PoolScheduler::admit(const JobPtr &job)
{
    {
        UniqueLock lock(&mutex_);
        // Select the path tally under the lock (fast_/sharded_ are
        // guarded; job->sharded_path is immutable once admitted).
        PoolPathStats &path = job->sharded_path ? sharded_ : fast_;
        if (closed_)
            throw std::logic_error(
                "PoolScheduler: submit after shutdown");
        if (config_.admission == AdmissionPolicy::kReject) {
            if (queue_.size() >= config_.queue_capacity) {
                ++path.rejected;
                rejected_ctr_.add(1);
                throw ServiceOverloaded();
            }
        } else if (queue_.size() >= config_.queue_capacity) {
            ++blocked_producers_;
            admit_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
                return closed_ ||
                       queue_.size() < config_.queue_capacity;
            });
            --blocked_producers_;
            if (closed_)
                throw std::logic_error(
                    "PoolScheduler: submit after shutdown");
        }
        ++path.submitted;
        job->id = next_job_id_++;
        job->enqueued = std::chrono::steady_clock::now();
        job->admit_tick = ticks(job->enqueued);
        if (job->spec.deadline_ms > 0.0)
            job->deadline_tick = job->admit_tick +
                static_cast<Tick>(job->spec.deadline_ms * 1e6);
        if (job->spec.estimated_task_cycles > 0)
            job->est_task = static_cast<Tick>(
                static_cast<double>(job->spec.estimated_task_cycles) *
                1e3 / pool_.engine(0).config().clock_mhz);
        if (obs::TraceSession *session = obs::TraceSession::current())
            job->enq_ns = session->now_ns();
        queue_.push_back(job);
        jobs_ctr_.add(1);
        queue_depth_gauge_.set(static_cast<double>(queue_.size()));
        maybe_preempt(*job);
    }
    work_.notify_all();
}

void
PoolScheduler::maybe_preempt(const Job &urgent)
{
    if (!rules_.preemption)
        return;
    // Victims yield at their next layer boundary and requeue.
    for (std::size_t v : decide_now(&urgent).victims)
        die_tokens_[running_dies_[v]]->request();
}

std::future<RunResult>
PoolScheduler::enqueue_fast(GraphSample sample, const RunOptions &opts,
                            const JobSpec &spec)
{
    opts.validate();
    auto job = std::make_shared<Job>();
    job->spec = spec;
    job->opts = opts;
    // Preparing on the submitting thread keeps dies lease-time pure
    // compute; run_prepared(prepare(s)) is exactly Engine::run(s), so
    // the fast path stays bit-identical to a sequential engine loop.
    job->prepared = model_.prepare(sample);
    if (!job->prepared.consistent())
        throw std::invalid_argument("PoolScheduler: inconsistent sample");
    std::future<RunResult> future = job->run_promise.get_future();
    admit(job);
    return future;
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return enqueue_fast(std::move(sample), config_.run_options, spec);
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, const RunOptions &opts,
                      int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return enqueue_fast(std::move(sample), opts, spec);
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, const RunOptions &opts,
                      const JobSpec &spec)
{
    return enqueue_fast(std::move(sample), opts, spec);
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              int priority)
{
    return submit_sharded(std::move(sample), shard,
                          config_.run_options, priority);
}

namespace {

/** A job can never be wider than the pool (a gang that needs more
 * dies than exist would deadlock kFifoGang). */
ShardConfig
clamp_to_pool(const ShardConfig &shard, std::size_t num_dies)
{
    ShardConfig clamped = shard;
    clamped.validate();
    clamped.num_shards = static_cast<std::uint32_t>(std::min<std::size_t>(
        clamped.num_shards, num_dies));
    return clamped;
}

} // namespace

PoolScheduler::JobPtr
PoolScheduler::make_sharded_job(GraphSample sample,
                                const ShardConfig &shard,
                                const RunOptions &opts,
                                const JobSpec &spec,
                                bool deliver_sharded)
{
    opts.validate();
    ShardConfig clamped = clamp_to_pool(shard, pool_.size());
    auto job = std::make_shared<Job>();
    job->sharded_path = true;
    job->deliver = deliver_sharded ? Job::Deliver::kSharded
                                   : Job::Deliver::kRun;
    job->spec = spec;
    job->opts = opts;
    job->link = clamped.link;
    job->prepared = model_.prepare(sample);
    if (!job->prepared.consistent())
        throw std::invalid_argument("PoolScheduler: inconsistent sample");
    char span_name[32];
    std::snprintf(span_name, sizeof span_name, "plan ghost P=%u",
                  clamped.num_shards);
    obs::Span plan_span(obs::Track::kShard, span_name);
    job->plan = make_ghost_plan(model_, job->prepared, clamped);
    job->width = job->plan.shards.size(); // the effective P
    return job;
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              const RunOptions &opts, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return submit_sharded(std::move(sample), shard, opts, spec);
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              const RunOptions &opts, const JobSpec &spec)
{
    JobPtr job = make_sharded_job(std::move(sample), shard, opts,
                                  spec, /*deliver_sharded=*/true);
    std::future<ShardedRunResult> future =
        job->sharded_promise.get_future();
    admit(job);
    return future;
}

std::future<RunResult>
PoolScheduler::submit_sharded_as_run(GraphSample sample,
                                     const ShardConfig &shard,
                                     const RunOptions &opts, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    JobPtr job = make_sharded_job(std::move(sample), shard, opts,
                                  spec, /*deliver_sharded=*/false);
    std::future<RunResult> future = job->run_promise.get_future();
    admit(job);
    return future;
}

void
PoolScheduler::set_active_dies(std::size_t n)
{
    {
        MutexLock lock(&mutex_);
        active_dies_ =
            std::min(std::max<std::size_t>(n, 1), pool_.size());
        active_dies_gauge_.set(static_cast<double>(active_dies_));
    }
    // Scaling up frees capacity parked dies can pick up immediately.
    work_.notify_all();
}

std::size_t
PoolScheduler::active_dies() const
{
    MutexLock lock(&mutex_);
    return active_dies_;
}

void
PoolScheduler::drain()
{
    start(); // a paused pool would otherwise never become idle
    UniqueLock lock(&mutex_);
    idle_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
        return fast_.completed + fast_.failed == fast_.submitted &&
               sharded_.completed + sharded_.failed ==
                   sharded_.submitted;
    });
}

void
PoolScheduler::shutdown()
{
    {
        MutexLock lock(&mutex_);
        if (closed_)
            return;
        closed_ = true;
    }
    admit_.notify_all(); // blocked producers observe closed_ and throw
    drain();
    {
        MutexLock lock(&mutex_);
        shutdown_ = true;
    }
    work_.notify_all();
    unpark_.notify_all();
    for (std::thread &die : die_threads_)
        die.join();
}

bool
PoolScheduler::closed() const
{
    MutexLock lock(&mutex_);
    return closed_;
}

PoolStats
PoolScheduler::stats() const
{
    PoolStats out;
    {
        MutexLock lock(&mutex_);
        out.fast = fast_;
        out.sharded = sharded_;
        out.jobs_pending = queue_.size();
        out.tasks_running = tasks_running_;
        out.blocked_producers = blocked_producers_;
        out.queue_capacity = config_.queue_capacity;
        out.active_dies = active_dies_;
    }
    out.deadline_misses =
        static_cast<std::size_t>(deadline_miss_ctr_.value());
    out.preemptions = static_cast<std::size_t>(preempt_ctr_.value());
    {
        obs::HistogramSnapshot lateness = lateness_hist_.snapshot();
        out.lateness_p50_ms = lateness.quantile(0.50);
        out.lateness_p99_ms = lateness.quantile(0.99);
    }
    // Full-lifetime delay percentiles from the shared log-bucket
    // histogram (~1% relative error; see obs/metrics.h). Lock-free,
    // so a polling monitor never stalls dispatch.
    obs::HistogramSnapshot delays = queue_delay_hist_.snapshot();
    out.queue_delay_p50_ms = delays.quantile(0.50);
    out.queue_delay_p95_ms = delays.quantile(0.95);
    out.queue_delay_p99_ms = delays.quantile(0.99);
    obs::HistogramSnapshot latency = latency_hist_.snapshot();
    out.latency_p50_ms = latency.quantile(0.50);
    out.latency_p95_ms = latency.quantile(0.95);
    out.latency_p99_ms = latency.quantile(0.99);
    out.uptime_ms = pool_.uptime_ms();
    out.peak_busy_dies = pool_.peak_busy();
    out.dies = pool_.die_stats();
    out.occupancy = pool_.occupancy_timeline();
    return out;
}

} // namespace flowgnn
