/**
 * @file
 * flowgnn::pool tests: schedule-simulator policy semantics (exact
 * makespans for gang head-of-line blocking, space-share backfill,
 * priority aging), pool scheduling correctness (fast-path and sharded
 * jobs bit-identical to isolated runs under every policy), die leases
 * equal to the dies a job models (clamped jobs, two P=2 jobs filling a
 * D=4 pool, gang starts waiting for the full width), admission
 * control, fail-fast construction, per-run options, latency telemetry,
 * a failure inside one die failing only its own job and returning its
 * leases, a preemption racing shutdown() that loses no future, and the
 * mixed small/sharded stress run through the pooled ShardedService.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "datasets/dataset.h"
#include "graph/generators.h"
#include "obs/trace_session.h"
#include "pool/schedule_sim.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;

// ---- Schedule simulator: policy semantics pinned exactly ---------------

TEST(ScheduleSim, GangHeadOfLineBlocksWhereSpaceShareBackfills)
{
    // D=4. j0 needs 2 dies for 20; j1 needs 3 dies (2 each); j2 and j3
    // are 15-cycle singles. Under gang scheduling j1 cannot start
    // until j0 finishes (needs 3 simultaneous dies, only 2 are free),
    // and FIFO order stalls the singles behind it: two dies idle for
    // j0's whole runtime.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{15}, 0, 0},
        {{15}, 0, 0},
    };

    SimResult gang =
        simulate_pool_schedule(trace, 4, PoolPolicy::kFifoGang);
    // t20: j1 gang-starts + j2 backfills; t22: j3.
    EXPECT_EQ(gang.job_start(1), 20u);
    EXPECT_EQ(gang.makespan, 37u);

    SimResult share =
        simulate_pool_schedule(trace, 4, PoolPolicy::kSpaceShare);
    // Idle dies take j1's tasks immediately, then the singles.
    EXPECT_EQ(share.job_start(1), 0u);
    EXPECT_EQ(share.makespan, 20u);

    EXPECT_GT(share.utilization(), gang.utilization());
}

TEST(ScheduleSim, SpaceShareIsWorkConserving)
{
    // A die never idles while any task is pending: total busy cycles
    // equal the trace's work, and the makespan on one die is the sum.
    std::vector<SimJob> trace = {{{5}, 0, 0}, {{7}, 0, 0}, {{3}, 0, 0}};
    SimResult r =
        simulate_pool_schedule(trace, 1, PoolPolicy::kSpaceShare);
    EXPECT_EQ(r.makespan, 15u);
    EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
}

TEST(ScheduleSim, PriorityAgingPreventsStarvation)
{
    // One die. A low-priority job (j0) competes with high-priority
    // work: b runs first either way; c arrives later with high
    // priority. Without aging c overtakes j0; with aging j0's wait
    // raises its effective priority enough to win the tie, FIFO-break.
    std::vector<SimJob> trace = {
        {{10}, 0, 0},  // j0: low priority, arrives first
        {{100}, 0, 5}, // b: high priority, picked immediately
        {{10}, 90, 5}, // c: high priority, arrives while b runs
    };

    SimResult no_aging =
        simulate_pool_schedule(trace, 1, PoolPolicy::kPriority, 0);
    EXPECT_EQ(no_aging.job_finish(2), 110u) << "c overtakes j0";
    EXPECT_EQ(no_aging.job_finish(0), 120u);

    SimResult aged =
        simulate_pool_schedule(trace, 1, PoolPolicy::kPriority, 20);
    EXPECT_EQ(aged.job_finish(0), 110u)
        << "100 cycles of waiting = +5 effective priority";
    EXPECT_EQ(aged.job_finish(2), 120u);
}

TEST(ScheduleSim, RejectsJobsWiderThanPool)
{
    std::vector<SimJob> trace = {{{1, 1, 1}, 0, 0}};
    EXPECT_THROW(
        simulate_pool_schedule(trace, 2, PoolPolicy::kSpaceShare),
        std::invalid_argument);
}

// ---- PoolScheduler: correctness under scheduling -----------------------

TEST(PoolScheduler, FastPathBitIdenticalToSequentialEngine)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    EngineConfig cfg;
    PoolConfig pool;
    pool.num_dies = 3;
    PoolScheduler scheduler(model, cfg, pool);
    Engine reference(model, cfg);

    std::vector<GraphSample> samples;
    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 24; ++i) {
        samples.push_back(make_random_sample(
            testing::make_random_graph(i, 40, 7000 + i), 9, 3,
            9000 + i));
        futures.push_back(scheduler.submit(samples.back()));
    }
    for (int i = 0; i < 24; ++i) {
        RunResult pooled = futures[i].get();
        RunResult direct = reference.run(samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
        EXPECT_EQ(pooled.stats.total_cycles,
                  direct.stats.total_cycles)
            << i;
    }
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.completed, 24u);
    EXPECT_EQ(st.sharded.completed, 0u);
}

TEST(PoolScheduler, ShardedJobMatchesShardedEngine)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample sample = make_random_sample(
        make_ring_lattice(5000, 2), 16, 0, 0xD1E);

    ShardConfig shard;
    shard.num_shards = 4;
    PoolConfig pool;
    pool.num_dies = 4;
    PoolScheduler scheduler(model, cfg, pool);

    ShardedRunResult pooled =
        scheduler.submit_sharded(sample, shard).get();
    ShardedRunResult direct =
        ShardedEngine(model, cfg, shard).run(sample);

    EXPECT_TRUE(pooled.embeddings == direct.embeddings);
    EXPECT_EQ(pooled.prediction, direct.prediction);
    EXPECT_EQ(pooled.stats.total_cycles, direct.stats.total_cycles);
    EXPECT_EQ(pooled.shards.size(), direct.shards.size());
    EXPECT_EQ(pooled.cut_edges, direct.cut_edges);
    EXPECT_EQ(scheduler.stats().sharded.completed, 1u);
}

TEST(PoolScheduler, ClampsJobsWiderThanThePool)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x33);
    ShardConfig shard;
    shard.num_shards = 8; // pool only has 2 dies
    PoolConfig pool;
    pool.num_dies = 2;
    PoolScheduler scheduler(model, {}, pool);
    ShardedRunResult r = scheduler.submit_sharded(sample, shard).get();
    scheduler.drain();
    EXPECT_EQ(r.shards.size(), 2u)
        << "a job can never be wider than the pool";
    // Leases equal modeled dies: the clamped job models 2 dies and
    // holds both.
    PoolStats st = scheduler.stats();
    std::size_t leases = 0;
    for (const DieStats &d : st.dies)
        leases += d.leases;
    EXPECT_EQ(leases, 2u);
    EXPECT_EQ(st.peak_busy_dies, 2u);
}

/** [first lease start, last lease end] (µs) of pool job `id` in a
 * Chrome trace; {-1, -1} when the job never leased a die. */
std::pair<double, double>
lease_window(const std::string &json, std::uint64_t id)
{
    const std::string key = "\"name\": \"lease: job " + std::to_string(id);
    double first = -1.0;
    double last = -1.0;
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        const char next = json[at + key.size()];
        if (next != '"' && next != ' ')
            continue; // "job 1" must not match "job 12"
        const std::size_t ts = json.find("\"ts\": ", at);
        const std::size_t dur = json.find("\"dur\": ", at);
        const double start = std::strtod(json.c_str() + ts + 6, nullptr);
        const double end =
            start + std::strtod(json.c_str() + dur + 7, nullptr);
        if (first < 0.0 || start < first)
            first = start;
        last = std::max(last, end);
    }
    return {first, last};
}

TEST(PoolScheduler, GangGhostJobWaitsForItsFullWidth)
{
    // D=2, kFifoGang, paused backlog: a one-die job holds a die, so a
    // P=2 ghost job behind it must not take the other die — its first
    // lease starts only after the one-die job returned its lease, and
    // then it holds both dies.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample single = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0x5A1);
    GraphSample wide = make_random_sample(
        make_ring_lattice(4000, 2), 16, 0, 0x5A2);

    obs::TraceSession session;
    session.install();
    PoolConfig pool;
    pool.num_dies = 2;
    pool.policy = PoolPolicy::kFifoGang;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);
    ShardConfig two;
    two.num_shards = 2;
    auto f1 = scheduler.submit(single);
    auto f2 = scheduler.submit_sharded(wide, two);
    scheduler.start();
    EXPECT_NO_THROW(f1.get());
    ShardedRunResult r2 = f2.get();
    scheduler.drain();
    session.uninstall();

    std::ostringstream os;
    session.write_chrome_trace(os);
    const auto [s1, e1] = lease_window(os.str(), 1);
    const auto [s2, e2] = lease_window(os.str(), 2);
    ASSERT_GE(s1, 0.0);
    ASSERT_GE(s2, 0.0);
    EXPECT_GE(s2, e1) << "the gang start needs both dies free";
    EXPECT_EQ(r2.shards.size(), 2u);
    std::size_t leases = 0;
    for (const DieStats &d : scheduler.stats().dies)
        leases += d.leases;
    EXPECT_EQ(leases, 3u) << "1 for the one-die job + 2 for the P=2 job";
}

// ---- The acceptance bar: concurrent sharded jobs -----------------------

TEST(PoolScheduler, TwoP2JobsFillFourDiesAndStayBitIdentical)
{
    // Two P=2 sharded jobs on a D=4 pool under kSpaceShare must run
    // concurrently — pool occupancy reaches all 4 dies — and their
    // merged results must be bit-identical to isolated runs.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample a = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0xA11CE);
    GraphSample b = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0xB0B);

    ShardConfig shard;
    shard.num_shards = 2;
    PoolConfig pool;
    pool.num_dies = 4;
    pool.policy = PoolPolicy::kSpaceShare;
    pool.start_paused = true; // build the backlog deterministically

    PoolScheduler scheduler(model, cfg, pool);
    auto fa = scheduler.submit_sharded(a, shard);
    auto fb = scheduler.submit_sharded(b, shard);
    // Four idle dies, four pending tasks: starting the pool dispatches
    // every task before any can finish.
    scheduler.start();
    ShardedRunResult ra = fa.get();
    ShardedRunResult rb = fb.get();
    scheduler.drain();

    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.peak_busy_dies, 4u)
        << "both jobs' shards must be on dies simultaneously";
    EXPECT_EQ(st.sharded.completed, 2u);
    EXPECT_FALSE(st.occupancy.empty());

    ShardedEngine isolated(model, cfg, shard);
    ShardedRunResult ia = isolated.run(a);
    ShardedRunResult ib = isolated.run(b);
    EXPECT_TRUE(ra.embeddings == ia.embeddings);
    EXPECT_TRUE(rb.embeddings == ib.embeddings);
    EXPECT_EQ(ra.prediction, ia.prediction);
    EXPECT_EQ(rb.prediction, ib.prediction);
    EXPECT_EQ(ra.stats.total_cycles, ia.stats.total_cycles);
}

TEST(PoolScheduler, MixedTraceSpaceShareBeatsFifoGang)
{
    // The mixed trace where gang scheduling hurts: a 2-wide job leaves
    // 2 dies free, the 3-wide job behind it cannot gang-start, and
    // FIFO stalls the singles behind that. Space sharing backfills
    // all of it. Assert the advantage twice: modeled makespan via the
    // deterministic simulator (using each task's measured cycles) and
    // actual wall clock through the live pool.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    GraphSample wide2 = make_random_sample(
        make_ring_lattice(36000, 2), 16, 0, 0x111);
    GraphSample wide3 = make_random_sample(
        make_ring_lattice(3000, 2), 16, 0, 0x222);
    GraphSample single_a = make_random_sample(
        make_ring_lattice(12000, 2), 16, 0, 0x333);
    GraphSample single_b = make_random_sample(
        make_ring_lattice(12000, 2), 16, 0, 0x444);

    ShardConfig p2;
    p2.num_shards = 2;
    ShardConfig p3;
    p3.num_shards = 3;

    // Modeled task durations from isolated runs.
    ShardedEngine e2(model, cfg, p2);
    ShardedEngine e3(model, cfg, p3);
    Engine e1(model, cfg);
    // One task per modeled die, each as long as its die's chain.
    std::vector<SimJob> trace;
    trace.push_back({e2.run(wide2).stats.die_cycles, 0, 0});
    trace.push_back({e3.run(wide3).stats.die_cycles, 0, 0});
    trace.push_back({{e1.run(single_a).stats.total_cycles}, 0, 0});
    trace.push_back({{e1.run(single_b).stats.total_cycles}, 0, 0});

    SimResult gang_sim =
        simulate_pool_schedule(trace, 4, PoolPolicy::kFifoGang);
    SimResult share_sim =
        simulate_pool_schedule(trace, 4, PoolPolicy::kSpaceShare);
    EXPECT_LT(share_sim.makespan, gang_sim.makespan)
        << "modeled: backfill must shorten the mixed trace";
    EXPECT_GT(share_sim.utilization(), gang_sim.utilization());

    // Live pool, wall clock. Paused start makes the backlog (and thus
    // the schedule shape) deterministic.
    auto run_trace = [&](PoolPolicy policy) {
        PoolConfig pool;
        pool.num_dies = 4;
        pool.policy = policy;
        pool.start_paused = true;
        PoolScheduler scheduler(model, cfg, pool);
        std::vector<std::future<ShardedRunResult>> sharded;
        sharded.push_back(scheduler.submit_sharded(wide2, p2));
        sharded.push_back(scheduler.submit_sharded(wide3, p3));
        std::vector<std::future<RunResult>> singles;
        singles.push_back(scheduler.submit(single_a));
        singles.push_back(scheduler.submit(single_b));
        auto begin = std::chrono::steady_clock::now();
        scheduler.start();
        scheduler.drain();
        auto end = std::chrono::steady_clock::now();
        for (auto &f : sharded)
            f.get();
        for (auto &f : singles)
            f.get();
        return std::chrono::duration<double, std::milli>(end - begin)
            .count();
    };
    double gang_ms = run_trace(PoolPolicy::kFifoGang);
    double share_ms = run_trace(PoolPolicy::kSpaceShare);
    if (std::thread::hardware_concurrency() >= 4) {
        EXPECT_LT(share_ms, gang_ms)
            << "wall clock: the modeled ~1.7x gap leaves margin";
    } else {
        // Fewer host cores than dies: the die threads timeshare, so
        // total work — identical under every policy — bounds the wall
        // clock and schedule shape cannot show. The modeled assertion
        // above is the portable check.
        std::printf("[  SKIPPED ] wall-clock comparison: %u host "
                    "core(s) < 4 dies (gang %.1f ms, share %.1f ms)\n",
                    std::thread::hardware_concurrency(), gang_ms,
                    share_ms);
    }
}

TEST(PoolScheduler, EveryPolicySameAnswersDifferentSchedule)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample small = make_random_sample(
        testing::make_random_graph(0, 48, 0xAB), 9, 3, 0xAB1);
    GraphSample large = make_random_sample(
        make_ring_lattice(3000, 2), 9, 3, 0xAB2);
    ShardConfig shard;
    shard.num_shards = 3;

    Engine reference(model, cfg);
    RunResult small_ref = reference.run(small);
    ShardedRunResult large_ref =
        ShardedEngine(model, cfg, shard).run(large);

    for (PoolPolicy policy :
         {PoolPolicy::kFifoGang, PoolPolicy::kSpaceShare,
          PoolPolicy::kPriority}) {
        PoolConfig pool;
        pool.num_dies = 4;
        pool.policy = policy;
        PoolScheduler scheduler(model, cfg, pool);
        auto fs = scheduler.submit(small, /*priority=*/1);
        auto fl = scheduler.submit_sharded(large, shard);
        RunResult rs = fs.get();
        ShardedRunResult rl = fl.get();
        EXPECT_TRUE(rs.embeddings == small_ref.embeddings)
            << pool_policy_name(policy);
        EXPECT_TRUE(rl.embeddings == large_ref.embeddings)
            << pool_policy_name(policy);
    }
}

// ---- Admission control -------------------------------------------------

TEST(PoolScheduler, BlockedProducerIsVisibleAndUnblocks)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x99);

    PoolConfig pool;
    pool.num_dies = 1;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kBlock;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit(sample); // fills the queue
    std::future<RunResult> f2;
    std::thread producer(
        [&] { f2 = scheduler.submit(sample); }); // must block

    // Deterministic wait: the producer is provably parked, not slept.
    while (scheduler.stats().blocked_producers == 0)
        std::this_thread::yield();
    EXPECT_EQ(scheduler.stats().blocked_producers, 1u);

    scheduler.start();
    producer.join();
    EXPECT_NO_THROW(f1.get());
    EXPECT_NO_THROW(f2.get());
    EXPECT_EQ(scheduler.stats().fast.completed, 2u);
}

TEST(PoolScheduler, RejectPolicyShedsAndCounts)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x98);

    PoolConfig pool;
    pool.num_dies = 1;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kReject;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit(sample);
    EXPECT_THROW(scheduler.submit(sample), ServiceOverloaded);
    EXPECT_EQ(scheduler.stats().fast.rejected, 1u);
    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    EXPECT_EQ(scheduler.stats().fast.completed, 1u);
}

TEST(PoolScheduler, RejectionAttributesToTheSubmittingPath)
{
    // Pins the admit() path-selection fix: the tally for a rejected
    // job must land on the path that submitted it (sharded here), and
    // the path reference must be chosen under the scheduler mutex.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x9A);

    ShardConfig shard;
    shard.num_shards = 2;
    PoolConfig pool;
    pool.num_dies = 2;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kReject;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit_sharded(sample, shard); // fills the queue
    EXPECT_THROW(scheduler.submit_sharded(sample, shard),
                 ServiceOverloaded);
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.sharded.rejected, 1u);
    EXPECT_EQ(st.fast.rejected, 0u);

    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    EXPECT_EQ(scheduler.stats().sharded.completed, 1u);
}

TEST(PoolScheduler, SubmitAfterShutdownThrows)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x97);
    PoolScheduler scheduler(model, {}, {});
    scheduler.shutdown();
    EXPECT_THROW(scheduler.submit(sample), std::logic_error);
}

TEST(PoolScheduler, QueueDelayTelemetryRecorded)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x96);
    PoolConfig pool;
    pool.num_dies = 1;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);
    auto f = scheduler.submit(sample);
    scheduler.drain();
    f.get();
    PoolStats st = scheduler.stats();
    EXPECT_GT(st.queue_delay_p50_ms, 0.0)
        << "the paused interval is queueing delay";
    EXPECT_GE(st.queue_delay_p99_ms, st.queue_delay_p50_ms);
    ASSERT_EQ(st.dies.size(), 1u);
    EXPECT_EQ(st.dies[0].leases, 1u);
    EXPECT_GT(st.dies[0].busy_ms, 0.0);
}

TEST(PoolScheduler, ConstructionFailsFastOnBadConfig)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());

    EngineConfig bad_engine;
    bad_engine.p_node = 0;
    EXPECT_THROW(PoolScheduler(m, bad_engine), std::invalid_argument);

    PoolConfig no_dies;
    no_dies.num_dies = 0;
    EXPECT_THROW(PoolScheduler(m, {}, no_dies), std::invalid_argument);

    PoolConfig bad_opts;
    bad_opts.run_options.emulate_fixed_point = true;
    bad_opts.run_options.fixed_point = {8, 8};
    EXPECT_THROW(PoolScheduler(m, {}, bad_opts), std::invalid_argument);
}

TEST(PoolScheduler, PerRunOptionsOverridePoolDefaults)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 3);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    PoolScheduler scheduler(m);

    RunOptions traced;
    traced.capture_trace = true;
    RunResult with_trace = scheduler.submit(s, traced).get();
    RunResult without = scheduler.submit(s).get();
    EXPECT_FALSE(with_trace.stats.trace.empty());
    EXPECT_TRUE(without.stats.trace.empty());
    // Same answers either way.
    EXPECT_EQ(with_trace.prediction, without.prediction);
}

TEST(PoolScheduler, StatsTelemetryIsConsistent)
{
    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);
    Model m =
        make_model(ModelKind::kGin, probe.node_dim(), probe.edge_dim());

    PoolConfig pool;
    pool.num_dies = 2;
    PoolScheduler scheduler(m, {}, pool);
    SampleStream stream(DatasetKind::kMolHiv, 32);
    std::vector<std::future<RunResult>> futures;
    for (std::size_t i = 0; i < 32; ++i)
        futures.push_back(scheduler.submit(stream.next()));
    for (auto &f : futures)
        f.get();

    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.submitted, 32u);
    EXPECT_EQ(st.fast.completed, 32u);
    EXPECT_EQ(st.fast.failed, 0u);
    EXPECT_GT(st.uptime_ms, 0.0);
    EXPECT_GT(st.latency_p50_ms, 0.0);
    EXPECT_LE(st.latency_p50_ms, st.latency_p95_ms);
    EXPECT_LE(st.latency_p95_ms, st.latency_p99_ms);
    EXPECT_GE(st.latency_p99_ms, st.queue_delay_p99_ms)
        << "a job's latency includes its queueing delay";
    EXPECT_EQ(scheduler.metrics()->snapshot().histograms.at(
                  "pool.latency_ms").count,
              32u);
    ASSERT_EQ(st.dies.size(), 2u);
    std::size_t leases = 0;
    for (const DieStats &d : st.dies)
        leases += d.leases;
    EXPECT_EQ(leases, 32u);
}

TEST(PoolScheduler, ConcurrentRepliesBitIdenticalToSequential)
{
    // A multi-die pool processing a 500-graph stream must reproduce a
    // sequential Engine::run loop exactly, bit for bit.
    constexpr std::size_t kGraphs = 500;
    GraphSample probe = make_sample(DatasetKind::kMolHiv, 0);
    Model m =
        make_model(ModelKind::kGin, probe.node_dim(), probe.edge_dim());

    Engine engine(m, {});
    RunWorkspace workspace;
    SampleStream sequential(DatasetKind::kMolHiv, kGraphs);
    std::vector<RunResult> expected;
    expected.reserve(kGraphs);
    for (std::size_t i = 0; i < kGraphs; ++i)
        expected.push_back(
            engine.run(sequential.next(), RunOptions{}, workspace));

    PoolConfig pool;
    pool.num_dies = 3;
    PoolScheduler scheduler(m, {}, pool);
    SampleStream stream(DatasetKind::kMolHiv, kGraphs);
    std::vector<std::future<RunResult>> futures;
    futures.reserve(kGraphs);
    for (std::size_t i = 0; i < kGraphs; ++i)
        futures.push_back(scheduler.submit(stream.next()));

    for (std::size_t i = 0; i < kGraphs; ++i) {
        RunResult got = futures[i].get();
        EXPECT_EQ(got.prediction, expected[i].prediction) << i;
        EXPECT_TRUE(got.embeddings == expected[i].embeddings) << i;
        EXPECT_EQ(got.stats.total_cycles, expected[i].stats.total_cycles)
            << i;
    }
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.completed, kGraphs);
    EXPECT_EQ(st.fast.failed, 0u);
}

// ---- Failures inside a die ---------------------------------------------

TEST(PoolScheduler, DieFailureFailsOnlyItsOwnJob)
{
    // A sample whose node_dim (8) does not match the model (16) passes
    // prepare() and consistent() on the submitting thread, then throws
    // from Model::check_sample on the die. Among good jobs, under gang
    // and space-share, as a one-die job and as a sharded P=2 job (the
    // leading task throws while the other task holds the second die):
    // only its future throws, every other job stays bit-identical to
    // Engine::run, exactly one failure is counted on its path, every
    // lease it took comes back, drain() returns, and the pool still
    // completes the next job.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    const GraphSample bad = make_random_sample(
        make_ring_lattice(600, 2), 8, 0, 0xBAD);
    ASSERT_TRUE(model.prepare(bad).consistent());
    std::vector<GraphSample> good;
    for (int i = 0; i < 6; ++i)
        good.push_back(make_random_sample(
            make_ring_lattice(200 + 50 * i, 2), 16, 0, 0x600 + i));
    Engine reference(model, cfg);

    for (PoolPolicy policy :
         {PoolPolicy::kSpaceShare, PoolPolicy::kFifoGang}) {
        for (bool sharded : {false, true}) {
            SCOPED_TRACE(std::string(pool_policy_name(policy)) +
                         (sharded ? " sharded" : " one-die"));
            PoolConfig pool;
            pool.num_dies = 2;
            pool.policy = policy;
            pool.start_paused = true;
            PoolScheduler scheduler(model, cfg, pool);
            ShardConfig two;
            two.num_shards = 2;

            std::vector<std::future<RunResult>> fs;
            for (int i = 0; i < 3; ++i)
                fs.push_back(scheduler.submit(good[i]));
            std::future<RunResult> fbad = sharded
                ? scheduler.submit_sharded_as_run(bad, two, RunOptions{})
                : scheduler.submit(bad);
            for (int i = 3; i < 6; ++i)
                fs.push_back(scheduler.submit(good[i]));
            scheduler.drain();

            EXPECT_THROW(fbad.get(), std::invalid_argument);
            for (int i = 0; i < 6; ++i) {
                RunResult got = fs[i].get();
                RunResult want = reference.run(good[i]);
                EXPECT_TRUE(got.embeddings == want.embeddings) << i;
                EXPECT_EQ(got.prediction, want.prediction) << i;
                EXPECT_EQ(got.stats.total_cycles, want.stats.total_cycles)
                    << i;
            }
            PoolStats st = scheduler.stats();
            EXPECT_EQ(st.fast.completed, 6u);
            EXPECT_EQ(st.fast.failed, sharded ? 0u : 1u);
            EXPECT_EQ(st.sharded.failed, sharded ? 1u : 0u);
            EXPECT_EQ(st.sharded.completed, 0u);
            EXPECT_EQ(scheduler.metrics()->snapshot().counters.at(
                          "pool.failed_total"),
                      1u);
            EXPECT_EQ(scheduler.pool().busy(), 0u);
            EXPECT_EQ(st.tasks_running, 0u);
            std::size_t leases = 0;
            for (const DieStats &d : st.dies)
                leases += d.leases;
            if (policy == PoolPolicy::kFifoGang) {
                EXPECT_EQ(leases, sharded ? 8u : 7u)
                    << "6 good one-die jobs + the failed job's width";
            } else {
                // Space sharing starts the P=2 job on the first free
                // die; its holding task gets the second die only if
                // one frees before the run throws.
                EXPECT_GE(leases, 7u);
                EXPECT_LE(leases, sharded ? 8u : 7u);
            }

            // The pool is whole again: a following sharded job takes
            // both dies and completes.
            ShardedRunResult after =
                scheduler.submit_sharded(good[5], two).get();
            EXPECT_EQ(after.shards.size(), 2u);
            scheduler.drain();
            EXPECT_EQ(scheduler.stats().sharded.completed, 1u);
            EXPECT_EQ(scheduler.stats().tasks_running, 0u);
            EXPECT_EQ(scheduler.pool().busy(), 0u);
        }
    }
}

// ---- Mixed concurrent workloads through the pooled service -------------

TEST(PoolScheduler, PreemptionRacingShutdownResolvesEveryFuture)
{
    // A preemption-enabled pool runs a long low-priority job; an urgent
    // job is submitted while another thread calls shutdown(). Even
    // rounds close admission first (the submit waits for closed()), so
    // the urgent job is refused while shutdown drains; odd rounds
    // submit first, so shutdown drains the urgent job and the
    // preemption it triggers. Every accepted future must resolve (a
    // broken promise throws from get()), the preempted job must equal
    // an isolated run bit for bit, every lease must come back, and the
    // counters must add up.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    GraphSample long_job = make_random_sample(
        make_ring_lattice(6000, 2), 16, 0, 0x570);
    GraphSample urgent = make_random_sample(
        make_ring_lattice(300, 2), 16, 0, 0x571);
    Engine reference(model, cfg);
    const RunResult il = reference.run(long_job);
    const RunResult iu = reference.run(urgent);

    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        PoolConfig pool;
        pool.num_dies = 1;
        pool.policy = PoolPolicy::kPriority;
        pool.enable_preemption = true;
        pool.preempt_priority_gap = 1;
        pool.start_paused = true;
        PoolScheduler scheduler(model, cfg, pool);

        JobSpec low;
        low.priority = 0;
        auto fl = scheduler.submit(long_job, RunOptions{}, low);
        scheduler.start();
        while (scheduler.stats().peak_busy_dies == 0)
            std::this_thread::yield();

        JobSpec high;
        high.priority = 5;
        std::future<RunResult> fu;
        bool accepted = false;
        auto submit_urgent = [&] {
            try {
                fu = scheduler.submit(urgent, RunOptions{}, high);
                accepted = true;
            } catch (const std::logic_error &) {
                // shutdown() closed admission first
            }
        };
        std::thread closer;
        if (round % 2 == 0) {
            closer = std::thread([&] { scheduler.shutdown(); });
            while (!scheduler.closed())
                std::this_thread::yield();
            submit_urgent();
            EXPECT_FALSE(accepted);
        } else {
            submit_urgent();
            EXPECT_TRUE(accepted);
            closer = std::thread([&] { scheduler.shutdown(); });
        }
        closer.join();

        RunResult rl;
        ASSERT_NO_THROW(rl = fl.get());
        EXPECT_TRUE(rl.embeddings == il.embeddings);
        EXPECT_EQ(rl.prediction, il.prediction);
        EXPECT_EQ(rl.stats.total_cycles, il.stats.total_cycles);
        if (accepted) {
            RunResult ru;
            ASSERT_NO_THROW(ru = fu.get());
            EXPECT_TRUE(ru.embeddings == iu.embeddings);
            EXPECT_EQ(ru.prediction, iu.prediction);
        }

        const PoolStats st = scheduler.stats();
        const std::size_t n_accepted = accepted ? 2 : 1;
        EXPECT_EQ(st.submitted(), n_accepted);
        EXPECT_EQ(st.completed() + st.fast.failed + st.sharded.failed,
                  n_accepted);
        EXPECT_EQ(scheduler.pool().busy(), 0u);
        EXPECT_EQ(st.tasks_running, 0u);
        EXPECT_EQ(st.preemptions,
                  scheduler.metrics()->snapshot().counters.at(
                      "pool.preemptions_total"));
        if (!accepted)
            EXPECT_EQ(st.preemptions, 0u);
    }
}

TEST(ShardedService, MixedStressStaysBitIdenticalAndDropsNothing)
{
    // Interleaved small (fast-path) and large (sharded) graphs through
    // one pooled ShardedService: every future must be fulfilled and
    // every answer must match the sequential single-engine reference
    // bit for bit (p_node=1 preserves accumulation order end to end).
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    ShardedServiceConfig svc;
    svc.shard_threshold_nodes = 1000;
    svc.shard.num_shards = 4;
    svc.pool.num_dies = 4;
    svc.pool.policy = PoolPolicy::kSpaceShare;
    svc.pool.queue_capacity = 8; // small: exercises backpressure too
    ShardedService service(model, cfg, svc);

    constexpr int kSmall = 30;
    constexpr int kLarge = 6;
    std::vector<GraphSample> small_samples;
    std::vector<GraphSample> large_samples;
    for (int i = 0; i < kSmall; ++i)
        small_samples.push_back(make_random_sample(
            testing::make_random_graph(i, 30 + i, 500 + i), 16, 0,
            600 + i));
    for (int i = 0; i < kLarge; ++i)
        large_samples.push_back(make_random_sample(
            make_ring_lattice(6000 + 500 * i, 2), 16, 0, 700 + i));

    // Interleave: every 5th submission is large.
    std::vector<std::future<RunResult>> small_futures;
    std::vector<std::future<RunResult>> large_futures;
    int s = 0, l = 0;
    while (s < kSmall || l < kLarge) {
        for (int k = 0; k < 5 && s < kSmall; ++k, ++s)
            small_futures.push_back(
                service.submit(small_samples[s]));
        if (l < kLarge)
            large_futures.push_back(
                service.submit(large_samples[l++]));
    }

    Engine reference(model, cfg);
    ShardedEngine sharded_ref(model, cfg, svc.shard);
    for (int i = 0; i < kSmall; ++i) {
        RunResult pooled = small_futures[i].get();
        RunResult direct = reference.run(small_samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
    }
    for (int i = 0; i < kLarge; ++i) {
        RunResult pooled = large_futures[i].get();
        ShardedRunResult direct = sharded_ref.run(large_samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
        EXPECT_GT(pooled.stats.comm_cycles, 0u) << i;
    }

    service.drain();
    PoolStats st = service.stats();
    EXPECT_EQ(st.fast.submitted, static_cast<std::size_t>(kSmall));
    EXPECT_EQ(st.fast.completed, static_cast<std::size_t>(kSmall));
    EXPECT_EQ(st.sharded.submitted, static_cast<std::size_t>(kLarge));
    EXPECT_EQ(st.sharded.completed, static_cast<std::size_t>(kLarge));
    EXPECT_EQ(st.fast.failed + st.sharded.failed, 0u);
    EXPECT_EQ(st.fast.rejected + st.sharded.rejected, 0u)
        << "kBlock admission must never drop an admission future";
    EXPECT_GE(st.peak_busy_dies, 2u);
}

} // namespace
} // namespace flowgnn
