#include "ghost/ghost_engine.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "core/phase_model.h"
#include "core/stage_executor.h"
#include "obs/trace_session.h"

namespace flowgnn {

namespace {

/**
 * Prices one die's run over its local subgraph: owned vertices pay
 * full NT work, ghosts only re-stream into the scatter (see DieShape).
 * The die loads only its owned vertices' records and its local edges;
 * ghost slots cost one id word each (their payload arrives over the
 * link, priced separately).
 */
RunStats
price_ghost_die(const GhostShard &shard, const Model &model,
                const EngineConfig &cfg, const RunOptions &opts,
                std::size_t node_dim, std::size_t edge_dim)
{
    const DieShape die{
        .n_nodes = shard.local_graph.num_nodes,
        .n_owned = static_cast<NodeId>(shard.info.owned_nodes),
        .is_owned = shard.is_owned.data(),
        .load_words = shard.info.owned_nodes * (node_dim + 1) +
                      shard.local_graph.edges.size() * (edge_dim + 2) +
                      shard.info.ghost_nodes};
    PricingBuffers buf;
    DiePricer pricer(model, cfg, opts, die, shard.local_graph, buf, 1);
    RunStats stats;
    pricer.begin(stats);
    for (std::size_t si = 0; si < model.num_stages(); ++si)
        pricer.stage(si, stats);
    pricer.finish(stats);
    return stats;
}

/**
 * Emits the modeled per-die execution — load, per-layer boundary
 * exchange, per-stage compute, head — as cycle-domain spans on
 * Track::kGhost, one explicitly-addressed row per die, serialized in
 * model order. comm[p] is the exchange feeding phase p's scatter
 * (RunStats::layer_comm_cycles convention), so it precedes stage p.
 */
void
emit_modeled_timeline(obs::TraceSession &session,
                      const std::vector<RunStats> &per_die,
                      const std::vector<std::vector<std::uint64_t>>
                          &per_layer_comm,
                      const obs::CycleClockMap &map)
{
    char nm[48];
    for (std::size_t t = 0; t < per_die.size(); ++t) {
        const RunStats &s = per_die[t];
        const std::uint32_t tid =
            obs::TraceSession::kExplicitTidBase +
            static_cast<std::uint32_t>(t);
        std::snprintf(nm, sizeof nm, "die %zu (modeled)", t);
        session.name_row(obs::Track::kGhost, tid, nm);

        std::uint64_t cursor = 0;
        auto emit = [&](const char *label, std::uint64_t cycles) {
            if (cycles == 0)
                return;
            session.span_on(obs::Track::kGhost, tid, label,
                            map.to_ns(cursor),
                            map.to_ns(cursor + cycles));
            cursor += cycles;
        };

        emit("load", s.load_cycles);
        const std::vector<std::uint64_t> &comm = per_layer_comm[t];
        for (std::size_t p = 0; p < s.phase_cycles.size(); ++p) {
            if (p < comm.size() && comm[p] != 0) {
                std::snprintf(nm, sizeof nm, "exchange %zu", p);
                emit(nm, comm[p]);
            }
            std::snprintf(nm, sizeof nm, "stage %zu", p);
            emit(nm, s.phase_cycles[p]);
        }
        emit("head", s.head_cycles);
    }
}

} // namespace

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const GraphSample &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link)
{
    return run_ghost_plan(model, config, SampleRef(prepared),
                          std::move(plan), opts, link, 1);
}

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link,
               unsigned host_cores)
{
    return run_ghost_plan(model, config, prepared, std::move(plan),
                          opts, link, nullptr, host_cores);
}

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link,
               GhostResumeState *resume, unsigned host_cores)
{
    ShardedRunResult out;
    obs::TraceSession *session = obs::TraceSession::current();
    const std::uint64_t run_start_ns =
        session ? session->now_ns() : 0;

    if (!plan.sharded) {
        Engine engine(model, config);
        RunWorkspace ws;
        RunResult r;
        if (resume != nullptr) {
            if (engine.run_resumable(prepared, opts, ws,
                                     resume->checkpoint, r,
                                     resume->max_stages, host_cores) ==
                SegmentOutcome::kPreempted) {
                resume->preempted = true;
                resume->plan = std::move(plan);
                return out;
            }
            resume->preempted = false;
        } else {
            r = engine.run_prepared(prepared, opts, ws, host_cores);
        }
        out.embeddings = std::move(r.embeddings);
        out.prediction = r.prediction;
        GhostShard &shard = plan.shards.front();
        shard.info.stats = r.stats;
        out.shards.push_back(std::move(shard.info));
        out.stats = std::move(r.stats);
        return out;
    }

    config.validate();
    check_stage_dataflow(model);

    // ---- Per-die timing, one thread per die ----
    // Timing is structural: it needs no value of the functional pass,
    // so a run that cannot yield prices its dies alongside that pass.
    // A preemptible run prices once, after the segment that completes.
    // (jthreads: joined on every exit path, exceptions included.)
    const std::size_t node_dim = prepared.node_dim;
    const std::size_t edge_dim = prepared.edge_dim;
    std::vector<RunStats> per_die(plan.shards.size());
    std::vector<std::jthread> pricers;
    auto start_pricing = [&] {
        pricers.reserve(plan.shards.size());
        for (std::size_t t = 0; t < plan.shards.size(); ++t) {
            pricers.emplace_back([&, t] {
                char nm[32];
                std::snprintf(nm, sizeof nm, "price die %zu", t);
                if (obs::TraceSession *s = obs::TraceSession::current())
                    s->name_thread(obs::Track::kGhost, nm);
                obs::Span span(obs::Track::kGhost, nm);
                per_die[t] =
                    price_ghost_die(plan.shards[t], model, config,
                                    opts, node_dim, edge_dim);
            });
        }
    };
    if (resume == nullptr)
        start_pricing();

    // ---- Global functional pass, src-major order ----
    // The values are computed once over the whole graph, in src-major
    // order — the order a single-NT-unit die sees, which is what makes
    // ghost runs bit-identical to unsharded single-NT runs (and keeps
    // the result invariant in the shard count). With no recorded
    // order the executor pulls that order over node ranges on
    // `host_cores` threads, a pooled job's leased dies. Quantization
    // points are the engine's own, and since its quantizer is
    // idempotent, the re-quantization at every boundary crossing is
    // value-preserving. Only this pass checkpoints: it is the sole
    // carrier of values.
    {
        obs::Span span(obs::Track::kGhost, "functional pass");
        LayerCheckpoint fresh;
        StageBuffers buf;
        StageExecutor exec(model, prepared, opts, buf,
                           resume ? resume->checkpoint : fresh,
                           host_cores);
        while (!exec.done()) {
            exec.run_stage();
            if (resume != nullptr &&
                exec.should_yield(resume->max_stages)) {
                exec.checkpoint(resume->checkpoint);
                resume->preempted = true;
                resume->plan = std::move(plan);
                return out;
            }
        }
        if (resume != nullptr) {
            resume->preempted = false;
            resume->checkpoint = LayerCheckpoint{};
        }
        exec.finish(out.embeddings, out.prediction);
    }

    if (resume != nullptr)
        start_pricing();
    pricers.clear(); // joins

    // ---- Compose: per-layer exchanges against per-phase windows ----
    std::vector<std::vector<std::uint64_t>> per_layer_comm;
    per_layer_comm.reserve(plan.shards.size());
    for (std::size_t t = 0; t < plan.shards.size(); ++t) {
        GhostShard &shard = plan.shards[t];
        shard.info.stats = per_die[t];
        per_layer_comm.push_back(std::move(shard.layer_comm_cycles));
        out.shards.push_back(std::move(shard.info));
    }
    out.stats =
        compose_shard_stats(per_die, per_layer_comm, link.overlap);
    out.cut_edges = plan.cut_edges;
    out.replication_factor = plan.replication_factor;

    // The modeled multi-die execution — per-layer exchanges between
    // per-stage compute windows — onto the wall timeline, anchored at
    // the instant this run started.
    if (session)
        emit_modeled_timeline(
            *session, per_die, per_layer_comm,
            obs::CycleClockMap{run_start_ns, config.clock_mhz});
    return out;
}

} // namespace flowgnn
