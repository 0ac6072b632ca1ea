/**
 * @file
 * The FlowGNN dataflow engine: a cycle-stepped microarchitecture model
 * of the accelerator in paper Fig. 3(b) that counts cycles (for every
 * latency experiment) and computes the GNN functionally (for
 * cross-checking against the reference executor). The two halves are
 * separate: per stage, the timing model (core/phase_model.h) prices
 * the phase and records the order in which each bank's MP unit
 * completed source nodes, and the stage executor
 * (core/stage_executor.h) replays that order to compute the values.
 *
 * Architecture modeled per pipeline phase:
 *
 *   [node queue] -> Pnode x NT unit -> NT-to-MP adapter (on-the-fly
 *   multicast by destination bank, Papply -> Pscatter re-batching) ->
 *   Pnode*Pedge bounded FIFOs -> Pedge x MP unit -> banked ping-pong
 *   message buffers
 *
 * Each NT unit ping-pongs accumulate/output so the next node's
 * accumulation overlaps the current node's streaming; each MP unit
 * exclusively owns destination bank (dst % Pedge) so units never
 * conflict, with zero graph pre-processing. The four pipeline modes of
 * Fig. 4 are selectable for the ablation study.
 */
#ifndef FLOWGNN_CORE_ENGINE_H
#define FLOWGNN_CORE_ENGINE_H

#include "core/config.h"
#include "core/phase_model.h"
#include "core/stage_executor.h"
#include "core/stats.h"
#include "graph/sample.h"
#include "nn/model.h"

namespace flowgnn {

/** Output of one engine run. */
struct RunResult {
    /** Final node embeddings [num_nodes x embedding_dim]. */
    Matrix embeddings;
    /** Graph-level prediction from the pooled head. */
    float prediction = 0.0f;
    /** Timing and utilization statistics. */
    RunStats stats;

    /** Wall latency at the clock the engine was configured with. */
    double
    latency_ms() const
    {
        return stats.latency_ms();
    }

    /** Wall latency at an explicit what-if clock. */
    double
    latency_ms(double at_clock_mhz) const
    {
        return stats.latency_ms(at_clock_mhz);
    }
};

/**
 * Value + timing state at a message-passing layer boundary — the
 * preemption checkpoint format (docs/DESIGN.md "The preemption
 * checkpoint"). After stage k it holds the embeddings entering stage
 * k+1, the aggregation scattered during stage k's phase, and whether
 * stage k was attention (`embeddings` then holds projections whose
 * combine is deferred into stage k+1's prologue). Everything derived —
 * bank maps, CSR adjacency, stage schedule — is a pure function of
 * (sample, config) and rebuilt on resume, which is what makes resumed
 * runs bit-identical to uninterrupted ones. `stats` carries the timing
 * so far; the scheduler prices preemption overhead from
 * checkpoint_words() on its own ledger, never inside the run.
 */
struct LayerCheckpoint {
    /** Stages completed; the resume point. 0 = a fresh run. */
    std::size_t next_stage = 0;
    /** Per-node embeddings entering `next_stage`, one row per node
     * (quantized values are stored post-quantization, so bits are
     * preserved). */
    Matrix embeddings;
    /** Pending aggregation state (num_nodes x state_dim, flat), the
     * messages scattered for `next_stage`; empty when have_agg is
     * false. */
    std::vector<float> agg_state;
    bool have_agg = false;
    /** Stage next_stage-1 was GAT: `embeddings` holds projections. */
    bool pending_gat = false;
    /** Timing accumulated over completed stages (load DMA priced,
     * head not yet; total_cycles is the phase cycles so far). */
    RunStats stats;

    /** Checkpoint size in 4-byte words — what a scheduler charges as
     * store/reload DMA when pricing preemption delay. */
    std::uint64_t
    checkpoint_words() const
    {
        return agg_state.size() + embeddings.size();
    }
};

/** How a resumable run segment ended. */
enum class SegmentOutcome {
    kComplete,  ///< ran to the end; the RunResult is filled
    kPreempted, ///< yielded at a layer boundary; checkpoint updated
};

/**
 * Reusable per-run scratch memory. A workspace keeps the graph-sized
 * buffers (bank maps, embedding ping-pong arrays, aggregator state,
 * the MP completion order) alive across runs so a long-lived replica's
 * hot path stops paying per-graph allocation; each pool die owns
 * exactly one. Not thread-safe: never share one workspace between
 * concurrent runs.
 */
class RunWorkspace
{
  private:
    friend class Engine;
    PricingBuffers pricing_;
    StageBuffers values_;
    /** The current stage's MP completion order: priced, then
     * replayed. */
    std::vector<MpCompletion> order_;
};

/**
 * FlowGNN accelerator instance: one compiled model kernel plus the
 * parallelism configuration. Graphs are streamed in one at a time with
 * zero pre-processing (run() accepts raw COO samples).
 */
class Engine
{
  public:
    /**
     * @param model  the GNN to accelerate (borrowed; must outlive the
     *               engine)
     * @param config parallelism and pipeline-mode settings
     */
    Engine(const Model &model, EngineConfig config = {});

    const EngineConfig &config() const { return config_; }
    const Model &model() const { return model_; }

    /**
     * Runs one graph end to end: input DMA, all pipeline phases,
     * global pooling, and the prediction head. The sample is prepared
     * internally (virtual node / DGN field) exactly as the reference
     * executor prepares it. Scratch memory comes from `ws`, which is
     * reused across calls; the overloads without a workspace allocate
     * a fresh one per call (convenient, but slower on a hot path).
     */
    RunResult run(const GraphSample &sample, const RunOptions &opts,
                  RunWorkspace &ws) const;
    RunResult run(const GraphSample &sample,
                  const RunOptions &opts) const;
    RunResult run(const GraphSample &sample) const;

    /**
     * Runs a sample that is already in prepared form, skipping
     * Model::prepare. This is the entry point for callers that manage
     * preparation themselves — notably sharded execution and the pool,
     * which prepare the full graph once (virtual node / DGN field) on
     * the submitting thread; preparing it again would add a second
     * virtual node and change the model's semantics.
     */
    RunResult run_prepared(const GraphSample &prepared,
                           const RunOptions &opts, RunWorkspace &ws) const;

    /**
     * The canonical run body: a borrowed SampleRef, so mmap-backed
     * graphs (io::GraphView::sample) run without ever materializing a
     * GraphSample. The GraphSample overloads delegate here. `threads`
     * parallelizes the host-side adjacency builds and degree counts
     * (0 = all cores); results are bit-identical for every value. The
     * ref's backing must stay alive for the duration of the call.
     */
    RunResult run_prepared(const SampleRef &prepared,
                           const RunOptions &opts, RunWorkspace &ws,
                           unsigned threads = 0) const;

    /**
     * Preemptible run: executes stages starting from `ckpt.next_stage`
     * (0 = fresh run) and either completes the run (`result` is
     * filled, `ckpt` is reset to fresh) or yields at a message-passing
     * layer boundary (`ckpt` holds the resume state, `result` is
     * meaningless). A segment yields when `opts.preempt` is requested
     * or after `max_stages` stages complete in THIS call — but always
     * runs at least one stage (progress guarantee) and never yields
     * after the final stage (the epilogue is cheaper than a
     * checkpoint). Resuming from the returned checkpoint — on this
     * engine or any identically-configured one — produces embeddings,
     * prediction, and RunStats bit-identical to an uninterrupted run.
     * The checkpoint's buffers are consumed (moved from) on resume.
     */
    SegmentOutcome run_resumable(const SampleRef &prepared,
                                 const RunOptions &opts, RunWorkspace &ws,
                                 LayerCheckpoint &ckpt, RunResult &result,
                                 std::size_t max_stages = std::size_t(-1),
                                 unsigned threads = 0) const;

  private:
    const Model &model_;
    EngineConfig config_;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_ENGINE_H
