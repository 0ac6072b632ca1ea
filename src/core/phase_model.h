/**
 * @file
 * The timing half of a run: it prices work and computes no value.
 * Each pipeline phase — node count, per-node NT accumulate cycles,
 * output stream width, the destination-bank split of the scatter — is
 * priced under any of the four PipelineModes (cycle-stepped for the
 * queue-based ones, closed-form for the analytic ones). The one thing
 * about the overlapped dataflow that changes a float result is the
 * order in which each bank's MP unit finishes source nodes, so the
 * pricing records exactly that: every final (node, bank) MP
 * completion, in completion order. The stage executor
 * (core/stage_executor.h) replays it to compute the values.
 *
 * DiePricer is the one pricing loop over a run — bank map and BankWork
 * split, each stage's phase (both GAT rounds), the GAT epilogue and
 * the head. Engine prices one die over the whole graph; the
 * ghost-exchange executor (src/ghost) prices each die over its local
 * subgraph, where ghost vertices (embeddings received over the
 * inter-die link) re-stream at zero accumulate cost — the same
 * mechanism the GAT re-stream round uses. The callers differ only in
 * DieShape, which is what guarantees a ghost die and the single-die
 * engine price identical work identically.
 */
#ifndef FLOWGNN_CORE_PHASE_MODEL_H
#define FLOWGNN_CORE_PHASE_MODEL_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "nn/model.h"

namespace flowgnn {

inline std::uint64_t
ceil_div_u64(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Per-node destination-bank workload: (bank id, edges in bank). */
struct BankWork {
    std::uint32_t bank;
    std::uint32_t edges;
};

/** One final MP completion: `bank`'s MP unit finished source `node`. */
struct MpCompletion {
    NodeId node;
    std::uint32_t bank;
};

struct StageSchedule;

/** The NT-to-MP conv whose messages stage `si`'s phase scatters (stage
 * si + 1), or null. A GAT stage gathers its own, in the combine. */
const Layer *scattered_stage(const Model &model, std::size_t si);

/** Graph-sized pricing buffers, resized (never shrunk) per run. */
struct PricingBuffers {
    std::vector<std::uint32_t> bank_of; ///< destination node -> MP bank
    std::vector<std::uint32_t> bank_count; ///< node x bank edge counts
    std::vector<std::vector<BankWork>> banks; ///< per source node
    std::vector<std::uint64_t> acc; ///< per-node accumulate cycles
};

/** What differs between the dies that price one model's run. */
struct DieShape {
    /** Vertices of the die's graph (owned + ghost on a ghost die). */
    NodeId n_nodes = 0;
    /** Vertices with NT work in node-local stages and the GAT
     * epilogue; n_nodes on a single die. */
    NodeId n_owned = 0;
    /** Per vertex, 1 if owned; null when all are. A ghost vertex only
     * re-streams its received embedding into scatter phases, at zero
     * accumulate cost (a GAT ghost pays the local projection). */
    const std::uint8_t *is_owned = nullptr;
    /** Words of the die's input DMA (64 words per cycle). */
    std::uint64_t load_words = 0;
};

/**
 * Prices one die's run: begin() (units, load DMA), stage() once per
 * model stage in order, then finish() (GAT epilogue, head). Phase
 * trace events are offset by stats.total_cycles, which until finish()
 * is the sum of the phases priced so far.
 */
class DiePricer
{
  public:
    /**
     * Builds the stage schedule, the destination-bank map (modulo, or
     * greedy-balanced per cfg.bank_policy) and each source node's
     * BankWork split of `graph` into `buf`. `threads` parallelizes the
     * balanced map's degree count (0 = all cores). References are
     * borrowed for the pricer's lifetime.
     */
    DiePricer(const Model &model, const EngineConfig &cfg,
              const RunOptions &opts, const DieShape &die,
              const GraphRef &graph, PricingBuffers &buf,
              unsigned threads = 0);
    ~DiePricer();

    /** Resets `stats` to a fresh run and prices its load DMA. */
    void begin(RunStats &stats) const;

    /**
     * Prices stage `si` (both rounds of a GAT stage) into `stats`.
     * A given `order` is cleared and, for a non-GAT scatter phase,
     * receives every final (node, bank) MP completion in completion
     * order. Within one bank that is the order in which the bank's MP
     * unit finished source nodes; the two analytic modes complete
     * src-major (node ascending, then bank ascending).
     */
    void stage(std::size_t si, RunStats &stats,
               std::vector<MpCompletion> *order = nullptr);

    /** Adds the GAT epilogue (last stage attention), the head, and
     * the load DMA to stats.total_cycles. */
    void finish(RunStats &stats) const;

  private:
    const Model &model_;
    const EngineConfig &cfg_;
    const RunOptions &opts_;
    const DieShape die_;
    PricingBuffers &buf_;
    std::vector<StageSchedule> schedule_;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_PHASE_MODEL_H
