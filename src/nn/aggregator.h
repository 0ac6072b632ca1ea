/**
 * @file
 * Permutation-invariant message aggregation.
 *
 * Every message-passing layer declares an AggregatorKind; both the
 * reference executor and the dataflow engine accumulate messages
 * through this module so their arithmetic is identical. Aggregation
 * state for each destination node is a flat float record whose layout
 * depends on the kind — this mirrors the FlowGNN message buffer, which
 * holds the running aggregate (size O(N), not O(E), because scatter
 * and gather are merged; paper Sec. III-C).
 */
#ifndef FLOWGNN_NN_AGGREGATOR_H
#define FLOWGNN_NN_AGGREGATOR_H

#include <cstdint>

#include "tensor/matrix.h"

namespace flowgnn {

/** Aggregation function A(.) of the message-passing formulation. */
enum class AggregatorKind {
    kSum,  ///< plain sum (GCN, GIN)
    kMean, ///< running mean
    kMax,  ///< element-wise max
    kMin,  ///< element-wise min
    kPna,  ///< PNA: mean/std/max/min x degree scalers
    kDgn,  ///< DGN: mean of first half, |sum| of second half
};

/** Human-readable aggregator name. */
const char *aggregator_name(AggregatorKind kind);

/** Parameters for PNA degree scaling (delta = avg log-degree). */
struct PnaParams {
    float delta = 1.6094379f; ///< log(4 + 1), a typical molecular value
};

/**
 * Stateless policy describing state layout and operations for one
 * aggregator instance (kind + message dimension).
 */
class Aggregator
{
  public:
    Aggregator() = default;
    Aggregator(AggregatorKind kind, std::size_t msg_dim);

    AggregatorKind kind() const { return kind_; }
    std::size_t msg_dim() const { return msg_dim_; }

    /** Floats of per-node state in the message buffer. */
    std::size_t state_dim() const;

    /** Dimension of the finalized aggregate fed to the NT unit. */
    std::size_t out_dim() const;

    /** Resets one node's state to the aggregation identity. */
    void init(float *state) const;

    /** Folds one full message into the state. */
    void accumulate(float *state, const float *msg) const;

    /**
     * Produces the finalized aggregate for the NT unit: writes out_dim()
     * floats to `out` (which must not alias `state`).
     *
     * @param state   accumulated per-node state
     * @param degree  the destination node's in-degree (PNA scalers)
     * @param params  PNA scaling parameters
     * @param out     destination, out_dim() floats
     */
    void finalize_into(const float *state, std::uint32_t degree,
                       const PnaParams &params, float *out) const;

  private:
    AggregatorKind kind_ = AggregatorKind::kSum;
    std::size_t msg_dim_ = 0;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_AGGREGATOR_H
