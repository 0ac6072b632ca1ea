#include "nn/layer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flowgnn {

LayerContext
make_layer_context(const GraphSample &sample, const PnaParams &pna)
{
    return make_layer_context(SampleRef(sample), pna, 1);
}

LayerContext
make_layer_context(const SampleRef &sample, const PnaParams &pna,
                   unsigned threads)
{
    LayerContext ctx;
    ctx.dgn_field = sample.dgn_field;
    const NodeId n = sample.num_nodes();
    // Subgraph execution (multi-die sharding) supplies the full
    // graph's degrees alongside the features; otherwise count edges.
    if (sample.true_in_deg != nullptr)
        ctx.in_deg.assign(sample.true_in_deg, sample.true_in_deg + n);
    else
        ctx.in_deg = sample.graph.in_degrees(threads);
    if (sample.true_out_deg != nullptr)
        ctx.out_deg.assign(sample.true_out_deg,
                           sample.true_out_deg + n);
    else
        ctx.out_deg = sample.graph.out_degrees(threads);
    ctx.pna = pna;

    if (sample.dgn_field != nullptr) {
        const float *u = sample.dgn_field;
        ctx.dgn_norm.assign(n, 1e-6f);
        const std::size_t e = sample.num_edges();
        for (std::size_t i = 0; i < e; ++i) {
            float du = u[sample.graph.src(i)] - u[sample.graph.dst(i)];
            ctx.dgn_norm[sample.graph.dst(i)] += std::abs(du);
        }
    }
    return ctx;
}

void
encode_edge_message(const Linear &enc, const float *x_src,
                    const float *edge_feat, std::size_t dim, float *m)
{
    if (enc.in_dim() == 0) {
        std::copy(x_src, x_src + dim, m);
        return;
    }
    enc.forward_into(edge_feat, m);
    for (std::size_t i = 0; i < dim; ++i)
        m[i] = x_src[i] + m[i];
}

void
Layer::message_into(const float *, const float *, NodeId, NodeId,
                    const LayerContext &, float *) const
{
    throw std::logic_error(std::string(name()) +
                           ": layer has no message function");
}

void
Layer::gather_into(const InEdges &in, const Matrix &x,
                   const SampleRef &sample, const LayerContext &ctx,
                   const FixedPointFormat *quant, float *state,
                   float *msg) const
{
    const Aggregator agg = aggregator();
    for (std::size_t k = 0; k < in.count; ++k) {
        const NodeId src = in.srcs[k];
        const float *ef =
            sample.edge_dim ? sample.edge_row(in.edge_ids[k]) : nullptr;
        message_into(x.row(src), ef, src, in.dst, ctx, msg);
        if (quant)
            quantize_inplace(msg, agg.msg_dim(), *quant);
        agg.accumulate(state, msg);
        if (quant)
            quantize_inplace(state, agg.state_dim(), *quant);
    }
}

} // namespace flowgnn
