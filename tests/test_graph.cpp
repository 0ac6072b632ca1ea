/** @file COO/CSR/CSC graph representation tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/graph.h"
#include "tensor/rng.h"

namespace flowgnn {
namespace {

CooGraph
diamond()
{
    // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
    CooGraph g;
    g.num_nodes = 4;
    g.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    return g;
}

TEST(CooGraph, DegreesMatchHandCount)
{
    CooGraph g = diamond();
    EXPECT_EQ(g.out_degrees(), (std::vector<std::uint32_t>{2, 1, 1, 0}));
    EXPECT_EQ(g.in_degrees(), (std::vector<std::uint32_t>{0, 1, 1, 2}));
}

TEST(CooGraph, ValidityChecksEndpoints)
{
    CooGraph g = diamond();
    EXPECT_TRUE(g.valid());
    g.edges.push_back({0, 4});
    EXPECT_FALSE(g.valid());
}

TEST(CooGraph, WithReverseEdgesMirrorsPositionally)
{
    CooGraph g = diamond();
    CooGraph r = g.with_reverse_edges();
    EXPECT_EQ(r.num_edges(), 8u);
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
        EXPECT_EQ(r.edges[i], g.edges[i]);
        EXPECT_EQ(r.edges[g.num_edges() + i].src, g.edges[i].dst);
        EXPECT_EQ(r.edges[g.num_edges() + i].dst, g.edges[i].src);
    }
}

TEST(CsrGraph, RowsContainOutNeighbors)
{
    CsrGraph csr(diamond());
    EXPECT_EQ(csr.num_nodes(), 4u);
    EXPECT_EQ(csr.num_edges(), 4u);
    EXPECT_EQ(csr.out_degree(0), 2u);
    std::vector<NodeId> nbrs;
    for (std::size_t s = csr.row_begin(0); s < csr.row_end(0); ++s)
        nbrs.push_back(csr.dst(s));
    std::sort(nbrs.begin(), nbrs.end());
    EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(csr.out_degree(3), 0u);
}

TEST(CsrGraph, EdgeIdsPreserveCooPositions)
{
    CooGraph g = diamond();
    CsrGraph csr(g);
    for (NodeId n = 0; n < 4; ++n)
        for (std::size_t s = csr.row_begin(n); s < csr.row_end(n); ++s) {
            EdgeId id = csr.edge_id(s);
            EXPECT_EQ(g.edges[id].src, n);
            EXPECT_EQ(g.edges[id].dst, csr.dst(s));
        }
}

TEST(CscGraph, ColsContainInNeighbors)
{
    CscGraph csc(diamond());
    EXPECT_EQ(csc.in_degree(3), 2u);
    std::vector<NodeId> srcs;
    for (std::size_t s = csc.col_begin(3); s < csc.col_end(3); ++s)
        srcs.push_back(csc.src(s));
    std::sort(srcs.begin(), srcs.end());
    EXPECT_EQ(srcs, (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(csc.in_degree(0), 0u);
}

TEST(CscGraph, EdgeIdsPreserveCooPositions)
{
    CooGraph g = diamond();
    CscGraph csc(g);
    for (NodeId n = 0; n < 4; ++n)
        for (std::size_t s = csc.col_begin(n); s < csc.col_end(n); ++s) {
            EdgeId id = csc.edge_id(s);
            EXPECT_EQ(g.edges[id].dst, n);
            EXPECT_EQ(g.edges[id].src, csc.src(s));
        }
}

TEST(Conversions, InvalidGraphThrows)
{
    CooGraph g = diamond();
    g.edges.push_back({9, 0});
    EXPECT_THROW(CsrGraph{g}, std::invalid_argument);
    EXPECT_THROW(CscGraph{g}, std::invalid_argument);
}

TEST(Conversions, EmptyGraphIsFine)
{
    CooGraph g;
    g.num_nodes = 3;
    CsrGraph csr(g);
    CscGraph csc(g);
    EXPECT_EQ(csr.num_edges(), 0u);
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(csr.out_degree(n), 0u);
        EXPECT_EQ(csc.in_degree(n), 0u);
    }
}

TEST(Conversions, SelfLoopsAndMultiEdgesPreserved)
{
    CooGraph g;
    g.num_nodes = 2;
    g.edges = {{0, 0}, {0, 1}, {0, 1}};
    CsrGraph csr(g);
    EXPECT_EQ(csr.out_degree(0), 3u);
    CscGraph csc(g);
    EXPECT_EQ(csc.in_degree(1), 2u);
    EXPECT_EQ(csc.in_degree(0), 1u);
}

/** Every destination's (src, edge id) pairs in the order a src-major
 * pass over the CSR reaches it. */
std::vector<std::vector<std::pair<NodeId, EdgeId>>>
push_order(const CooGraph &g)
{
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> cols(g.num_nodes);
    CsrGraph csr(g);
    for (NodeId s = 0; s < g.num_nodes; ++s)
        for (std::size_t i = csr.row_begin(s); i < csr.row_end(s); ++i)
            cols[csr.dst(i)].push_back({s, csr.edge_id(i)});
    return cols;
}

void
expect_src_major(const CooGraph &g, unsigned threads)
{
    const auto want = push_order(g);
    const CscGraph csc = CscGraph::src_major(g, true, threads);
    const CscGraph bare = CscGraph::src_major(g, false, threads);
    ASSERT_EQ(csc.num_edges(), g.num_edges());
    ASSERT_EQ(bare.num_edges(), g.num_edges());
    for (NodeId d = 0; d < g.num_nodes; ++d) {
        ASSERT_EQ(csc.in_degree(d), want[d].size());
        ASSERT_EQ(bare.in_degree(d), want[d].size());
        ASSERT_EQ(bare.edge_ids(d), nullptr);
        for (std::size_t k = 0; k < want[d].size(); ++k) {
            ASSERT_EQ(csc.srcs(d)[k], want[d][k].first) << "column " << d;
            ASSERT_EQ(csc.edge_ids(d)[k], want[d][k].second)
                << "column " << d;
            ASSERT_EQ(bare.srcs(d)[k], want[d][k].first) << "column " << d;
        }
    }
}

TEST(CscGraph, SrcMajorColumnsFollowTheSrcMajorPush)
{
    // One sorted run per column (edges by source), two runs (an edge
    // list with its reverse appended), and shuffled edges with
    // self-loops and multi-edges (a full sort), at two sizes: the
    // larger is above kSerialCutoff edges, so column ranges run on
    // their own threads.
    Rng rng(0x5C);
    for (const NodeId n : {NodeId(40), NodeId(3000)}) {
        CooGraph sorted;
        sorted.num_nodes = n;
        const std::size_t fan = n < 100 ? 3 : 30;
        for (NodeId s = 0; s < n; ++s)
            for (std::size_t k = 0; k < fan; ++k)
                sorted.edges.push_back(
                    {s, NodeId(rng.uniform_index(n))});
        const CooGraph both = sorted.with_reverse_edges();
        CooGraph shuffled = both;
        for (std::size_t i = shuffled.edges.size(); i > 1; --i)
            std::swap(shuffled.edges[i - 1],
                      shuffled.edges[rng.uniform_index(i)]);
        shuffled.edges.push_back({1, 1});
        shuffled.edges.push_back({2, 1});
        shuffled.edges.push_back({2, 1});
        const CooGraph *graphs[] = {&sorted, &both, &shuffled};
        for (const CooGraph *g : graphs)
            for (unsigned threads : {1u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " E=" << g->num_edges()
                             << " threads=" << threads);
                expect_src_major(*g, threads);
            }
    }
}

} // namespace
} // namespace flowgnn
