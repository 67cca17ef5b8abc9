#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/edge_index.hpp"
#include "graph/multigraph.hpp"
#include "io/edge_list.hpp"

namespace orbis {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, IsolatedNodes) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(3);
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, RejectsDuplicate) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, AddEdgeOutOfRangeThrows) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(g.degree(3), std::invalid_argument);
  EXPECT_THROW(g.neighbors(7), std::invalid_argument);
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 99));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(Graph, RemoveEdge) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.remove_edge(1, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_FALSE(g.remove_edge(1, 2));  // already gone
}

TEST(Graph, RemoveKeepsEdgeArrayConsistent) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.remove_edge(0, 1);  // exercises swap-with-last
  std::set<std::pair<NodeId, NodeId>> seen;
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto& e = g.edge_at(i);
    seen.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
  EXPECT_EQ(seen.size(), 3u);
  // Removing an edge that was relocated by the swap must still work.
  for (const auto& [u, v] : seen) EXPECT_TRUE(g.remove_edge(u, v));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, NeighborsMatchEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto nbrs = g.neighbors(0);
  std::set<NodeId> neighbor_set(nbrs.begin(), nbrs.end());
  EXPECT_EQ(neighbor_set, (std::set<NodeId>{1, 2, 3}));
}

TEST(Graph, AddNode) {
  Graph g(2);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.add_edge(v, 0));
}

TEST(Graph, FromEdges) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const auto g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, FromEdgesRejectsBadInput) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 2}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 1}, {1, 0}}),
               std::invalid_argument);
}

TEST(Graph, FromEdgesDedupSkipsQuietly) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 1}, {1, 2}};
  const auto g = Graph::from_edges_dedup(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, AverageAndMaxDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);  // 2*3/4
  EXPECT_EQ(g.max_degree(), 3u);
  const auto degrees = g.degree_sequence();
  EXPECT_EQ(degrees, (std::vector<std::size_t>{3, 1, 1, 1}));
}

TEST(Graph, EqualityIgnoresConstructionOrder) {
  Graph a(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  Graph b(3);
  b.add_edge(1, 2);
  b.add_edge(1, 0);
  EXPECT_TRUE(a == b);
  b.remove_edge(1, 2);
  b.add_edge(0, 2);
  EXPECT_FALSE(a == b);
}

/// The churn's starting edge set: ~600 edges on 50 nodes.
std::vector<Edge> churn_edges() {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId v = u + 1; v < 50; v += (u % 3) + 1) edges.push_back({u, v});
  }
  return edges;
}

/// Deterministic remove/re-add churn, then verify adjacency == edge set.
void churn_and_check(Graph& g) {
  std::size_t removed = 0;
  for (NodeId u = 0; u < 50; u += 2) {
    for (NodeId v = u + 1; v < 50; v += 3) removed += g.remove_edge(u, v);
  }
  EXPECT_GT(removed, 0u);
  for (NodeId u = 0; u < 50; u += 5) {
    for (NodeId v = u + 1; v < 50; v += 2) g.add_edge(u, v);
  }
  std::size_t adjacency_total = 0;
  for (NodeId v = 0; v < 50; ++v) {
    for (const NodeId w : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(v, w));
    }
    adjacency_total += g.degree(v);
  }
  EXPECT_EQ(adjacency_total, 2 * g.num_edges());
  for (const auto& e : g.edges()) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Graph, StressAddRemoveStaysConsistent) {
  // Built edge by edge: the edge hash grows from empty through several
  // doublings.  Built in bulk: it is sized once for the edge list.
  // Growth must not change the graph.
  Graph grown(50);
  for (const Edge& e : churn_edges()) grown.add_edge(e.u, e.v);
  Graph sized = Graph::from_edges(50, churn_edges());
  EXPECT_GT(grown.num_edges(), 500u);
  EXPECT_EQ(grown.edges(), sized.edges());
  churn_and_check(grown);
  churn_and_check(sized);
  EXPECT_EQ(grown.edges(), sized.edges());
  EXPECT_TRUE(grown == sized);
}

/// neighbors(v) must list v's edges in edge order: rewiring chains draw
/// from the rows EdgeIndex(g) copies, so every bulk path pins them.
void expect_rows_in_edge_order(const Graph& g) {
  std::vector<std::vector<NodeId>> rows(g.num_nodes());
  for (const auto& e : g.edges()) {
    rows[e.u].push_back(e.v);
    rows[e.v].push_back(e.u);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = g.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), rows[v])
        << "node " << v;
  }
}

TEST(Graph, BulkPathsKeepAdjacencyInEdgeOrder) {
  const std::vector<Edge> simple = {{3, 1}, {1, 2}, {0, 3}, {2, 0},
                                    {1, 0}, {4, 2}, {3, 4}};
  const auto g = Graph::from_edges(5, simple);
  EXPECT_EQ(g.edges(), simple);
  expect_rows_in_edge_order(g);

  std::vector<Edge> noisy = simple;
  noisy.insert(noisy.begin() + 2, Edge{2, 2});
  noisy.insert(noisy.begin() + 4, Edge{2, 1});
  const auto dedup = Graph::from_edges_dedup(5, noisy);
  EXPECT_EQ(dedup.edges(), simple);
  expect_rows_in_edge_order(dedup);

  Multigraph multi(5);
  for (const auto& e : noisy) multi.add_edge(e.u, e.v);
  const auto simplified = multi.to_simple();
  EXPECT_EQ(simplified.edges(), simple);
  expect_rows_in_edge_order(simplified);

  // EdgeIndex copies the rows and to_graph exports them verbatim (its
  // edges() then follows the rows).
  const auto exported = EdgeIndex(g).to_graph();
  EXPECT_TRUE(exported == g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto mine = exported.neighbors(v);
    const auto theirs = g.neighbors(v);
    EXPECT_TRUE(std::equal(mine.begin(), mine.end(), theirs.begin(),
                           theirs.end()))
        << "node " << v;
  }

  std::istringstream in("# sparse ids\n30 10\n10 20\n20 20\n0 30\n20 0\n");
  const auto read = io::read_edge_list(in);
  ASSERT_EQ(read.graph.num_edges(), 4u);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> file_edges = {
      {30, 10}, {10, 20}, {0, 30}, {20, 0}};
  for (std::size_t i = 0; i < file_edges.size(); ++i) {
    const Edge e = read.graph.edge_at(i);
    EXPECT_EQ(read.original_ids[e.u], file_edges[i].first);
    EXPECT_EQ(read.original_ids[e.v], file_edges[i].second);
  }
  expect_rows_in_edge_order(read.graph);
}

}  // namespace
}  // namespace orbis
