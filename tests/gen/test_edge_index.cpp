#include "graph/edge_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis {

/// The cell invariants EdgeIndex's O(1) moves rely on: every live cell
/// lies in its owner's row, its twin is the live cell in the neighbor's
/// row that holds the owner (and points back), and the hash maps each
/// live edge to its lower endpoint's cell, which is the lower of the
/// edge's two cells because rows are laid out in node order.
struct EdgeIndexAudit {
  static void expect_cells_consistent(const EdgeIndex& index) {
    std::size_t live = 0;
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      const std::size_t begin = index.row_offset_[v];
      for (std::size_t cell = begin; cell < begin + index.row_size_[v];
           ++cell, ++live) {
        const NodeId w = index.adj_[cell];
        const std::size_t twin = index.twin_[cell];
        ASSERT_EQ(index.cell_owner_[cell], v) << "cell " << cell;
        ASSERT_NE(w, v) << "cell " << cell;
        ASSERT_LT(twin, index.adj_.size()) << "cell " << cell;
        ASSERT_EQ(index.cell_owner_[twin], w) << "twin of cell " << cell;
        ASSERT_LT(twin, index.row_offset_[w] + index.row_size_[w])
            << "twin of cell " << cell << " is not live";
        ASSERT_EQ(index.adj_[twin], v) << "twin of cell " << cell;
        ASSERT_EQ(index.twin_[twin], cell) << "twin of cell " << cell;
        ASSERT_EQ(index.hash_.find(util::pair_key(v, w)),
                  std::min(cell, twin))
            << "hash payload of edge " << v << "-" << w;
      }
    }
    EXPECT_EQ(live, 2 * index.hash_.size()) << "stale hash entries";
  }
};

namespace gen {
namespace {

Graph test_graph(std::uint64_t seed, NodeId n = 50, std::size_t m = 120) {
  util::Rng rng(seed);
  return builders::gnm(n, m, rng);
}

std::multiset<std::uint64_t> edge_keys(const std::vector<Edge>& edges) {
  std::multiset<std::uint64_t> keys;
  for (const auto& e : edges) keys.insert(util::pair_key(e.u, e.v));
  return keys;
}

/// Full structural audit: hash, CSR adjacency and degree classes must
/// all describe the same edge set, and the cell invariants (fixed owners,
/// twins, hash payloads) must hold.
void expect_consistent(const EdgeIndex& index, const Graph& reference) {
  EdgeIndexAudit::expect_cells_consistent(index);
  ASSERT_EQ(index.num_nodes(), reference.num_nodes());
  ASSERT_EQ(index.num_edges(), reference.num_edges());
  EXPECT_EQ(edge_keys(index.to_graph().edges()),
            edge_keys(reference.edges()));

  for (NodeId v = 0; v < reference.num_nodes(); ++v) {
    EXPECT_EQ(index.current_degree(v), reference.degree(v));
    EXPECT_EQ(index.class_degree(index.node_class(v)), index.degree(v));
    const auto nbrs = index.neighbors(v);
    std::multiset<NodeId> mine(nbrs.begin(), nbrs.end());
    const auto ref_nbrs = reference.neighbors(v);
    std::multiset<NodeId> expected(ref_nbrs.begin(), ref_nbrs.end());
    EXPECT_EQ(mine, expected) << "adjacency row of node " << v;
  }
  for (const auto& e : reference.edges()) {
    EXPECT_TRUE(index.has_edge(e.u, e.v));
    EXPECT_TRUE(index.has_edge(e.v, e.u));
  }
  EXPECT_FALSE(index.has_edge(0, 0));
}

TEST(FlatEdgeHash, InsertFindEraseUnderCollisions) {
  FlatEdgeHash hash(8);  // small capacity forces probe chains
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < 8; ++i) {
    keys.push_back(util::pair_key(i, i + 1));
    hash.insert(keys.back(), i);
  }
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(hash.find(keys[i]), i);
  // Erase every other key; survivors must stay findable (backward shift
  // must not break probe chains).
  for (std::uint32_t i = 0; i < 8; i += 2) hash.erase(keys[i]);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(hash.find(keys[i]), i % 2 == 0 ? FlatEdgeHash::npos : i);
  }
  hash.reassign(keys[1], 99);
  EXPECT_EQ(hash.find(keys[1]), 99u);
}

TEST(EdgeIndex, MirrorsSourceGraph) {
  const auto g = test_graph(5);
  const EdgeIndex index(g);
  expect_consistent(index, g);
  EXPECT_TRUE(index.to_graph() == g);
}

TEST(EdgeIndex, DegreeClassesAreSortedAndComplete) {
  const auto g = test_graph(6);
  const EdgeIndex index(g);
  for (std::uint32_t c = 1; c < index.num_classes(); ++c) {
    EXPECT_LT(index.class_degree(c - 1), index.class_degree(c));
  }
  std::size_t nodes_in_classes = 0;
  for (std::uint32_t c = 0; c < index.num_classes(); ++c) {
    nodes_in_classes += index.nodes_in_class(c).size();
    for (const NodeId v : index.nodes_in_class(c)) {
      EXPECT_EQ(index.node_class(v), c);
    }
    EXPECT_EQ(index.class_of_degree(index.class_degree(c)), c);
  }
  EXPECT_EQ(nodes_in_classes, g.num_nodes());
  EXPECT_EQ(index.class_of_degree(1u << 20), EdgeIndex::npos);
}

TEST(EdgeIndex, HalfEdgeBucketsAnchorTheRightClass) {
  // The class draw reads the rows: uniform(n_c·k_c) picks a class-c
  // node and one of its cells, so it must anchor in class c, name a
  // live edge, and reach every one of the class's n_c·k_c half-edges.
  const auto g = test_graph(7);
  const EdgeIndex index(g);
  util::Rng rng(8);
  for (std::uint32_t c = 0; c < index.num_classes(); ++c) {
    if (index.class_degree(c) == 0) continue;
    const std::size_t half_edges =
        index.nodes_in_class(c).size() * index.class_degree(c);
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 40 * half_edges; ++i) {
      const Edge half = index.sample_class_half_edge(c, rng);
      EXPECT_EQ(index.node_class(half.u), c);
      EXPECT_TRUE(index.has_edge(half.u, half.v));
      seen.insert((std::uint64_t{half.u} << 32) | half.v);
    }
    EXPECT_EQ(seen.size(), half_edges) << "class " << c;
  }
}

TEST(EdgeIndex, UniformHalfEdgesReachEveryCell) {
  const auto g = test_graph(17);
  const EdgeIndex index(g);
  util::Rng rng(18);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 40 * 2 * g.num_edges(); ++i) {
    const Edge half = index.sample_half_edge(rng);
    EXPECT_TRUE(index.has_edge(half.u, half.v));
    seen.insert((std::uint64_t{half.u} << 32) | half.v);
  }
  EXPECT_EQ(seen.size(), 2 * g.num_edges());
}

TEST(EdgeIndex, RowsAreCopiedVerbatimAndExportedVerbatim) {
  // A graph whose rows are NOT in edge order (a removal swap-erased
  // them): the index must keep them as they are, and to_graph must hand
  // back the index's live rows, so that a rebuild has the same rows.
  auto g = test_graph(19);
  const Edge gone = g.edges()[3];
  g.remove_edge(gone.u, gone.v);
  g.add_edge(gone.u, gone.v);
  EdgeIndex index(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto mine = index.neighbors(v);
    const auto theirs = g.neighbors(v);
    EXPECT_TRUE(std::equal(mine.begin(), mine.end(), theirs.begin(),
                           theirs.end()))
        << "row " << v;
  }
  util::Rng rng(20);
  for (int i = 0; i < 200; ++i) {
    const Edge e1 = index.sample_half_edge(rng);
    const Edge e2 = index.sample_half_edge(rng);
    if (e1.u == e2.u || e1.u == e2.v || e1.v == e2.u || e1.v == e2.v ||
        index.has_edge(e1.u, e2.v) || index.has_edge(e2.u, e1.v)) {
      continue;
    }
    index.apply_swap(e1.u, e1.v, e2.u, e2.v);
  }
  const Graph exported = index.to_graph();
  const EdgeIndex rebuilt(exported);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto live = index.neighbors(v);
    const auto copy = rebuilt.neighbors(v);
    EXPECT_TRUE(
        std::equal(live.begin(), live.end(), copy.begin(), copy.end()))
        << "row " << v;
  }
}

TEST(EdgeIndex, ApplySwapKeepsEveryStructureConsistent) {
  const auto g = test_graph(9);
  EdgeIndex index(g);
  Graph reference = g;
  util::Rng rng(10);

  std::size_t performed = 0;
  while (performed < 300) {
    const Edge e1 = index.sample_half_edge(rng);
    Edge e2 = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    index.apply_swap(a, b, c, d);
    reference.remove_edge(a, b);
    reference.remove_edge(c, d);
    reference.add_edge(a, d);
    reference.add_edge(c, b);
    ++performed;
    if (performed % 50 == 0) expect_consistent(index, reference);
  }
  expect_consistent(index, reference);
  EXPECT_TRUE(index.to_graph() == reference);
}

// Single-edge mutations (the trade path): swaps decomposed into
// remove/remove/add/add must leave every structure — rows, twins,
// hash — consistent with a Graph replaying the same ops.
TEST(EdgeIndex, RemoveAddMutationsKeepEveryStructureConsistent) {
  for (const std::uint64_t seed : {3ull, 21ull}) {
    const auto g = test_graph(seed);
    EdgeIndex index(g);
    Graph reference = g;
    util::Rng rng(seed + 100);

    std::size_t performed = 0;
    std::size_t guard = 0;
    while (performed < 300 && guard++ < 300 * 100) {
      const Edge e1 = index.sample_half_edge(rng);
      Edge e2 = index.sample_half_edge(rng);
      if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
      const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
      if (a == c || a == d || b == c || b == d) continue;
      if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
      index.remove_edge(a, b);
      index.remove_edge(c, d);
      EXPECT_FALSE(index.has_edge(a, b));
      EXPECT_EQ(index.current_degree(a), index.degree(a) - 1);
      index.add_edge(a, d);
      index.add_edge(c, b);
      reference.remove_edge(a, b);
      reference.remove_edge(c, d);
      reference.add_edge(a, d);
      reference.add_edge(c, b);
      ++performed;
      if (performed % 50 == 0) expect_consistent(index, reference);
    }
    ASSERT_GT(performed, 0u);
    expect_consistent(index, reference);
    EXPECT_TRUE(index.to_graph() == reference);
  }
}

// Interleaving the O(1) whole-swap commit with decomposed remove/add
// sequences must not disturb either path's bookkeeping.
TEST(EdgeIndex, ApplySwapAndMutationsInterleave) {
  const auto g = test_graph(13);
  EdgeIndex index(g);
  Graph reference = g;
  util::Rng rng(14);

  std::size_t performed = 0;
  while (performed < 200) {
    const Edge e1 = index.sample_half_edge(rng);
    Edge e2 = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    if (performed % 2 == 0) {
      index.apply_swap(a, b, c, d);
    } else {
      index.remove_edge(a, b);
      index.remove_edge(c, d);
      index.add_edge(a, d);
      index.add_edge(c, b);
    }
    reference.remove_edge(a, b);
    reference.remove_edge(c, d);
    reference.add_edge(a, d);
    reference.add_edge(c, b);
    ++performed;
  }
  expect_consistent(index, reference);
}

// Curveball trades swap-pop and append inside rows, many cells at a
// time: the cell invariants must survive whole trade and mixed runs.
TEST(EdgeIndex, TradesKeepEveryCellConsistent) {
  for (const MoveKind move : {MoveKind::trade, MoveKind::mixed}) {
    for (const int d : {1, 2}) {
      SCOPED_TRACE(testing::Message() << to_string(move) << " d=" << d);
      RewiringEngine engine(test_graph(23, 60, 300));
      RandomizeOptions options;
      options.d = d;
      options.move = move;
      util::Rng rng(24);
      RewiringStats stats;
      engine.randomize(options, 2000, rng, &stats);
      EXPECT_GT(stats.accepted, 0u);
      EdgeIndexAudit::expect_cells_consistent(engine.index());
    }
  }
}

TEST(EdgeIndex, MutationPreconditionsThrow) {
  const auto g = test_graph(17);
  EdgeIndex index(g);
  const Edge e = index.to_graph().edges()[0];
  EXPECT_THROW(index.add_edge(e.u, e.v), std::invalid_argument);  // exists
  EXPECT_THROW(index.add_edge(e.u, e.u), std::invalid_argument);  // loop
  index.remove_edge(e.u, e.v);
  EXPECT_THROW(index.remove_edge(e.u, e.v), std::invalid_argument);
  index.add_edge(e.u, e.v);  // restore: rows back at frozen capacity
  EXPECT_TRUE(index.has_edge(e.u, e.v));
}

}  // namespace
}  // namespace gen
}  // namespace orbis
