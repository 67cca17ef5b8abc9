// Simple undirected graph optimized for the operations the dK machinery
// needs:
//   * O(1) expected edge-existence queries (the flat edge hash shared
//     with EdgeIndex, graph/flat_edge_hash.hpp),
//   * O(1) uniform random edge selection (dense edge array),
//   * O(deg) edge removal (swap-erase in adjacency; O(1) in the edge array),
//   * cache-friendly neighbor iteration (contiguous adjacency vectors).
//
// Every graph read from an edge list or built in bulk (io::read_edge_list,
// Multigraph::to_simple, the matching repair) goes through one bulk
// build, from_edges_dedup, which sizes each adjacency row from a degree
// count and fills the rows in edge order: neighbors(v) lists v's edges
// in the order they were given (until a remove_edge swap-erases).  A
// graph whose rows carry state (EdgeIndex::to_graph, a checkpoint's
// rows) is built by from_rows, which keeps the rows verbatim.
//
// The graph is *simple*: no self-loops, no parallel edges.  Construction
// algorithms that naturally produce loops/multi-edges (pseudograph,
// matching) use orbis::Multigraph and convert.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/flat_edge_hash.hpp"
#include "util/check.hpp"
#include "util/keys.hpp"

namespace orbis {

using NodeId = std::uint32_t;

struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// n isolated nodes.
  explicit Graph(NodeId n) : adjacency_(n) {}

  /// Build from an edge list; duplicate edges and loops are rejected.
  /// The check rides on the edge-hash insert, so it costs no extra
  /// probe even for lists simple by construction (EdgeIndex::to_graph).
  static Graph from_edges(NodeId n, std::span<const Edge> edges);

  /// The one bulk build (see above).  Skips loops and duplicates (for
  /// noisy inputs), appending them in order to `*skipped` if given.
  static Graph from_edges_dedup(NodeId n, std::span<const Edge> edges,
                                std::vector<Edge>* skipped = nullptr);

  /// What from_rows throws for rows that are not a simple graph's: the
  /// first defective row found, and (in what()) why.
  struct RowError : std::invalid_argument {
    RowError(NodeId bad_row, const char* why)
        : std::invalid_argument(why), row(bad_row) {}
    NodeId row;
  };

  /// Builds from adjacency rows, kept verbatim: neighbors(v) is rows[v]
  /// as given, and edges() lists each edge once, from its lower
  /// endpoint's row, in row-major order.  Throws RowError for an id out
  /// of range, a self-loop, a neighbor listed twice, or an edge listed
  /// in one of its two rows only.
  static Graph from_rows(std::vector<std::vector<NodeId>> rows);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(adjacency_.size());
  }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  std::size_t degree(NodeId v) const {
    util::expects(v < num_nodes(), "Graph::degree: node out of range");
    return adjacency_[v].size();
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    util::expects(v < num_nodes(), "Graph::neighbors: node out of range");
    return adjacency_[v];
  }

  bool has_edge(NodeId u, NodeId v) const {
    if (u >= num_nodes() || v >= num_nodes() || u == v) return false;
    return edge_index_.contains(util::pair_key(u, v));
  }

  /// Adds edge (u,v). Returns false (graph unchanged) for loops/duplicates.
  bool add_edge(NodeId u, NodeId v);

  /// Removes edge (u,v). Returns false if the edge does not exist.
  bool remove_edge(NodeId u, NodeId v);

  /// Appends a fresh isolated node; returns its id.
  NodeId add_node();

  /// The i-th edge of the internal dense edge array.  The array order is
  /// unspecified and changes on removal (swap-with-last), which is exactly
  /// what uniform random edge sampling wants.
  const Edge& edge_at(std::size_t index) const {
    util::expects(index < edges_.size(), "Graph::edge_at: index out of range");
    return edges_[index];
  }

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Sum of degrees / n; 0 for the empty graph.
  double average_degree() const noexcept;

  std::size_t max_degree() const noexcept;

  std::vector<std::size_t> degree_sequence() const;

  friend bool operator==(const Graph& a, const Graph& b);

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Edge> edges_;
  FlatEdgeHash edge_index_;  // pair_key(u,v) -> index into edges_
};

}  // namespace orbis
