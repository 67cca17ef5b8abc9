// Flat mutable edge index — the single adjacency structure behind every
// degree-frozen rewiring process.
//
// Every rewiring process in this library performs degree-preserving
// moves, so node degrees are frozen for the lifetime of a run.  That
// invariant buys what a general-purpose Graph cannot offer:
//
//   * CSR adjacency with FIXED row extents: each cell belongs to its
//     row's node for the index's lifetime, so a cell names a half-edge
//     (owner, neighbor), and each cell knows its twin — the edge's cell
//     in the neighbor's row.  A swap rewrites four neighbor entries and
//     their twins in place (no vector erase/push);
//   * an open-addressing edge hash (pair key -> the edge's cell in its
//     lower endpoint's row) for O(1) duplicate-edge lookup and O(1) swap
//     commits.  It is the FlatEdgeHash every Graph also keeps
//     (graph/flat_edge_hash.hpp), sized once here for m.
//
// Proposal draws read the rows only: a uniform edge is a uniform cell,
// and a half-edge anchored in degree class c is a uniform cell of the
// class's rows (every class-c node has exactly k_c cells).  So the draws
// are a function of the rows alone, and EdgeIndex(to_graph()) — which
// copies the rows verbatim — draws exactly as the index it was exported
// from.
//
// Beyond the O(1) whole-swap commit (apply_swap), the index supports
// single-edge remove_edge/add_edge in O(1): rows carry a current size
// that may transiently drop below the frozen capacity while a move is
// mid-flight (removal swap-pops inside the row, insertion appends), and
// draws are only legal when every row is full again.  The trade moves
// (gen/rewiring_engine.hpp) use this path; dk::DkState prices and
// commits whole swaps only.
//
// Degrees are compressed to dense class ids (sorted by degree) so
// objective code can use flat matrices instead of hash maps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis {

class EdgeIndex {
 public:
  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Copies g's rows verbatim (neighbors(v) == g.neighbors(v)).
  explicit EdgeIndex(const Graph& g);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(degree_.size());
  }
  std::size_t num_edges() const noexcept { return hash_.size(); }

  /// Frozen degree of v (degrees never change under double-edge swaps);
  /// also the fixed capacity of v's CSR row.
  std::uint32_t degree(NodeId v) const { return degree_[v]; }

  /// Live degree of v: equals degree(v) between swaps, but may be lower
  /// while a remove/add sequence is mid-flight.
  std::uint32_t current_degree(NodeId v) const { return row_size_[v]; }

  // Degree-class compression: class ids are dense and sorted by degree.
  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(class_degree_.size());
  }
  std::uint32_t node_class(NodeId v) const { return node_class_[v]; }
  std::uint32_t class_degree(std::uint32_t c) const {
    return class_degree_[c];
  }
  /// Class id for a degree, or npos if no node has that degree.
  std::uint32_t class_of_degree(std::uint32_t degree) const;
  const std::vector<NodeId>& nodes_in_class(std::uint32_t c) const {
    return class_nodes_[c];
  }

  /// Calls f(u, v) once per live edge, with u < v, in row-major order.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (const NodeId v : neighbors(u)) {
        if (u < v) f(u, v);
      }
    }
  }
  bool has_edge(NodeId u, NodeId v) const {
    return hash_.contains(util::pair_key(u, v));
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + row_offset_[v], row_size_[v]};
  }

  /// Uniform random half-edge (owner, neighbor): a uniform cell, so each
  /// edge comes up in each orientation with probability 1/(2m).
  /// Requires num_edges() > 0 and every row full (no move mid-flight).
  Edge sample_half_edge(util::Rng& rng) const {
    const std::size_t cell = rng.uniform(adj_.size());
    return Edge{cell_owner_[cell], adj_[cell]};
  }

  /// Uniform random half-edge (anchor, neighbor) anchored at a node of
  /// degree class c: uniform(n_c·k_c) picks a class-c node and one of
  /// its k_c cells.  Requires k_c > 0 and every row full.
  Edge sample_class_half_edge(std::uint32_t cls, util::Rng& rng) const {
    const std::uint32_t k = class_degree_[cls];
    const std::vector<NodeId>& nodes = class_nodes_[cls];
    const std::size_t pick = rng.uniform(nodes.size() * k);
    const NodeId anchor = nodes[pick / k];
    return Edge{anchor, adj_[row_offset_[anchor] + pick % k]};
  }

  /// Prefetches the edge-hash probe group of pair (u,v), ahead of a
  /// has_edge() structural check (docs/parallel.md, "Prefetching in the
  /// proposal loops").  Advisory only: it can never change a result.
  void prefetch_edge_key(NodeId u, NodeId v) const {
    hash_.prefetch(util::pair_key(u, v));
  }

  /// Applies the double-edge swap (a,b),(c,d) -> (a,d),(c,b) in O(1):
  /// each endpoint keeps its cell and only the neighbor stored there
  /// changes, so the rows after a swap do not depend on how it was
  /// labeled.  Preconditions: both edges exist, all four endpoints are
  /// distinct, and neither replacement edge is present.
  void apply_swap(NodeId a, NodeId b, NodeId c, NodeId d);

  /// Removes edge (u,v) in O(1): swap-and-pop in both CSR rows.
  /// Precondition: the edge exists.
  void remove_edge(NodeId u, NodeId v);

  /// Adds edge (u,v) in O(1), appending to both CSR rows.
  /// Preconditions: u != v, the edge is absent, and both rows are below
  /// their frozen capacity (only degree-restoring insertions are legal).
  void add_edge(NodeId u, NodeId v);

  /// Exports the live rows as a Graph (Graph::from_rows), so that
  /// EdgeIndex(to_graph()) has exactly these rows.
  Graph to_graph() const;

 private:
  // The EdgeIndex tests audit the cell invariants below directly.
  friend struct EdgeIndexAudit;

  void remove_row_entry(std::uint32_t cell);

  std::vector<std::uint32_t> degree_;      // frozen degrees = row capacities
  std::vector<std::uint32_t> row_size_;    // live row fill counts
  std::vector<std::uint32_t> node_class_;  // node -> degree class
  std::vector<std::uint32_t> class_degree_;
  std::vector<std::vector<NodeId>> class_nodes_;

  std::vector<std::size_t> row_offset_;  // CSR offsets (fixed extents)
  std::vector<NodeId> adj_;              // mutable neighbor entries
  std::vector<NodeId> cell_owner_;       // the (fixed) node of each cell
  std::vector<std::uint32_t> twin_;      // the edge's cell in the other row
  FlatEdgeHash hash_;  // edge -> its cell in the lower endpoint's row
};

}  // namespace orbis
