// Flat mutable edge index — the single adjacency structure behind every
// degree-frozen rewiring process.
//
// Every rewiring process in this library performs degree-preserving
// double-edge swaps, so node degrees are frozen for the lifetime of a
// run.  That invariant buys three things a general-purpose Graph cannot
// offer:
//
//   * CSR adjacency with FIXED row extents: a swap replaces neighbor
//     entries in place (no vector erase/push), O(1) with the positions
//     kept in the edge hash;
//   * an open-addressing edge hash (pair key -> edge slot; the slot's
//     record holds both adjacency positions) for O(1) duplicate-edge
//     lookup and O(1) swap commits.  It is the FlatEdgeHash every Graph
//     also keeps (graph/flat_edge_hash.hpp), sized once here for m;
//   * per-degree-class half-edge buckets: a 2K-preserving swap partner
//     (deg(d) = deg(b) or deg(c) = deg(a)) is drawn directly from the
//     bucket of the required degree class instead of rejection-sampled
//     from the full edge set.
//
// Beyond the O(1) whole-swap commit (apply_swap), the index supports
// single-edge remove_edge/add_edge in O(1): rows carry a current size
// that may transiently drop below the frozen capacity while a move is
// mid-flight.  The trade moves (gen/rewiring_engine.hpp) use this path;
// dk::DkState prices and commits whole swaps only.
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

  /// Half-edge handle: an edge slot plus which endpoint anchors it.
  struct HalfEdge {
    std::uint32_t slot = 0;
    bool anchor_is_u = false;
  };

  explicit EdgeIndex(const Graph& g);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(degree_.size());
  }
  std::size_t num_edges() const noexcept { return edges_.size(); }

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
  /// Number of half-edge handles currently in class c's bucket.
  std::size_t bucket_size(std::uint32_t c) const {
    return buckets_[c].size();
  }

  const Edge& edge_at(std::uint32_t slot) const { return edges_[slot]; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }
  bool has_edge(NodeId u, NodeId v) const {
    return hash_.contains(util::pair_key(u, v));
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + row_offset_[v], row_size_[v]};
  }

  /// Uniform random edge slot (requires num_edges() > 0).
  std::uint32_t sample_edge(util::Rng& rng) const {
    return static_cast<std::uint32_t>(rng.uniform(edges_.size()));
  }

  /// Prefetches the edge-hash probe group of pair (u,v), ahead of a
  /// has_edge() structural check (docs/parallel.md, "Prefetching in the
  /// proposal loops").  Advisory only: it can never change a result.
  void prefetch_edge_key(NodeId u, NodeId v) const {
    hash_.prefetch(util::pair_key(u, v));
  }

  /// Uniform random half-edge anchored at a node of degree class c;
  /// false if the class has no incident edges.
  bool sample_half_edge(std::uint32_t cls, util::Rng& rng,
                        HalfEdge& out) const;

  /// Applies the double-edge swap (a,b),(c,d) -> (a,d),(c,b) in O(1).
  /// Preconditions: both edges exist, all four endpoints are distinct,
  /// and neither replacement edge is present.
  void apply_swap(NodeId a, NodeId b, NodeId c, NodeId d);

  /// Removes edge (u,v) in O(1): swap-and-pop in both CSR rows, the
  /// dense edge array and the half-edge buckets.
  /// Precondition: the edge exists.
  void remove_edge(NodeId u, NodeId v);

  /// Adds edge (u,v) in O(1), appending to both CSR rows.
  /// Preconditions: u != v, the edge is absent, and both rows are below
  /// their frozen capacity (only degree-restoring insertions are legal).
  void add_edge(NodeId u, NodeId v);

  /// Exports the current edge set as a Graph.
  Graph to_graph() const;

 private:
  struct EdgeRecord {
    std::uint32_t pos_u = 0;  // adj_ index of v within u's row
    std::uint32_t pos_v = 0;  // adj_ index of u within v's row
    std::uint32_t bucket_pos_u = 0;  // position of the u-anchored half-edge
    std::uint32_t bucket_pos_v = 0;  // ... and the v-anchored one
  };

  static std::uint64_t half_edge_handle(std::uint32_t slot, bool anchor_is_u) {
    return (static_cast<std::uint64_t>(slot) << 1) |
           static_cast<std::uint64_t>(anchor_is_u);
  }

  void bucket_insert(std::uint32_t slot, bool anchor_is_u);
  void bucket_remove(std::uint32_t slot, bool anchor_is_u);
  std::uint32_t& bucket_backref(std::uint32_t slot, bool anchor_is_u) {
    return anchor_is_u ? records_[slot].bucket_pos_u
                       : records_[slot].bucket_pos_v;
  }
  void remove_row_entry(NodeId anchor, std::uint32_t cell);

  std::vector<std::uint32_t> degree_;      // frozen degrees = row capacities
  std::vector<std::uint32_t> row_size_;    // live row fill counts
  std::vector<std::uint32_t> node_class_;  // node -> degree class
  std::vector<std::uint32_t> class_degree_;
  std::vector<std::vector<NodeId>> class_nodes_;

  std::vector<std::size_t> row_offset_;  // CSR offsets (fixed extents)
  std::vector<NodeId> adj_;              // mutable neighbor entries
  std::vector<std::uint32_t> adj_slot_;  // edge slot behind each adj_ cell

  std::vector<Edge> edges_;        // dense, O(1) uniform sampling
  std::vector<EdgeRecord> records_;
  FlatEdgeHash hash_;

  // buckets_[c]: half-edge handles anchored at class-c nodes.
  std::vector<std::vector<std::uint64_t>> buckets_;
};

}  // namespace orbis
