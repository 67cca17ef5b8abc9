// Incremental dK bookkeeping — the engine room of every rewiring process.
//
// DkState maintains live histograms of a graph's 2K (JDD) and, at
// full_three_k, its 3K (wedge/triangle) distributions, together with the
// scalar objectives used by dK-space exploration:
//   S    — likelihood, Σ_edges k_u * k_v              (defined by P2)
//   S2   — second-order likelihood, Σ_wedges k1 * k3  (defined by P∧)
//   C̄    — mean local clustering, (1/n) Σ_v 2 t_v / (k_v (k_v - 1))
//
// The adjacency lives in a flat EdgeIndex (CSR rows + open-addressing
// edge hash) rather than a Graph: DkState either owns one (constructed
// from a Graph) or binds to one owned by a rewiring engine, so a 3K
// rewirer maintains exactly ONE adjacency structure.  Construction runs
// count_three_k (core/three_k_count.hpp) over that index, with no Graph
// export, for whatever 3K counts the level tracks.  Wedge/triangle
// deltas of a single edge mutation are computed by a timestamped
// mark-array common-neighbor pass — mark N(v), sweep N(u) — which costs
// O(deg u + deg v) with zero hash probes.  A JDD-preserving double-edge
// swap is priced without a mark array: only the rows of its two
// equal-degree endpoints are walked, with O(1) edge-hash probes per
// neighbor, so its cost is independent of the other two (often hub)
// endpoints' degrees.
//
// Single edge insertions/removals update everything with node degrees
// *frozen* at construction time: the intended use is degree-preserving
// double-edge swaps, where every intermediate state has the same final
// degree vector.  This freeze is what makes the bookkeeping exact for
// rewiring: histogram keys never shift mid-swap.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "graph/edge_index.hpp"
#include "graph/graph.hpp"

namespace orbis::dk {

/// Net wedge/triangle histogram deltas of a short mutation window (one
/// double-edge swap): bins whose net change is zero are dropped, so an
/// in-flight swap is 3K-preserving iff the journal is empty afterwards.
/// Rewiring engines also read the non-zero deltas to evaluate ΔD3
/// incrementally against a target without a per-mutation callback.
/// Stored as a flat vector, not a hash map: a swap touches O(deg) bins,
/// so linear coalescing beats node-allocating containers on the hot
/// path.  JDD deltas are deliberately not journaled: a swap's four JDD
/// bin moves follow in O(1) from the frozen endpoint degrees, so
/// callers that need them compute them directly.
struct DeltaJournal {
  using Entry = std::pair<std::uint64_t, std::int64_t>;
  using Map = std::vector<Entry>;  // tiny; zero-net entries are dropped
  Map wedge;
  Map triangle;

  /// Only meaningful after coalesce(): producers append raw per-event
  /// entries and coalesce once, so filling stays O(1) per event even on
  /// hub endpoints with many distinct neighbor degrees.
  bool all_zero() const noexcept { return wedge.empty() && triangle.empty(); }
  /// Sorts by key, merges duplicates and drops zero-net entries.
  void coalesce();
  void clear() noexcept {
    wedge.clear();
    triangle.clear();
  }
};

/// The full effect of a proposed double-edge swap (a,b),(c,d) ->
/// (a,d),(c,b), computed by DkState::evaluate_swap WITHOUT mutating the
/// state.  Rejecting a proposal costs nothing further; accepting it is
/// DkState::commit_swap.  Reuse one instance across attempts — the
/// buffers keep their capacity.
struct SwapDelta {
  NodeId a = 0, b = 0, c = 0, d = 0;
  // Net wedge/triangle bin deltas (full_three_k and swap_journal).
  DeltaJournal journal;
  // Net triangle-count change per node (node, net): one entry per node
  // whose count changes, none for the others.
  std::vector<std::pair<NodeId, std::int32_t>> triangle_nodes;
  double s2_delta = 0.0;
  // Change of Σ_v 2 t_v / (k_v(k_v-1)), summed over triangle_nodes: a
  // swap that changes no node's triangle count gives exactly 0.0.
  double clustering_delta = 0.0;

  void clear() noexcept {
    journal.clear();
    triangle_nodes.clear();
    s2_delta = 0.0;
    clustering_delta = 0.0;
  }
};

/// Every level keeps the JDD and S (one edge pass at construction); the
/// 1K/2K processes need no DkState, they run on a bare EdgeIndex.
enum class TrackLevel : int {
  three_k_scalars = 3, // + S2, C̄ and per-node triangles, but NOT the
                       //   wedge/triangle histograms (for exploration,
                       //   which only optimizes the scalars)
  full_three_k = 4,    // + the full 3K histograms (for 3K targeting);
                       //   both from one count_three_k pass
  swap_journal = 5,    // evaluate_swap's wedge/triangle journal, but no
                       //   3K histograms, triangle counts, S2 or C̄:
                       //   construction costs the JDD pass alone, and
                       //   commit_swap only moves the edges.  For
                       //   3K-preserving randomization and swap
                       //   counting, which only ask whether the journal
                       //   is empty.
};

class DkState {
 public:
  /// Standalone state: builds and owns a flat EdgeIndex for `graph`.
  DkState(const Graph& graph, TrackLevel level);

  /// Shared-adjacency state: binds to an EdgeIndex owned by the caller
  /// (typically a rewiring engine that also samples swap candidates from
  /// it).  add_edge/remove_edge mutate that index directly; the caller
  /// must not mutate it behind DkState's back.  The index must outlive
  /// this object at a stable address, so DkState is intentionally
  /// neither copyable nor movable.
  DkState(EdgeIndex& index, TrackLevel level);

  DkState(const DkState&) = delete;
  DkState& operator=(const DkState&) = delete;

  /// The adjacency backend (shared or owned).
  const EdgeIndex& index() const noexcept { return *index_; }

  /// Exports the current edge set as a Graph (O(n + m) copy).
  Graph to_graph() const { return index_->to_graph(); }

  TrackLevel level() const noexcept { return level_; }

  /// Frozen degree of v (the degree vector captured at construction).
  std::uint32_t frozen_degree(NodeId v) const { return index_->degree(v); }

  /// Removes edge (u,v), updating all histograms/scalars and the index.
  /// Precondition: the edge exists.
  void remove_edge(NodeId u, NodeId v);

  /// Adds edge (u,v), updating all histograms/scalars and the index.
  /// Precondition: the edge does not exist, u != v, and neither endpoint
  /// is at its frozen degree.
  void add_edge(NodeId u, NodeId v);

  /// Speculatively evaluates the double-edge swap (a,b),(c,d) ->
  /// (a,d),(c,b): fills `out` with the net wedge/triangle bin deltas
  /// (at full_three_k and swap_journal), the per-node triangle nets and
  /// the S2/C̄ scalar deltas, WITHOUT touching the histograms or the
  /// index.  Only the rows of the equal-degree pair are walked — b and
  /// d when deg b = deg d, else a and c; the lower-degree pair when both
  /// hold — with at most three edge-hash probes per neighbor, so a proposal
  /// costs O(deg b + deg d) (resp. O(deg a + deg c)) whatever the other
  /// pair's degrees, and rejecting it afterwards is free.
  /// Preconditions: the swap preserves the JDD (deg b = deg d or
  /// deg a = deg c; checked), both edges exist, the four endpoints are
  /// distinct, and neither replacement edge is present.  Mutates
  /// nothing, so a rejected proposal needs no undo.
  void evaluate_swap(NodeId a, NodeId b, NodeId c, NodeId d,
                     SwapDelta& out) const;

  /// Commits a swap evaluated by evaluate_swap: folds the recorded
  /// deltas into whatever the level tracks (nothing at swap_journal)
  /// and applies the swap to the index as one O(1) operation.  The swap
  /// must preserve the JDD (deg b = deg d or deg a = deg c, as every
  /// 2K-preserving candidate does), since the four cancelling JDD bin
  /// moves are skipped.
  void commit_swap(const SwapDelta& delta);

  const JointDegreeDistribution& jdd() const noexcept { return jdd_; }
  const ThreeKProfile& three_k() const noexcept { return three_k_; }

  double likelihood_s() const noexcept { return s_; }
  // The 3K scalars and triangle counts below are maintained at
  // three_k_scalars and full_three_k only.
  double second_order_likelihood() const noexcept { return s2_; }
  /// Mean local clustering over all nodes (degree<2 nodes contribute 0).
  double mean_clustering() const noexcept;
  std::int64_t triangles_at(NodeId v) const { return node_triangles_[v]; }

  /// Recomputes everything from scratch and verifies it matches the
  /// incrementally maintained state (test/debug aid). Throws on mismatch.
  void verify_consistency() const;

 private:
  void init(TrackLevel level);
  /// evaluate_swap's pass with the endpoints labeled so that
  /// deg b = deg d: walks N(b) and N(d) only.
  void price_equal_degree_pair(NodeId a, NodeId b, NodeId c, NodeId d,
                               SwapDelta& out) const;
  void bump_jdd(std::uint32_t k1, std::uint32_t k2, std::int64_t delta);
  void bump_wedge(std::uint32_t end1, std::uint32_t center,
                  std::uint32_t end2, std::int64_t delta);
  void bump_triangle(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                     std::int64_t delta);
  void bump_node_triangles(NodeId v, std::int64_t delta);

  /// evaluate_swap fills the wedge/triangle journal.
  bool journals_bins() const noexcept {
    return level_ == TrackLevel::full_three_k ||
           level_ == TrackLevel::swap_journal;
  }
  /// Per-node triangle counts, S2 and C̄ are live.
  bool tracks_scalars() const noexcept {
    return level_ == TrackLevel::three_k_scalars ||
           level_ == TrackLevel::full_three_k;
  }
  bool tracks_histograms() const noexcept {
    return level_ == TrackLevel::full_three_k;
  }

  std::unique_ptr<EdgeIndex> owned_;  // null when bound to a shared index
  EdgeIndex* index_;
  TrackLevel level_;
  JointDegreeDistribution jdd_;
  ThreeKProfile three_k_;
  std::vector<std::int64_t> node_triangles_;  // t_v (tracks_scalars)
  double s_ = 0.0;
  double s2_ = 0.0;
  double clustering_sum_ = 0.0;               // Σ_v 2 t_v / (k_v(k_v-1))

  // Timestamped mark array for the common-neighbor delta passes of the
  // mutating paths (add_edge/remove_edge): a node is "marked" iff
  // mark_[v] carries the current stamp, so clearing between passes is a
  // counter increment, not an O(n) sweep.  evaluate_swap never uses it.
  std::vector<std::uint64_t> mark_;
  std::uint64_t mark_stamp_ = 0;
};

}  // namespace orbis::dk
