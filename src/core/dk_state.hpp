// Swap-only 3K bookkeeping — the engine room of every 3K-level rewiring.
//
// DkState prices and commits JDD-preserving double-edge swaps (paper
// §4.1.4, §4.3), the only move its chains make: evaluate_swap computes a
// proposal's net wedge/triangle bin deltas and its S2 and C̄ deltas
//   S2   — second-order likelihood, Σ_wedges k1 * k3  (defined by P∧)
//   C̄    — mean local clustering, (1/n) Σ_v t_v · 2 / (k_v (k_v - 1))
// without mutating anything, and commit_swap applies it.  The only dK
// data it stores is, at full_three_k, the 3K residual r = current −
// target (ThreeKResidual) with D3 = Σ r², written in exactly two
// places: construction and commit_swap.  A chain that follows S2 or C̄
// sums the deltas itself, starting from three_k_sums.
//
// The adjacency lives in a flat EdgeIndex (CSR rows + open-addressing
// edge hash) rather than a Graph: DkState either owns one (constructed
// from a Graph) or binds to one owned by a rewiring engine, so a 3K
// rewirer maintains exactly ONE adjacency structure.  Construction at
// full_three_k counts the sorted 3K profile (count_three_k_profile,
// core/three_k_count.hpp) over that index, with no Graph export, and
// merges it with the target into the residual.  Pricing a swap walks
// only the rows of its two equal-degree endpoints, with O(1) edge-hash
// probes per neighbor, so its cost is independent of the other two
// (often hub) endpoints' degrees.  Degrees are those of the index,
// which a swap never changes, so bin keys never shift.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/three_k_profile.hpp"
#include "graph/edge_index.hpp"
#include "graph/graph.hpp"
#include "util/flat_table.hpp"

namespace orbis::dk {

/// Packed 3K keys use 63 bits: bit 63 keeps triangle bins apart from
/// wedge bins in one table (the journal's scratch, the residual).
inline constexpr std::uint64_t kTriangleBinTag = std::uint64_t{1} << 63;

/// Net wedge/triangle histogram deltas of a short mutation window (one
/// double-edge swap): bins whose net change is zero are dropped, so an
/// in-flight swap is 3K-preserving iff the journal is empty afterwards.
/// Rewiring engines also read the non-zero deltas to evaluate ΔD3
/// incrementally against a target without a per-mutation callback.
/// JDD deltas are deliberately not journaled: a swap's four JDD bin
/// moves follow in O(1) from the frozen endpoint degrees, so callers
/// that need them compute them directly.
///
/// A producer calls add_wedge/add_triangle once per event and finish()
/// once.  Each event coalesces in O(1), whatever the journal's size,
/// through an open-addressing scratch table (bin -> entry) that the
/// journal owns and keeps across swaps: clear() retires every slot at
/// once by bumping a generation stamp, so a reused journal clears in
/// O(1) and allocates nothing.  The table starts at 64
/// slots (1 KB, L1-resident for the dozen bins a typical swap touches)
/// and doubles past half load, which only hub endpoints reach.
struct DeltaJournal {
  using Entry = std::pair<std::uint64_t, std::int64_t>;
  using Map = std::vector<Entry>;  // one entry per bin, first-touch order
  Map wedge;
  Map triangle;

  void add_wedge(std::uint64_t key, std::int64_t net) { add(key, net); }
  void add_triangle(std::uint64_t key, std::int64_t net) {
    add(key | kTriangleBinTag, net);
  }
  /// Drops the entries whose events summed to zero.  Call once, after
  /// the last event; clear() starts the next swap.
  void finish();
  /// Only meaningful after finish().
  bool all_zero() const noexcept { return wedge.empty() && triangle.empty(); }
  void clear() noexcept;

 private:
  friend struct DeltaJournalAudit;  // tests: stamp wrap-around
  static constexpr std::size_t kMinSlots = 64;
  struct Slot {
    std::uint64_t key = 0;  // tagged
    std::uint32_t stamp = 0;  // live iff == stamp_; 0 is never live
    std::uint32_t entry = 0;  // index into wedge or triangle
  };
  std::size_t home(std::uint64_t tagged) const noexcept;
  void add(std::uint64_t tagged, std::int64_t net);
  /// Doubles the table (kMinSlots when empty) and re-files the entries.
  void grow();

  std::vector<Slot> slots_;
  unsigned shift_ = 0;  // 64 - log2(slots_.size()), once allocated
  std::uint32_t stamp_ = 1;
};

/// The full effect of a proposed double-edge swap (a,b),(c,d) ->
/// (a,d),(c,b), computed by DkState::evaluate_swap WITHOUT mutating the
/// state.  Rejecting a proposal costs nothing further; accepting it is
/// DkState::commit_swap.  Reuse one instance across attempts — the
/// buffers and the journal's scratch table keep their capacity.
struct SwapDelta {
  NodeId a = 0, b = 0, c = 0, d = 0;
  // Net wedge/triangle bin deltas.
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

/// r = current − target for every 3K bin where the two differ, in one
/// signed flat table: wedge keys as util::wedge_key packs them,
/// triangle keys tagged with kTriangleBinTag.  D3 = Σ r²
/// is kept exact beside it.  A swap touches O(deg) bins, and pricing it
/// reads one bin per journal entry: ΔD3 = Σ (r + net)² − r².  Bins
/// where current and target agree are absent, so the table holds only
/// the disagreement (about a third of the bins of the two profiles on
/// hub-shaped graphs).
class ThreeKResidual {
 public:
  ThreeKResidual() = default;
  /// r = current − target, from merges of the sorted profiles.
  ThreeKResidual(const ThreeKProfile& current, const ThreeKProfile& target);

  std::int64_t wedge(std::uint64_t key) const { return at(key); }
  std::int64_t triangle(std::uint64_t key) const {
    return at(key | kTriangleBinTag);
  }
  std::size_t num_bins() const noexcept { return table_.size(); }
  /// D3 = Σ r².
  std::int64_t distance() const noexcept { return distance_; }

  /// ΔD3 of folding `journal` in, without folding it.
  std::int64_t delta_if_applied(const DeltaJournal& journal) const;
  /// Folds `journal` into r and D3.
  void apply(const DeltaJournal& journal);

  /// Same bins with the same residuals.
  friend bool operator==(const ThreeKResidual& a, const ThreeKResidual& b);

 private:
  struct SignedCountTraits {
    using Payload = std::int64_t;
    static constexpr bool occupied(std::uint64_t, std::int64_t r) noexcept {
      return r != 0;
    }
    static constexpr std::int64_t empty_payload() noexcept { return 0; }
  };
  using Table = util::FlatTable<SignedCountTraits>;

  std::int64_t at(std::uint64_t tagged) const {
    const std::size_t i = table_.find(tagged);
    return i == Table::npos ? 0 : table_.payload_at(i);
  }
  void add(std::uint64_t tagged, std::int64_t net);

  Table table_;
  std::int64_t distance_ = 0;
};

/// What a DkState builds and commit_swap folds.  evaluate_swap fills
/// the same SwapDelta at either level: the bin journal, the per-node
/// triangle nets and the S2/C̄ deltas.  The 1K/2K processes need no
/// DkState, they run on a bare EdgeIndex.
enum class TrackLevel {
  full_three_k,  // the 3K residual against the target, built from one
                 //   count_three_k pass and folded by commit_swap (for
                 //   3K targeting)
  swap_journal,  // no residual: builds nothing, and commit_swap only
                 //   moves the edges (for 3K-preserving randomization,
                 //   swap counting and S2/C̄ exploration, which read
                 //   only the journal or the scalar deltas)
};

/// S2 and the clustering sum Σ_v t_v · (2 / (k_v (k_v - 1))) of the
/// graph behind `index`, from one count_three_k pass: S2 is the exact
/// integer sum as a double, the clustering sum is added up in node
/// order.  Adding each committed swap's s2_delta or clustering_delta
/// follows them along a chain.
struct ThreeKSums {
  double s2 = 0.0;
  double clustering_sum = 0.0;
  NodeId num_nodes = 0;

  /// C̄ = clustering_sum / n (0 when n = 0).
  double mean_clustering() const noexcept;
};
ThreeKSums three_k_sums(const EdgeIndex& index);

class DkState {
 public:
  /// Standalone state: builds and owns a flat EdgeIndex for `graph`.
  /// At full_three_k the residual is taken against `target`, which must
  /// outlive this object; without one, against the empty profile (r is
  /// then the graph's own profile).
  DkState(const Graph& graph, TrackLevel level,
          const ThreeKProfile* target = nullptr);

  /// Shared-adjacency state: binds to an EdgeIndex owned by the caller
  /// (typically a rewiring engine that also samples swap candidates from
  /// it).  commit_swap mutates that index directly; the caller must not
  /// mutate it behind DkState's back.  The index must outlive this
  /// object at a stable address, so DkState is intentionally neither
  /// copyable nor movable.
  DkState(EdgeIndex& index, TrackLevel level,
          const ThreeKProfile* target = nullptr);

  DkState(const DkState&) = delete;
  DkState& operator=(const DkState&) = delete;

  /// The adjacency backend (shared or owned).
  const EdgeIndex& index() const noexcept { return *index_; }

  /// Exports the current edge set as a Graph (O(n + m) copy).
  Graph to_graph() const { return index_->to_graph(); }

  TrackLevel level() const noexcept { return level_; }

  /// Speculatively evaluates the double-edge swap (a,b),(c,d) ->
  /// (a,d),(c,b): fills `out` with the net wedge/triangle bin deltas,
  /// the per-node triangle nets and the S2/C̄ scalar deltas, WITHOUT
  /// touching the residual or the index.  Only the rows of the
  /// equal-degree pair are walked — b and d when deg b = deg d, else a
  /// and c; the lower-degree pair when both hold — with at most three
  /// edge-hash probes per neighbor, so a proposal costs O(deg b + deg d)
  /// (resp. O(deg a + deg c)) whatever the other pair's degrees, and
  /// rejecting it afterwards is free.
  /// Preconditions: the swap preserves the JDD (deg b = deg d or
  /// deg a = deg c; checked), both edges exist, the four endpoints are
  /// distinct, and neither replacement edge is present.  Mutates
  /// nothing, so a rejected proposal needs no undo.
  void evaluate_swap(NodeId a, NodeId b, NodeId c, NodeId d,
                     SwapDelta& out) const;

  /// Commits a swap evaluated by evaluate_swap: folds the journal into
  /// the residual and D3 (at full_three_k; nothing else is stored) and
  /// applies the swap to the index as one O(1) operation.  The swap
  /// must preserve the JDD (deg b = deg d or deg a = deg c, as every
  /// 2K-preserving candidate does; checked), as evaluate_swap requires.
  void commit_swap(const SwapDelta& delta);

  /// r = current − target and D3 (full_three_k; empty otherwise).
  const ThreeKResidual& residual() const noexcept { return residual_; }
  /// The profile the residual is taken against (null: the empty one).
  const ThreeKProfile* target() const noexcept { return target_; }

  /// Recounts the 3K profile from scratch and verifies that the
  /// incrementally maintained residual and D3 match it (test/debug aid;
  /// nothing to check below full_three_k).  Throws on mismatch.
  void verify_consistency() const;

 private:
  /// evaluate_swap's pass with the endpoints labeled so that
  /// deg b = deg d: walks N(b) and N(d) only.
  void price_equal_degree_pair(NodeId a, NodeId b, NodeId c, NodeId d,
                               SwapDelta& out) const;
  bool tracks_residual() const noexcept {
    return level_ == TrackLevel::full_three_k;
  }
  /// The residual of the index's current profile against target_.
  ThreeKResidual count_residual() const;

  std::unique_ptr<EdgeIndex> owned_;  // null when bound to a shared index
  EdgeIndex* index_;
  TrackLevel level_;
  const ThreeKProfile* target_;
  ThreeKResidual residual_;
};

}  // namespace orbis::dk
