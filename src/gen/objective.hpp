// Incremental ΔD objective evaluation shared by the rewiring modes.
//
//   JddObjective        D2 against a target JDD over frozen degree
//                       classes: a dense (current - target) difference
//                       matrix makes a proposed swap's ΔD2 an O(1),
//                       allocation-free integer computation, and doubles
//                       as the deviating-bin set the guided 2K proposer
//                       samples from.  O(C^2) memory in the class count.
//   SparseJddObjective  The same contract over an open-addressing table
//                       of occupied bins only (FlatEdgeHash design):
//                       memory follows the occupied-bin count, so 2K
//                       targeting scales to graphs whose dense matrix
//                       would not fit.  Chains are bit-identical to the
//                       dense backend's (same seed -> same accepted
//                       swaps); see objective_backend.hpp for selection.
//   ThreeKObjective     D3 against a target 3K profile, evaluated from
//                       the speculative delta journal of a proposed swap
//                       (DkState::evaluate_swap): exact ΔD3 before
//                       anything mutates, so rejected proposals cost
//                       nothing.
//
// Distances are exact integers: histogram counts and targets are counts,
// so D_d = Σ (count - target)^2 has no floating-point drift, and "reached
// the target" is distance() == 0, not a tolerance.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/dk_state.hpp"
#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "gen/objective_backend.hpp"
#include "graph/edge_index.hpp"
#include "util/flat_table.hpp"
#include "util/keys.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

/// A class-pair bin where the current histogram deviates from the
/// target, as sampled by the guided 2K proposer.
struct DeviatingBin {
  std::uint32_t c1 = 0;  // canonical: c1 <= c2
  std::uint32_t c2 = 0;
  bool deficit = false;  // current < target: the bin wants a new edge
};

/// The Metropolis acceptance rule shared by every targeting path (serial
/// engines and the optimistic parallel committer): downhill and neutral
/// moves always pass, uphill moves pass with probability e^{-ΔD/T}.
inline bool metropolis_accepts(std::int64_t delta, double temperature,
                               double uniform) noexcept {
  return delta <= 0 ||
         (temperature > 0.0 &&
          uniform < std::exp(-static_cast<double>(delta) / temperature));
}

class JddObjective {
 public:
  JddObjective(const EdgeIndex& index,
               const dk::JointDegreeDistribution& target);

  /// Current D2 (includes any target bins whose degrees do not exist in
  /// the graph — those are unreachable and contribute a constant).
  std::int64_t distance() const noexcept { return distance_; }

  /// Applies the bin moves of swap (a,b),(c,d) -> (a,d),(c,b), given the
  /// four endpoint degree CLASSES, and returns ΔD2.  Mutates the
  /// difference matrix; call revert() to undo a rejected trial.
  std::int64_t apply(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
                     std::uint32_t cd);
  void revert(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
              std::uint32_t cd);

  /// Refreshes deviating-set membership of the four bins an accepted
  /// swap touched (membership only changes at accepted swaps).
  void commit(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
              std::uint32_t cd);

  /// Prefetches the four difference-matrix cells apply() will bump for
  /// a swap with these endpoint classes (batched proposal evaluation;
  /// advisory only).
  void prefetch(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
                std::uint32_t cd) const {
    util::prefetch_read(&diff_[cell(ca, cb)]);
    util::prefetch_read(&diff_[cell(cc, cd)]);
    util::prefetch_read(&diff_[cell(ca, cd)]);
    util::prefetch_read(&diff_[cell(cc, cb)]);
  }

  bool has_deviating_bin() const noexcept { return !deviating_.empty(); }

  /// Uniform random deviating bin (requires has_deviating_bin()).
  DeviatingBin sample_deviating_bin(util::Rng& rng) const;

 private:
  std::size_t cell(std::uint32_t c1, std::uint32_t c2) const {
    // canonical (min,max) cell of the upper-triangular logical matrix
    return c1 <= c2 ? c1 * num_classes_ + c2 : c2 * num_classes_ + c1;
  }
  std::int64_t bump(std::size_t cell_index, std::int64_t delta);
  void refresh_deviation(std::uint32_t c1, std::uint32_t c2);

  std::uint32_t num_classes_ = 0;
  std::vector<std::int32_t> diff_;      // current - target, per class pair
  std::int64_t distance_ = 0;

  // Sampleable deviating set: packed (c1,c2) keys + position backrefs.
  static constexpr std::uint32_t no_position = 0xffffffffu;
  std::vector<std::uint64_t> deviating_;
  std::vector<std::uint32_t> deviating_pos_;  // per cell, or no_position
};

/// Sparse drop-in for JddObjective: the (current - target) differences
/// live in a util::FlatTable (the shared flat open-addressing
/// implementation — see util/flat_table.hpp) keyed by the canonical
/// class pair, so memory is O(occupied bins) instead of O(C^2).  The
/// deviating set stores packed class-pair keys and is maintained by
/// exactly the same push / swap-pop sequence as the dense backend
/// (including ascending construction order), which is what makes guided
/// sampling — and therefore whole chains — bit-identical across
/// backends.
class SparseJddObjective {
 public:
  SparseJddObjective(const EdgeIndex& index,
                     const dk::JointDegreeDistribution& target);

  std::int64_t distance() const noexcept { return distance_; }

  std::int64_t apply(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
                     std::uint32_t cd);
  void revert(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
              std::uint32_t cd);
  void commit(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
              std::uint32_t cd);

  /// Prefetches the probe groups of the four class-pair bins apply()
  /// will touch (same contract as JddObjective::prefetch).
  void prefetch(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
                std::uint32_t cd) const {
    table_.prefetch(bin_key(ca, cb));
    table_.prefetch(bin_key(cc, cd));
    table_.prefetch(bin_key(ca, cd));
    table_.prefetch(bin_key(cc, cb));
  }

  bool has_deviating_bin() const noexcept { return !deviating_.empty(); }
  DeviatingBin sample_deviating_bin(util::Rng& rng) const;

  std::size_t num_occupied_bins() const noexcept { return table_.size(); }
  /// Current table + deviating-set allocation (docs/scaling.md memory
  /// model; compare dense_jdd_objective_bytes).
  std::size_t memory_bytes() const noexcept;

 private:
  static constexpr std::uint32_t no_position = 0xffffffffu;

  /// Per-bin payload: the (current - target) diff plus the bin's index
  /// in the deviating list (or no_position).  Keys are
  /// util::pair_key(c1,c2) + 1 so 0 can mark an empty slot (class pair
  /// (0,0) packs to 0); diffs may sit at 0 transiently between apply()
  /// and revert()/commit(), so occupancy is key-carried, not
  /// diff-carried.
  struct Bin {
    std::int32_t diff = 0;       // current - target
    std::uint32_t dev_pos = no_position;  // deviating_ index
  };
  struct BinTraits : util::KeySentinelTraits<Bin> {};
  using Table = util::FlatTable<BinTraits>;

  /// Stored table key of the canonical class-pair bin (pair_key + 1 —
  /// see Bin's comment on the key-0 sentinel).
  static constexpr std::uint64_t bin_key(std::uint32_t c1,
                                         std::uint32_t c2) noexcept {
    return util::pair_key(c1, c2) + 1;
  }

  std::int64_t bump(std::uint32_t c1, std::uint32_t c2, std::int64_t delta,
                    bool erase_zero);
  void refresh_deviation(std::uint32_t c1, std::uint32_t c2);

  std::int64_t distance_ = 0;

  Table table_;  // occupied class-pair bins only

  std::vector<std::uint64_t> deviating_;  // packed pair keys (not +1)
};

class ThreeKObjective {
 public:
  /// D3 from a scan over every bin of both profiles.
  ThreeKObjective(const dk::DkState& state, const dk::ThreeKProfile& target);
  /// D3 known to be `distance` (a carried chain's last result).
  ThreeKObjective(const dk::ThreeKProfile& target, std::int64_t distance)
      : target_(&target), distance_(distance) {}

  std::int64_t distance() const noexcept { return distance_; }

  /// ΔD3 of a swap whose net bin changes are in `journal` but are NOT
  /// yet applied to `state`'s histograms (the speculative journal of
  /// DkState::evaluate_swap).  Call commit() when the swap is actually
  /// committed; a rejected proposal needs nothing.
  std::int64_t delta_if_applied(const dk::DkState& state,
                                const dk::DeltaJournal& journal) const;
  void commit(std::int64_t delta) noexcept { distance_ += delta; }

 private:
  const dk::ThreeKProfile* target_;
  std::int64_t distance_ = 0;
};

}  // namespace orbis::gen
