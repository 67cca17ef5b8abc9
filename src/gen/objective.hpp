// Incremental ΔD objective evaluation shared by the rewiring modes.
//
//   JddObjective        D2 against a target JDD over frozen degree
//                       classes: a dense (current - target) difference
//                       matrix makes a proposed swap's ΔD2 an O(1),
//                       allocation-free integer computation; the guided
//                       2K proposer draws its deviating bins by rank in
//                       (c1, c2) order, a function of the matrix alone.
//                       4.125·C² bytes for C degree classes; C < 2√m + 1
//                       (the C distinct degrees sum to at most 2m), so
//                       16.5·m + O(√m) bytes at most: well under the
//                       EdgeIndex beside it (docs/scaling.md).
//
// D3 lives with the 3K state itself: DkState keeps the residual r =
// current − target and prices a proposal's speculative journal against
// it (dk::ThreeKResidual::delta_if_applied).
//
// Distances are exact integers: histogram counts and targets are counts,
// so D_d = Σ (count - target)^2 has no floating-point drift, and "reached
// the target" is distance() == 0, not a tolerance.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "graph/edge_index.hpp"
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

/// The Metropolis acceptance rule shared by the 2K and 3K targeting
/// chains: downhill and neutral moves always pass, uphill moves pass
/// with probability e^{-ΔD/T}.
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
  /// a swap with these endpoint classes (advisory only).
  void prefetch(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
                std::uint32_t cd) const {
    util::prefetch_read(&diff_[cell(ca, cb)]);
    util::prefetch_read(&diff_[cell(cc, cd)]);
    util::prefetch_read(&diff_[cell(ca, cd)]);
    util::prefetch_read(&diff_[cell(cc, cb)]);
  }

  bool has_deviating_bin() const noexcept { return deviating_count_ > 0; }

  /// Uniform random deviating bin (requires has_deviating_bin()): one
  /// uniform rank, selected in (c1, c2) order in O(log C + C/64).
  DeviatingBin sample_deviating_bin(util::Rng& rng) const;

 private:
  std::size_t cell(std::uint32_t c1, std::uint32_t c2) const {
    // canonical (min,max) cell of the upper-triangular logical matrix
    return c1 <= c2 ? c1 * num_classes_ + c2 : c2 * num_classes_ + c1;
  }
  std::int64_t bump(std::size_t cell_index, std::int64_t delta);
  void refresh_deviation(std::uint32_t c1, std::uint32_t c2);
  /// Adds `delta` to row c1's deviating count in the Fenwick tree.
  void add_to_row(std::uint32_t c1, std::int32_t delta);

  std::uint32_t num_classes_ = 0;
  std::vector<std::int32_t> diff_;      // current - target, per class pair
  std::int64_t distance_ = 0;

  // The deviating set, rank-selectable: bit c2 of row c1 (c1 <= c2) is
  // set iff bin (c1, c2) deviates, and a Fenwick tree over the rows
  // counts the set bits.
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> deviating_bits_;  // row-major bitmap
  std::vector<std::uint32_t> row_counts_;      // Fenwick tree, 1-based
  std::uint32_t deviating_count_ = 0;
};

}  // namespace orbis::gen
