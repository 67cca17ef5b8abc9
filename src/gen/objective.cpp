#include "gen/objective.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/keys.hpp"

namespace orbis::gen {

namespace {

std::int64_t square(std::int64_t x) noexcept { return x * x; }

std::int64_t integer_squared_difference(const dk::SparseHistogram& a,
                                        const dk::SparseHistogram& b) {
  std::int64_t sum = 0;
  for (const auto& [key, count] : a.bins()) {
    sum += square(count - b.count(key));
  }
  for (const auto& [key, count] : b.bins()) {
    if (a.count(key) == 0) sum += square(count);
  }
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend selection (objective_backend.hpp).
// ---------------------------------------------------------------------------

ObjectiveBackend parse_objective_backend(std::string_view name) {
  if (name == "auto" || name == "automatic") {
    return ObjectiveBackend::automatic;
  }
  if (name == "dense") return ObjectiveBackend::dense;
  if (name == "sparse") return ObjectiveBackend::sparse;
  throw std::invalid_argument("unknown objective backend '" +
                              std::string(name) +
                              "' (valid: auto, dense, sparse)");
}

std::string_view to_string(ObjectiveBackend backend) noexcept {
  switch (backend) {
    case ObjectiveBackend::dense:
      return "dense";
    case ObjectiveBackend::sparse:
      return "sparse";
    default:
      return "auto";
  }
}

std::size_t dense_jdd_objective_bytes(std::uint32_t num_classes) noexcept {
  // diff_ (int32) + deviating_pos_ (uint32) over the full C x C array.
  // Past 2^26 classes the product would overflow size arithmetic; no
  // budget admits that anyway, so saturate.
  if (num_classes > (1u << 26)) return static_cast<std::size_t>(-1);
  const std::uint64_t cells =
      static_cast<std::uint64_t>(num_classes) * num_classes;
  return static_cast<std::size_t>(
      cells * (sizeof(std::int32_t) + sizeof(std::uint32_t)));
}

ObjectiveBackend resolve_objective_backend(ObjectiveBackend requested,
                                           std::uint32_t num_classes,
                                           std::size_t memory_budget_mb) {
  if (requested != ObjectiveBackend::automatic) return requested;
  // Saturate instead of wrapping: an absurdly large budget must read as
  // "unlimited", not overflow into a tiny one and silently pick sparse.
  const std::size_t budget_bytes =
      memory_budget_mb > (static_cast<std::size_t>(-1) >> 20)
          ? static_cast<std::size_t>(-1)
          : memory_budget_mb << 20;
  return dense_jdd_objective_bytes(num_classes) <= budget_bytes
             ? ObjectiveBackend::dense
             : ObjectiveBackend::sparse;
}

// ---------------------------------------------------------------------------
// JddObjective: dense difference matrix.
// ---------------------------------------------------------------------------

JddObjective::JddObjective(const EdgeIndex& index,
                           const dk::JointDegreeDistribution& target)
    : num_classes_(index.num_classes()) {
  diff_.assign(static_cast<std::size_t>(num_classes_) * num_classes_, 0);
  deviating_pos_.assign(diff_.size(), no_position);

  for (const auto& e : index.edges()) {
    ++diff_[cell(index.node_class(e.u), index.node_class(e.v))];
  }
  for (const auto& [key, count] : target.histogram().bins()) {
    const auto [k1, k2] = util::unpack_pair(key);
    const std::uint32_t c1 = index.class_of_degree(k1);
    const std::uint32_t c2 = index.class_of_degree(k2);
    if (c1 == EdgeIndex::npos || c2 == EdgeIndex::npos) {
      // No node of this degree exists: the bin is unreachable by degree-
      // preserving swaps and contributes a constant to D2.  The guided
      // proposer must never sample it, so it stays out of the matrix.
      distance_ += square(count);
      continue;
    }
    diff_[cell(c1, c2)] -= static_cast<std::int32_t>(count);
  }

  for (std::uint32_t c1 = 0; c1 < num_classes_; ++c1) {
    for (std::uint32_t c2 = c1; c2 < num_classes_; ++c2) {
      const std::int64_t d = diff_[cell(c1, c2)];
      distance_ += square(d);
      if (d != 0) refresh_deviation(c1, c2);
    }
  }
}

std::int64_t JddObjective::bump(std::size_t cell_index, std::int64_t delta) {
  const std::int64_t v = diff_[cell_index];
  diff_[cell_index] = static_cast<std::int32_t>(v + delta);
  // (v + delta)^2 - v^2
  return delta * (2 * v + delta);
}

std::int64_t JddObjective::apply(std::uint32_t ca, std::uint32_t cb,
                                 std::uint32_t cc, std::uint32_t cd) {
  // Bin moves of (a,b),(c,d) -> (a,d),(c,b); sequential bumps keep the
  // arithmetic exact when bins coincide.
  std::int64_t delta = 0;
  delta += bump(cell(ca, cb), -1);
  delta += bump(cell(cc, cd), -1);
  delta += bump(cell(ca, cd), +1);
  delta += bump(cell(cc, cb), +1);
  distance_ += delta;
  return delta;
}

void JddObjective::revert(std::uint32_t ca, std::uint32_t cb,
                          std::uint32_t cc, std::uint32_t cd) {
  std::int64_t delta = 0;
  delta += bump(cell(ca, cd), -1);
  delta += bump(cell(cc, cb), -1);
  delta += bump(cell(ca, cb), +1);
  delta += bump(cell(cc, cd), +1);
  distance_ += delta;
}

void JddObjective::commit(std::uint32_t ca, std::uint32_t cb,
                          std::uint32_t cc, std::uint32_t cd) {
  refresh_deviation(ca, cb);
  refresh_deviation(cc, cd);
  refresh_deviation(ca, cd);
  refresh_deviation(cc, cb);
}

void JddObjective::refresh_deviation(std::uint32_t c1, std::uint32_t c2) {
  const std::size_t index = cell(c1, c2);
  const bool deviating = diff_[index] != 0;
  const std::uint32_t pos = deviating_pos_[index];
  if (deviating && pos == no_position) {
    deviating_pos_[index] = static_cast<std::uint32_t>(deviating_.size());
    deviating_.push_back(static_cast<std::uint64_t>(index));
  } else if (!deviating && pos != no_position) {
    const std::uint64_t moved = deviating_.back();
    deviating_[pos] = moved;
    deviating_.pop_back();
    if (pos < deviating_.size()) {
      deviating_pos_[static_cast<std::size_t>(moved)] = pos;
    }
    deviating_pos_[index] = no_position;
  }
}

DeviatingBin JddObjective::sample_deviating_bin(util::Rng& rng) const {
  const std::size_t index =
      static_cast<std::size_t>(deviating_[rng.uniform(deviating_.size())]);
  DeviatingBin bin;
  bin.c1 = static_cast<std::uint32_t>(index / num_classes_);
  bin.c2 = static_cast<std::uint32_t>(index % num_classes_);
  bin.deficit = diff_[index] < 0;
  return bin;
}

// ---------------------------------------------------------------------------
// SparseJddObjective: open-addressing table of occupied bins.
// ---------------------------------------------------------------------------

std::int64_t SparseJddObjective::bump(std::uint32_t c1, std::uint32_t c2,
                                      std::int64_t delta, bool erase_zero) {
  const std::uint64_t stored = util::pair_key(c1, c2) + 1;
  if (!table_.has_storage()) table_.grow();
  std::size_t slot = table_.locate(stored);
  std::int64_t before = 0;
  if (!table_.occupied(slot)) {
    if (table_.over_load_factor()) {
      table_.grow();
      slot = table_.locate(stored);
    }
    table_.occupy(slot, stored);
  } else {
    before = table_.payload_at(slot).diff;
  }
  const std::int64_t after = before + delta;
  table_.payload_at(slot).diff = static_cast<std::int32_t>(after);
  // Zero-diff bins outside the deviating set are dropped (backing out a
  // rejected trial must not leave satisfied bins behind); deviating
  // entries are never erased here.  erase_at's backward shift moves
  // payloads with their keys, and the deviating list stores keys, not
  // slots, so moves stay invisible to it.
  if (erase_zero && after == 0 &&
      table_.payload_at(slot).dev_pos == no_position) {
    table_.erase_at(slot);
  }
  return delta * (2 * before + delta);
}

SparseJddObjective::SparseJddObjective(
    const EdgeIndex& index, const dk::JointDegreeDistribution& target) {
  // Accumulate current - target into the table (the unreachable-target
  // constant is identical to the dense backend's).
  for (const auto& e : index.edges()) {
    bump(index.node_class(e.u), index.node_class(e.v), +1, false);
  }
  for (const auto& [key, count] : target.histogram().bins()) {
    const auto [k1, k2] = util::unpack_pair(key);
    const std::uint32_t c1 = index.class_of_degree(k1);
    const std::uint32_t c2 = index.class_of_degree(k2);
    if (c1 == EdgeIndex::npos || c2 == EdgeIndex::npos) {
      distance_ += square(count);
      continue;
    }
    bump(c1, c2, -count, false);
  }

  // Rebuild with satisfied bins (diff 0) dropped, and seed the deviating
  // list in ascending class-pair order — the exact order the dense
  // constructor's row scan produces, which the bit-identical-chain
  // guarantee rests on.
  std::vector<std::pair<std::uint64_t, std::int32_t>> bins;
  bins.reserve(table_.size());
  for (std::size_t slot = 0; slot < table_.capacity(); ++slot) {
    if (table_.occupied(slot) && table_.payload_at(slot).diff != 0) {
      bins.emplace_back(table_.key_at(slot) - 1, table_.payload_at(slot).diff);
    }
  }
  std::sort(bins.begin(), bins.end());

  // reserve_for() allocates fresh storage: the build-phase table also
  // held the satisfied bins, and keeping that larger capacity for the
  // objective's lifetime would contradict what memory_bytes() reports.
  table_.reserve_for(bins.size());
  deviating_.reserve(bins.size());
  for (const auto& [key, diff] : bins) {
    const std::size_t slot = table_.locate(key + 1);
    table_.occupy(slot, key + 1,
                  {diff, static_cast<std::uint32_t>(deviating_.size())});
    deviating_.push_back(key);
    distance_ += square(diff);
  }
}

std::int64_t SparseJddObjective::apply(std::uint32_t ca, std::uint32_t cb,
                                       std::uint32_t cc, std::uint32_t cd) {
  // Same sequential bump order as the dense backend; nothing is erased
  // mid-trial so revert() can restore the exact pre-apply table.
  std::int64_t delta = 0;
  delta += bump(ca, cb, -1, false);
  delta += bump(cc, cd, -1, false);
  delta += bump(ca, cd, +1, false);
  delta += bump(cc, cb, +1, false);
  distance_ += delta;
  return delta;
}

void SparseJddObjective::revert(std::uint32_t ca, std::uint32_t cb,
                                std::uint32_t cc, std::uint32_t cd) {
  // Inverse bumps; entries restored to diff 0 that are not in the
  // deviating set were created by apply() and are dropped again, so
  // millions of rejected trials cannot inflate the table.
  std::int64_t delta = 0;
  delta += bump(ca, cd, -1, true);
  delta += bump(cc, cb, -1, true);
  delta += bump(ca, cb, +1, true);
  delta += bump(cc, cd, +1, true);
  distance_ += delta;
}

void SparseJddObjective::commit(std::uint32_t ca, std::uint32_t cb,
                                std::uint32_t cc, std::uint32_t cd) {
  refresh_deviation(ca, cb);
  refresh_deviation(cc, cd);
  refresh_deviation(ca, cd);
  refresh_deviation(cc, cb);
}

void SparseJddObjective::refresh_deviation(std::uint32_t c1,
                                           std::uint32_t c2) {
  const std::uint64_t key = util::pair_key(c1, c2);
  const std::size_t slot = table_.locate(key + 1);
  if (!table_.occupied(slot)) return;  // diff 0, not deviating: no entry
  const bool deviating = table_.payload_at(slot).diff != 0;
  const std::uint32_t pos = table_.payload_at(slot).dev_pos;
  if (deviating && pos == no_position) {
    table_.payload_at(slot).dev_pos =
        static_cast<std::uint32_t>(deviating_.size());
    deviating_.push_back(key);
  } else if (!deviating) {
    if (pos != no_position) {
      const std::uint64_t moved = deviating_.back();
      deviating_[pos] = moved;
      deviating_.pop_back();
      if (pos < deviating_.size()) {
        table_.payload_at(table_.locate(moved + 1)).dev_pos = pos;
      }
      table_.payload_at(slot).dev_pos = no_position;
    }
    table_.erase_at(slot);  // satisfied bin: drop the entry entirely
  }
}

DeviatingBin SparseJddObjective::sample_deviating_bin(util::Rng& rng) const {
  const std::uint64_t key = deviating_[rng.uniform(deviating_.size())];
  const auto [c1, c2] = util::unpack_pair(key);  // (min, max), as dense
  DeviatingBin bin;
  bin.c1 = c1;
  bin.c2 = c2;
  bin.deficit = table_.payload_at(table_.locate(key + 1)).diff < 0;
  return bin;
}

std::size_t SparseJddObjective::memory_bytes() const noexcept {
  // Capacities, not sizes: what the process actually holds.
  return table_.capacity_bytes() +
         deviating_.capacity() * sizeof(std::uint64_t);
}

// ---------------------------------------------------------------------------
// ThreeKObjective.
// ---------------------------------------------------------------------------

ThreeKObjective::ThreeKObjective(const dk::DkState& state,
                                 const dk::ThreeKProfile& target)
    : target_(&target) {
  distance_ =
      integer_squared_difference(state.three_k().wedges(), target.wedges()) +
      integer_squared_difference(state.three_k().triangles(),
                                 target.triangles());
}

std::int64_t ThreeKObjective::delta_if_applied(
    const dk::DkState& state, const dk::DeltaJournal& journal) const {
  // The journal names every bin this pricing will probe, so issue all
  // the probe-group prefetches before the first probe: by the time the
  // loops below reach entry k, its lines are usually already in flight
  // (docs/parallel.md, "Prefetching in the proposal loops").
  for (const auto& [key, net] : journal.wedge) {
    state.three_k().wedges().prefetch(key);
    target_->wedges().prefetch(key);
  }
  for (const auto& [key, net] : journal.triangle) {
    state.three_k().triangles().prefetch(key);
    target_->triangles().prefetch(key);
  }

  std::int64_t delta = 0;
  for (const auto& [key, net] : journal.wedge) {
    const std::int64_t before = state.three_k().wedges().count(key);
    const std::int64_t t = target_->wedges().count(key);
    delta += square(before + net - t) - square(before - t);
  }
  for (const auto& [key, net] : journal.triangle) {
    const std::int64_t before = state.three_k().triangles().count(key);
    const std::int64_t t = target_->triangles().count(key);
    delta += square(before + net - t) - square(before - t);
  }
  return delta;
}

}  // namespace orbis::gen
