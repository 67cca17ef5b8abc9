#include "gen/objective.hpp"

#include "util/keys.hpp"

namespace orbis::gen {

namespace {

std::int64_t square(std::int64_t x) noexcept { return x * x; }

}  // namespace

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

}  // namespace orbis::gen
