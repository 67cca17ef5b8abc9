#include "gen/objective.hpp"

#include <bit>
#include <utility>

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
  words_per_row_ = (num_classes_ + 63) / 64;
  deviating_bits_.assign(num_classes_ * words_per_row_, 0);
  row_counts_.assign(num_classes_ + 1, 0);

  index.for_each_edge([&](NodeId u, NodeId v) {
    ++diff_[cell(index.node_class(u), index.node_class(v))];
  });
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
    std::uint32_t row_count = 0;
    for (std::uint32_t c2 = c1; c2 < num_classes_; ++c2) {
      const std::int64_t d = diff_[cell(c1, c2)];
      distance_ += square(d);
      if (d == 0) continue;
      deviating_bits_[c1 * words_per_row_ + c2 / 64] |= 1ull << (c2 % 64);
      ++row_count;
    }
    deviating_count_ += row_count;
    add_to_row(c1, static_cast<std::int32_t>(row_count));
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
  if (c1 > c2) std::swap(c1, c2);
  std::uint64_t& word = deviating_bits_[c1 * words_per_row_ + c2 / 64];
  const std::uint64_t bit = 1ull << (c2 % 64);
  const bool deviating = diff_[cell(c1, c2)] != 0;
  if (deviating == ((word & bit) != 0)) return;
  word ^= bit;
  add_to_row(c1, deviating ? 1 : -1);
  deviating_count_ += deviating ? 1u : ~0u;
}

void JddObjective::add_to_row(std::uint32_t c1, std::int32_t delta) {
  for (std::uint32_t node = c1 + 1; node <= num_classes_;
       node += node & (~node + 1)) {
    row_counts_[node] += static_cast<std::uint32_t>(delta);
  }
}

DeviatingBin JddObjective::sample_deviating_bin(util::Rng& rng) const {
  auto rank = static_cast<std::uint32_t>(rng.uniform(deviating_count_));
  // Fenwick descent to the row holding the rank-th set bit.
  std::uint32_t row = 0;
  for (std::uint32_t step = std::bit_floor(num_classes_); step > 0;
       step >>= 1) {
    if (row + step <= num_classes_ && row_counts_[row + step] <= rank) {
      row += step;
      rank -= row_counts_[row];
    }
  }
  // Then to the word, and the bit, within the row.
  const std::uint64_t* words = &deviating_bits_[row * words_per_row_];
  std::size_t w = 0;
  for (;; ++w) {
    const auto in_word = static_cast<std::uint32_t>(std::popcount(words[w]));
    if (rank < in_word) break;
    rank -= in_word;
  }
  std::uint64_t word = words[w];
  for (; rank > 0; --rank) word &= word - 1;
  DeviatingBin bin;
  bin.c1 = row;
  bin.c2 = static_cast<std::uint32_t>(w * 64) +
           static_cast<std::uint32_t>(std::countr_zero(word));
  bin.deficit = diff_[cell(bin.c1, bin.c2)] < 0;
  return bin;
}

}  // namespace orbis::gen
