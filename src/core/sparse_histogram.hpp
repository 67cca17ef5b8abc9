// Sparse integer histogram over packed uint64 keys: the JDD's bins.
//
// Degree-pair counts are sparse (the paper, §6 footnote: sparsity grows
// faster than the nominal k^d size), so a table of non-zero bins is both
// the compact and the fast representation, and JDD extraction and
// reading increment bins one edge at a time in no key order.  Counts are
// signed internally so incremental bookkeeping can assert it never
// drives a bin negative.  The 3K profile does not use this type: its
// bins are built once by a counting pass, so they are sorted arrays
// (dk::SortedBins, core/three_k_profile.hpp), and the 3K chains track
// their residual in dk::ThreeKResidual (core/dk_state.hpp).
//
// Storage is a util::FlatTable (the shared flat open-addressing
// implementation — see flat_table.hpp for the probe protocol).
// Occupancy is carried by the count — a bin is live iff its count is
// non-zero, add() erases bins that return to zero — so key 0 needs no
// sentinel exception and is an ordinary bin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/flat_table.hpp"
#include "util/keys.hpp"

namespace orbis::dk {

class SparseHistogram {
 public:
  /// Forward iteration over (key, count) pairs in unspecified order.
  /// Dereference yields pairs BY VALUE (bins live in the flat table's
  /// slot arrays); mutating the histogram invalidates iterators.
  class const_iterator {
   public:
    using value_type = std::pair<std::uint64_t, std::int64_t>;
    using reference = value_type;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const SparseHistogram* owner, std::size_t slot)
        : owner_(owner), slot_(slot) {
      skip_empty();
    }

    value_type operator*() const {
      return {owner_->table_.key_at(slot_), owner_->table_.payload_at(slot_)};
    }
    const_iterator& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }

   private:
    void skip_empty() {
      while (owner_ != nullptr && slot_ < owner_->table_.capacity() &&
             !owner_->table_.occupied(slot_)) {
        ++slot_;
      }
    }
    const SparseHistogram* owner_ = nullptr;
    std::size_t slot_ = 0;
  };

  /// Lightweight iterable view of the live bins (the historical
  /// `bins()` interface; iteration order is unspecified).
  class BinView {
   public:
    explicit BinView(const SparseHistogram* owner) : owner_(owner) {}
    const_iterator begin() const { return {owner_, 0}; }
    const_iterator end() const { return {owner_, owner_->table_.capacity()}; }

   private:
    const SparseHistogram* owner_;
  };

  std::int64_t count(std::uint64_t key) const {
    const std::size_t i = table_.find(key);
    return i == Table::npos ? 0 : table_.payload_at(i);
  }

  /// Adds delta to a bin; removes the bin when it reaches zero.
  /// Throws std::logic_error if a bin would become negative (the
  /// histogram is left unchanged).
  void add(std::uint64_t key, std::int64_t delta);

  void increment(std::uint64_t key) { add(key, 1); }
  void decrement(std::uint64_t key) { add(key, -1); }

  std::size_t num_bins() const noexcept { return table_.size(); }

  std::int64_t total() const noexcept {
    std::int64_t sum = 0;
    for (const auto& [key, count] : bins()) sum += count;
    return sum;
  }

  bool empty() const noexcept { return table_.empty(); }
  void clear() noexcept { table_.release(); }

  /// Bytes held by the key/count arrays (streaming memory accounting).
  std::size_t capacity_bytes() const noexcept {
    return table_.capacity_bytes();
  }

  BinView bins() const noexcept { return BinView(this); }
  const_iterator begin() const { return bins().begin(); }
  const_iterator end() const { return bins().end(); }

  friend bool operator==(const SparseHistogram& a, const SparseHistogram& b);

  /// Sum over the union of bins of (a[key] - b[key])^2 — the paper's
  /// squared-difference distance D_d between current and target counts.
  static double squared_difference(const SparseHistogram& a,
                                   const SparseHistogram& b);

 private:
  /// Payload occupancy: a slot is live iff its count is non-zero, so
  /// key 0 is an ordinary bin and zero counts ARE erasure.
  struct CountTraits {
    using Payload = std::int64_t;
    static constexpr bool occupied(std::uint64_t,
                                   std::int64_t count) noexcept {
      return count != 0;
    }
    static constexpr std::int64_t empty_payload() noexcept { return 0; }
  };
  using Table = util::FlatTable<CountTraits>;

  Table table_;
};

}  // namespace orbis::dk
