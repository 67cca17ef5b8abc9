// Flat hash map from packed edge keys to 32-bit payloads over
// util::FlatTable (see flat_table.hpp): the edge index of both Graph
// (payload: the edge's slot) and EdgeIndex (its lower endpoint's cell).
// Keys are util::pair_key values, never 0 for a non-loop edge, so
// key-sentinel occupancy applies.  The table grows before an insert
// that would push its load past 1/2; EdgeIndex sizes it for its m edges
// and swaps and trades never exceed m, so there it never grows.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/check.hpp"
#include "util/flat_table.hpp"

namespace orbis {

class FlatEdgeHash {
 public:
  static constexpr std::uint32_t npos = 0xffffffffu;

  FlatEdgeHash() = default;
  /// Sized so that `expected_edges` inserts never grow the table.
  explicit FlatEdgeHash(std::size_t expected_edges) {
    table_.reserve_for(expected_edges);
  }

  /// Maps `key` to `slot`; false (table unchanged) if `key` is present.
  bool insert(std::uint64_t key, std::uint32_t slot) {
    if (table_.over_load_factor()) table_.grow();
    const std::size_t i = table_.locate(key);
    if (table_.occupied(i)) return false;
    table_.occupy(i, key, slot);
    return true;
  }

  void erase(std::uint64_t key) {
    const std::size_t i = table_.find(key);
    util::ensures(i != table_.npos, "FlatEdgeHash::erase: key not found");
    table_.erase_at(i);
  }

  std::size_t size() const noexcept { return table_.size(); }

  /// Slot for key, or npos.
  std::uint32_t find(std::uint64_t key) const {
    const std::size_t i = table_.find(key);
    return i == table_.npos ? npos : table_.payload_at(i);
  }
  bool contains(std::uint64_t key) const { return table_.contains(key); }

  /// Repoints an existing key at a new slot.
  void reassign(std::uint64_t key, std::uint32_t slot) {
    const std::size_t i = table_.find(key);
    util::ensures(i != table_.npos, "FlatEdgeHash::reassign: key not found");
    table_.payload_at(i) = slot;
  }

  /// Prefetches key's probe group (advisory only).
  void prefetch(std::uint64_t key) const { table_.prefetch(key); }

 private:
  /// Vacated slots park their payload at npos, mirroring find()'s miss
  /// sentinel.
  struct SlotTraits : util::KeySentinelTraits<std::uint32_t> {
    static constexpr std::uint32_t empty_payload() noexcept { return npos; }
  };

  util::FlatTable<SlotTraits> table_;
};

}  // namespace orbis
