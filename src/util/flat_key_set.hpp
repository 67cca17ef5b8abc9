// Growable flat hash set of non-zero uint64 keys.
//
// The streaming extraction pipeline needs duplicate-edge detection over
// millions of packed pair keys per pass: a presence-only util::FlatTable
// (see flat_table.hpp — the payload array is elided for empty payloads)
// costs 8 bytes per slot and zero per-insert allocations, where
// unordered_set pays a node allocation per key.  The capacity grows on
// demand (the edge count is unknown until the stream ends) and there is
// no deletion — clear() resets between passes while keeping the
// storage.
//
// Key 0 marks an empty slot.  util::pair_key(u, v) of a non-loop edge is
// never 0 (the larger endpoint occupies the low bits and is >= 1), so
// edge keys need no offset.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/check.hpp"
#include "util/flat_table.hpp"

namespace orbis::util {

class FlatKeySet {
 public:
  FlatKeySet() = default;
  /// Pre-sizes the table for an expected key count (optional).
  explicit FlatKeySet(std::size_t expected_keys) {
    table_.reserve_for(expected_keys);
  }

  /// Inserts the key; returns false (set unchanged) if already present.
  bool insert(std::uint64_t key) {
    expects(key != 0, "FlatKeySet: key 0 is the empty-slot marker");
    if (table_.over_load_factor()) table_.grow();
    const std::size_t i = table_.locate(key);
    if (table_.occupied(i)) return false;
    table_.occupy(i, key);
    return true;
  }

  bool contains(std::uint64_t key) const noexcept {
    return table_.contains(key);
  }

  std::size_t size() const noexcept { return table_.size(); }
  bool empty() const noexcept { return table_.empty(); }

  /// Empties the set but keeps the table allocation (pass-to-pass reuse).
  void clear() noexcept { table_.clear(); }

  std::size_t capacity_bytes() const noexcept {
    return table_.capacity_bytes();
  }

 private:
  util::FlatTable<KeySentinelTraits<NoPayload>> table_;
};

}  // namespace orbis::util
