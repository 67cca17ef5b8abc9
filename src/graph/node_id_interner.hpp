// File node ids -> dense NodeIds in first-appearance order: the one id
// map behind every edge-list reader (io::read_edge_list and the
// streaming dK extractor), with the declared-node rule they share.
//
// File ids span the whole uint64 range, 0 and 2^64-1 included, so no
// key can mark an empty slot: occupancy is payload-carried
// (util/flat_table.hpp), the payload being dense id + 1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/flat_table.hpp"

namespace orbis {

/// The declared-node rule of every edge-list reader: the count N of a
/// writer header ("# orbis edge list: N nodes") is honoured — file ids
/// taken verbatim as dense ids, isolated nodes kept — iff N > 0 and
/// every file id is below N.
inline bool declared_nodes_hold(std::uint64_t declared,
                                std::span<const std::uint64_t> file_ids) {
  return declared > 0 &&
         std::all_of(file_ids.begin(), file_ids.end(),
                     [declared](std::uint64_t id) { return id < declared; });
}

class NodeIdInterner {
 public:
  /// Returned by find() for an id never interned.  No dense id reaches
  /// it: at most 2^32 - 1 ids fit, the payload being dense id + 1.
  static constexpr NodeId npos = 0xffffffffu;

  /// Dense id of `file_id`, assigning the next one on first sight.
  NodeId intern(std::uint64_t file_id) {
    if (table_.over_load_factor()) table_.grow();  // load stays <= 1/2
    const std::size_t slot = table_.locate(file_id);
    if (table_.occupied(slot)) return table_.payload_at(slot) - 1;
    util::expects(size() < npos,
                  "NodeIdInterner: more than 2^32 - 1 distinct node ids");
    const auto id = static_cast<NodeId>(size());
    table_.occupy(slot, file_id, id + 1);
    original_ids_.push_back(file_id);
    return id;
  }

  /// Dense id of an interned `file_id`, or npos.
  NodeId find(std::uint64_t file_id) const {
    const std::size_t slot = table_.find(file_id);
    return slot == table_.npos ? npos : table_.payload_at(slot) - 1;
  }

  std::size_t size() const noexcept { return original_ids_.size(); }

  /// Dense id -> file id.
  const std::vector<std::uint64_t>& original_ids() const noexcept {
    return original_ids_;
  }

  /// Bytes held by the table and the id list.
  std::size_t capacity_bytes() const noexcept {
    return table_.capacity_bytes() +
           original_ids_.capacity() * sizeof(std::uint64_t);
  }

 private:
  struct DenseIdTraits {
    using Payload = NodeId;  // dense id + 1; 0 = empty slot
    static constexpr bool occupied(std::uint64_t, NodeId payload) noexcept {
      return payload != 0;
    }
    static constexpr NodeId empty_payload() noexcept { return 0; }
  };

  util::FlatTable<DenseIdTraits> table_;
  std::vector<std::uint64_t> original_ids_;
};

}  // namespace orbis
