#include "graph/edge_index.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/keys.hpp"

namespace orbis {

EdgeIndex::EdgeIndex(const Graph& g)
    : edges_(g.edges()), hash_(g.num_edges()) {
  const NodeId n = g.num_nodes();
  degree_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    degree_[v] = static_cast<std::uint32_t>(g.degree(v));
  }
  row_size_ = degree_;

  // Degree classes, sorted by degree so class order mirrors degree order.
  std::vector<std::uint32_t> distinct(degree_);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  class_degree_ = distinct;
  node_class_.resize(n);
  class_nodes_.resize(class_degree_.size());
  for (NodeId v = 0; v < n; ++v) {
    const auto it = std::lower_bound(class_degree_.begin(),
                                     class_degree_.end(), degree_[v]);
    const auto cls =
        static_cast<std::uint32_t>(it - class_degree_.begin());
    node_class_[v] = cls;
    class_nodes_[cls].push_back(v);
  }

  // CSR rows with fixed extents; filled edge by edge so the hash can
  // record both adjacency positions.
  row_offset_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    row_offset_[v + 1] = row_offset_[v] + degree_[v];
  }
  adj_.assign(row_offset_[n], 0);
  adj_slot_.assign(row_offset_[n], npos);
  std::vector<std::uint32_t> fill(n, 0);

  records_.resize(edges_.size());
  buckets_.resize(class_degree_.size());
  for (std::uint32_t slot = 0; slot < edges_.size(); ++slot) {
    const auto [u, v] = edges_[slot];
    const auto pos_u =
        static_cast<std::uint32_t>(row_offset_[u] + fill[u]++);
    const auto pos_v =
        static_cast<std::uint32_t>(row_offset_[v] + fill[v]++);
    adj_[pos_u] = v;
    adj_[pos_v] = u;
    adj_slot_[pos_u] = slot;
    adj_slot_[pos_v] = slot;
    records_[slot].pos_u = pos_u;
    records_[slot].pos_v = pos_v;
    hash_.insert(util::pair_key(u, v), slot);
    bucket_insert(slot, true);
    bucket_insert(slot, false);
  }
}

std::uint32_t EdgeIndex::class_of_degree(std::uint32_t degree) const {
  const auto it =
      std::lower_bound(class_degree_.begin(), class_degree_.end(), degree);
  if (it == class_degree_.end() || *it != degree) return npos;
  return static_cast<std::uint32_t>(it - class_degree_.begin());
}

void EdgeIndex::bucket_insert(std::uint32_t slot, bool anchor_is_u) {
  const Edge& e = edges_[slot];
  const NodeId anchor = anchor_is_u ? e.u : e.v;
  auto& bucket = buckets_[node_class_[anchor]];
  bucket_backref(slot, anchor_is_u) =
      static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(half_edge_handle(slot, anchor_is_u));
}

void EdgeIndex::bucket_remove(std::uint32_t slot, bool anchor_is_u) {
  const Edge& e = edges_[slot];
  const NodeId anchor = anchor_is_u ? e.u : e.v;
  auto& bucket = buckets_[node_class_[anchor]];
  const std::uint32_t pos = bucket_backref(slot, anchor_is_u);
  const auto last_pos = static_cast<std::uint32_t>(bucket.size()) - 1;
  if (pos != last_pos) {
    const std::uint64_t moved = bucket[last_pos];
    bucket[pos] = moved;
    bucket_backref(static_cast<std::uint32_t>(moved >> 1),
                   (moved & 1) != 0) = pos;
  }
  bucket.pop_back();
}

bool EdgeIndex::sample_half_edge(std::uint32_t cls, util::Rng& rng,
                                 HalfEdge& out) const {
  const auto& bucket = buckets_[cls];
  if (bucket.empty()) return false;
  const std::uint64_t handle = bucket[rng.uniform(bucket.size())];
  out.slot = static_cast<std::uint32_t>(handle >> 1);
  out.anchor_is_u = (handle & 1) != 0;
  return true;
}

void EdgeIndex::apply_swap(NodeId a, NodeId b, NodeId c, NodeId d) {
  const std::uint32_t s1 = hash_.find(util::pair_key(a, b));
  const std::uint32_t s2 = hash_.find(util::pair_key(c, d));
  util::ensures(s1 != npos && s2 != npos,
                "EdgeIndex::apply_swap: edge not present");

  EdgeRecord& r1 = records_[s1];
  EdgeRecord& r2 = records_[s2];
  const bool a_is_u = edges_[s1].u == a;
  const bool c_is_u = edges_[s2].u == c;
  // Adjacency cells in the stored orientation of each edge.
  const std::uint32_t cell_a = a_is_u ? r1.pos_u : r1.pos_v;
  const std::uint32_t cell_b = a_is_u ? r1.pos_v : r1.pos_u;
  const std::uint32_t cell_c = c_is_u ? r2.pos_u : r2.pos_v;
  const std::uint32_t cell_d = c_is_u ? r2.pos_v : r2.pos_u;
  // Bucket positions of the half-edges anchored at a, b, c, d.  The swap
  // keeps the same four anchors (a and d end up on s1, c and b on s2),
  // so every bucket entry is rewritten in place — no erase/insert.
  const std::uint32_t bpos_a = bucket_backref(s1, a_is_u);
  const std::uint32_t bpos_b = bucket_backref(s1, !a_is_u);
  const std::uint32_t bpos_c = bucket_backref(s2, c_is_u);
  const std::uint32_t bpos_d = bucket_backref(s2, !c_is_u);

  // (a,b),(c,d) -> (a,d),(c,b): each endpoint keeps its adjacency cell,
  // only the stored neighbor changes.
  adj_[cell_a] = d;  // a's cell: b -> d
  adj_[cell_b] = c;  // b's cell: a -> c
  adj_[cell_c] = b;  // c's cell: d -> b
  adj_[cell_d] = a;  // d's cell: c -> a
  // cell_a/cell_c keep their slots (s1/s2); the other two cross over.
  adj_slot_[cell_b] = s2;
  adj_slot_[cell_d] = s1;

  hash_.erase(util::pair_key(a, b));
  hash_.erase(util::pair_key(c, d));
  edges_[s1] = Edge{a, d};
  r1.pos_u = cell_a;
  r1.pos_v = cell_d;
  hash_.insert(util::pair_key(a, d), s1);
  edges_[s2] = Edge{c, b};
  r2.pos_u = cell_c;
  r2.pos_v = cell_b;
  hash_.insert(util::pair_key(c, b), s2);

  buckets_[node_class_[a]][bpos_a] = half_edge_handle(s1, true);
  r1.bucket_pos_u = bpos_a;
  buckets_[node_class_[d]][bpos_d] = half_edge_handle(s1, false);
  r1.bucket_pos_v = bpos_d;
  buckets_[node_class_[c]][bpos_c] = half_edge_handle(s2, true);
  r2.bucket_pos_u = bpos_c;
  buckets_[node_class_[b]][bpos_b] = half_edge_handle(s2, false);
  r2.bucket_pos_v = bpos_b;
}

void EdgeIndex::remove_row_entry(NodeId anchor, std::uint32_t cell) {
  // Swap the last occupied cell of anchor's row into the vacated one,
  // repointing the moved edge's record via the cell -> slot map.
  const auto last = static_cast<std::uint32_t>(row_offset_[anchor] +
                                               row_size_[anchor] - 1);
  if (cell != last) {
    const NodeId moved_neighbor = adj_[last];
    const std::uint32_t moved_slot = adj_slot_[last];
    adj_[cell] = moved_neighbor;
    adj_slot_[cell] = moved_slot;
    if (edges_[moved_slot].u == anchor) {
      records_[moved_slot].pos_u = cell;
    } else {
      records_[moved_slot].pos_v = cell;
    }
  }
  --row_size_[anchor];
}

void EdgeIndex::remove_edge(NodeId u, NodeId v) {
  const std::uint64_t key = util::pair_key(u, v);
  const std::uint32_t slot = hash_.find(key);
  util::expects(slot != npos, "EdgeIndex::remove_edge: no such edge");

  const bool u_is_u = edges_[slot].u == u;
  const EdgeRecord rec = records_[slot];
  remove_row_entry(u, u_is_u ? rec.pos_u : rec.pos_v);
  remove_row_entry(v, u_is_u ? rec.pos_v : rec.pos_u);
  bucket_remove(slot, true);
  bucket_remove(slot, false);
  hash_.erase(key);

  // Swap-pop the dense edge array, repointing the moved edge everywhere
  // (hash slot, cell -> slot map, bucket handles).
  const auto last = static_cast<std::uint32_t>(edges_.size()) - 1;
  if (slot != last) {
    edges_[slot] = edges_[last];
    records_[slot] = records_[last];
    hash_.reassign(util::pair_key(edges_[slot].u, edges_[slot].v), slot);
    adj_slot_[records_[slot].pos_u] = slot;
    adj_slot_[records_[slot].pos_v] = slot;
    buckets_[node_class_[edges_[slot].u]][records_[slot].bucket_pos_u] =
        half_edge_handle(slot, true);
    buckets_[node_class_[edges_[slot].v]][records_[slot].bucket_pos_v] =
        half_edge_handle(slot, false);
  }
  edges_.pop_back();
  records_.pop_back();
}

void EdgeIndex::add_edge(NodeId u, NodeId v) {
  util::expects(u != v, "EdgeIndex::add_edge: self-loop");
  util::expects(!hash_.contains(util::pair_key(u, v)),
                "EdgeIndex::add_edge: edge exists");
  util::expects(row_size_[u] < degree_[u] && row_size_[v] < degree_[v],
                "EdgeIndex::add_edge: row over frozen capacity");

  const auto slot = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(Edge{u, v});
  records_.emplace_back();
  const auto pos_u =
      static_cast<std::uint32_t>(row_offset_[u] + row_size_[u]++);
  const auto pos_v =
      static_cast<std::uint32_t>(row_offset_[v] + row_size_[v]++);
  adj_[pos_u] = v;
  adj_[pos_v] = u;
  adj_slot_[pos_u] = slot;
  adj_slot_[pos_v] = slot;
  records_[slot].pos_u = pos_u;
  records_[slot].pos_v = pos_v;
  hash_.insert(util::pair_key(u, v), slot);
  bucket_insert(slot, true);
  bucket_insert(slot, false);
}

Graph EdgeIndex::to_graph() const {
  return Graph::from_edges(num_nodes(), edges_);
}

}  // namespace orbis
