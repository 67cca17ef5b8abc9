#include "graph/edge_index.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/keys.hpp"

namespace orbis {

EdgeIndex::EdgeIndex(const Graph& g) : hash_(g.num_edges()) {
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

  // CSR rows with fixed extents, copied verbatim from g.  The hash
  // takes each edge's cell in its lower endpoint's row, and hands it to
  // the edge's cell in the higher endpoint's row as its twin.
  row_offset_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    row_offset_[v + 1] = row_offset_[v] + degree_[v];
  }
  adj_.resize(row_offset_[n]);
  cell_owner_.resize(row_offset_[n]);
  twin_.resize(row_offset_[n]);
  for (NodeId v = 0; v < n; ++v) {
    auto cell = static_cast<std::uint32_t>(row_offset_[v]);
    for (const NodeId w : g.neighbors(v)) {
      adj_[cell] = w;
      cell_owner_[cell] = v;
      if (v < w) hash_.insert(util::pair_key(v, w), cell);
      ++cell;
    }
  }
  for (std::uint32_t cell = 0; cell < adj_.size(); ++cell) {
    const NodeId v = cell_owner_[cell];
    if (adj_[cell] > v) continue;
    const std::uint32_t lower = hash_.find(util::pair_key(v, adj_[cell]));
    twin_[cell] = lower;
    twin_[lower] = cell;
  }
}

std::uint32_t EdgeIndex::class_of_degree(std::uint32_t degree) const {
  const auto it =
      std::lower_bound(class_degree_.begin(), class_degree_.end(), degree);
  if (it == class_degree_.end() || *it != degree) return npos;
  return static_cast<std::uint32_t>(it - class_degree_.begin());
}

void EdgeIndex::apply_swap(NodeId a, NodeId b, NodeId c, NodeId d) {
  const std::uint32_t ab = hash_.find(util::pair_key(a, b));
  const std::uint32_t cd = hash_.find(util::pair_key(c, d));
  util::ensures(ab != npos && cd != npos,
                "EdgeIndex::apply_swap: edge not present");
  // The four endpoints' cells: each keeps its cell, and only the
  // neighbor stored there (and the twin) changes.
  const std::uint32_t cell_a = cell_owner_[ab] == a ? ab : twin_[ab];
  const std::uint32_t cell_b = twin_[cell_a];
  const std::uint32_t cell_c = cell_owner_[cd] == c ? cd : twin_[cd];
  const std::uint32_t cell_d = twin_[cell_c];

  // (a,b),(c,d) -> (a,d),(c,b).
  adj_[cell_a] = d;  // a's cell: b -> d
  adj_[cell_b] = c;  // b's cell: a -> c
  adj_[cell_c] = b;  // c's cell: d -> b
  adj_[cell_d] = a;  // d's cell: c -> a
  twin_[cell_a] = cell_d;
  twin_[cell_d] = cell_a;
  twin_[cell_c] = cell_b;
  twin_[cell_b] = cell_c;

  hash_.erase(util::pair_key(a, b));
  hash_.erase(util::pair_key(c, d));
  hash_.insert(util::pair_key(a, d), a < d ? cell_a : cell_d);
  hash_.insert(util::pair_key(c, b), c < b ? cell_c : cell_b);
}

void EdgeIndex::remove_row_entry(std::uint32_t cell) {
  // Move the last occupied cell of the row into the vacated one,
  // repointing its twin (and the hash, when it names the moved cell).
  const NodeId anchor = cell_owner_[cell];
  const auto last = static_cast<std::uint32_t>(row_offset_[anchor] +
                                               row_size_[anchor] - 1);
  if (cell != last) {
    const NodeId moved = adj_[last];
    adj_[cell] = moved;
    twin_[cell] = twin_[last];
    twin_[twin_[cell]] = cell;
    if (anchor < moved) hash_.reassign(util::pair_key(anchor, moved), cell);
  }
  --row_size_[anchor];
}

void EdgeIndex::remove_edge(NodeId u, NodeId v) {
  const std::uint64_t key = util::pair_key(u, v);
  const std::uint32_t lower = hash_.find(key);
  util::expects(lower != npos, "EdgeIndex::remove_edge: no such edge");
  const std::uint32_t upper = twin_[lower];
  hash_.erase(key);
  remove_row_entry(lower);
  remove_row_entry(upper);
}

void EdgeIndex::add_edge(NodeId u, NodeId v) {
  util::expects(u != v, "EdgeIndex::add_edge: self-loop");
  util::expects(!hash_.contains(util::pair_key(u, v)),
                "EdgeIndex::add_edge: edge exists");
  util::expects(row_size_[u] < degree_[u] && row_size_[v] < degree_[v],
                "EdgeIndex::add_edge: row over frozen capacity");

  const auto cell_u =
      static_cast<std::uint32_t>(row_offset_[u] + row_size_[u]++);
  const auto cell_v =
      static_cast<std::uint32_t>(row_offset_[v] + row_size_[v]++);
  adj_[cell_u] = v;
  adj_[cell_v] = u;
  twin_[cell_u] = cell_v;
  twin_[cell_v] = cell_u;
  hash_.insert(util::pair_key(u, v), u < v ? cell_u : cell_v);
}

Graph EdgeIndex::to_graph() const {
  std::vector<std::vector<NodeId>> rows(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const auto row = neighbors(v);
    rows[v].assign(row.begin(), row.end());
  }
  return Graph::from_rows(std::move(rows));
}

}  // namespace orbis
