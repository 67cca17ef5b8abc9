#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace orbis {

Graph Graph::from_edges(NodeId n, std::span<const Edge> edges) {
  std::vector<Edge> bad;
  Graph g = from_edges_dedup(n, edges, &bad);
  util::expects(bad.empty(), "Graph::from_edges: self-loop or duplicate edge");
  return g;
}

Graph Graph::from_edges_dedup(NodeId n, std::span<const Edge> edges,
                              std::vector<Edge>* skipped) {
  Graph g(n);
  g.edges_.reserve(edges.size());  // upper bound: skips only shrink it
  g.edge_index_ = FlatEdgeHash(edges.size());
  for (const auto& e : edges) {
    util::expects(e.u < n && e.v < n, "Graph::from_edges: node out of range");
    const auto slot = static_cast<std::uint32_t>(g.edges_.size());
    if (e.u != e.v && g.edge_index_.insert(util::pair_key(e.u, e.v), slot)) {
      g.edges_.push_back(e);
    } else if (skipped != nullptr) {
      skipped->push_back(e);
    }
  }

  // Rows sized from a degree count, then filled in edge order.
  std::vector<std::uint32_t> degree(n, 0);
  for (const auto& e : g.edges_) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (NodeId v = 0; v < n; ++v) g.adjacency_[v].reserve(degree[v]);
  for (const auto& e : g.edges_) {
    g.adjacency_[e.u].push_back(e.v);
    g.adjacency_[e.v].push_back(e.u);
  }
  return g;
}

Graph Graph::from_rows(std::vector<std::vector<NodeId>> rows) {
  util::expects(rows.size() <= std::numeric_limits<NodeId>::max(),
                "Graph::from_rows: too many rows");
  const auto n = static_cast<NodeId>(rows.size());
  std::size_t cells = 0;
  for (const auto& row : rows) cells += row.size();

  Graph g;
  g.edges_.reserve(cells / 2);
  g.edge_index_ = FlatEdgeHash(cells / 2);
  // Each edge enters from its lower endpoint's row, which comes first,
  // and must then be met exactly once in the higher endpoint's.
  constexpr const char* kOneSided =
      "lists a neighbor whose row does not list it back";
  std::vector<std::uint8_t> met_back;
  met_back.reserve(cells / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : rows[u]) {
      if (v >= n) throw RowError(u, "neighbor id out of range");
      if (v == u) throw RowError(u, "self-loop");
      if (v > u) {
        const auto slot = static_cast<std::uint32_t>(g.edges_.size());
        if (!g.edge_index_.insert(util::pair_key(u, v), slot)) {
          throw RowError(u, "neighbor listed twice");
        }
        g.edges_.push_back(Edge{u, v});
        met_back.push_back(0);
        continue;
      }
      const std::uint32_t slot = g.edge_index_.find(util::pair_key(u, v));
      if (slot == FlatEdgeHash::npos) throw RowError(u, kOneSided);
      if (met_back[slot]++ != 0) throw RowError(u, "neighbor listed twice");
    }
  }
  for (std::size_t slot = 0; slot < met_back.size(); ++slot) {
    if (met_back[slot] == 0) throw RowError(g.edges_[slot].u, kOneSided);
  }
  g.adjacency_ = std::move(rows);
  return g;
}

bool Graph::add_edge(NodeId u, NodeId v) {
  util::expects(u < num_nodes() && v < num_nodes(),
                "Graph::add_edge: node out of range");
  const auto slot = static_cast<std::uint32_t>(edges_.size());
  if (u == v || !edge_index_.insert(util::pair_key(u, v), slot)) return false;
  edges_.push_back(Edge{u, v});
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes() || u == v) return false;
  const std::uint64_t key = util::pair_key(u, v);
  const std::uint32_t index = edge_index_.find(key);
  if (index == FlatEdgeHash::npos) return false;
  edge_index_.erase(key);

  // Swap-erase from the dense edge array, repointing the moved edge's index.
  const std::uint32_t last = static_cast<std::uint32_t>(edges_.size()) - 1;
  if (index != last) {
    edges_[index] = edges_[last];
    edge_index_.reassign(util::pair_key(edges_[index].u, edges_[index].v),
                         index);
  }
  edges_.pop_back();

  const auto drop_from = [&](NodeId a, NodeId b) {
    auto& list = adjacency_[a];
    const auto pos = std::find(list.begin(), list.end(), b);
    util::ensures(pos != list.end(), "Graph: adjacency/edge-set divergence");
    *pos = list.back();
    list.pop_back();
  };
  drop_from(u, v);
  drop_from(v, u);
  return true;
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

double Graph::average_degree() const noexcept {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_nodes());
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (const auto& list : adjacency_) best = std::max(best, list.size());
  return best;
}

std::vector<std::size_t> Graph::degree_sequence() const {
  std::vector<std::size_t> degrees(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) degrees[v] = adjacency_[v].size();
  return degrees;
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (const auto& e : a.edges_) {
    if (!b.has_edge(e.u, e.v)) return false;
  }
  return true;
}

}  // namespace orbis
