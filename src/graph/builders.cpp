#include "graph/builders.hpp"

namespace orbis::builders {

Graph path(NodeId n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph cycle(NodeId n) {
  util::expects(n >= 3, "builders::cycle: need at least 3 nodes");
  Graph g = path(n);
  g.add_edge(n - 1, 0);
  return g;
}

Graph star(NodeId n) {
  util::expects(n >= 2, "builders::star: need at least 2 nodes");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph complete(NodeId n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph complete_bipartite(NodeId a, NodeId b) {
  Graph g(a + b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) g.add_edge(u, a + v);
  }
  return g;
}

Graph grid(NodeId rows, NodeId cols) {
  util::expects(rows >= 1 && cols >= 1, "builders::grid: empty dimensions");
  Graph g(rows * cols);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph gnm(NodeId n, std::size_t m, util::Rng& rng) {
  util::expects(n >= 2 || m == 0, "builders::gnm: too few nodes");
  const std::size_t max_edges =
      static_cast<std::size_t>(n) * (n - 1) / 2;
  util::expects(m <= max_edges, "builders::gnm: more edges than pairs");
  Graph g(n);
  while (g.num_edges() < m) {
    const auto u = static_cast<NodeId>(rng.uniform(n));
    const auto v = static_cast<NodeId>(rng.uniform(n));
    g.add_edge(u, v);  // rejects loops and duplicates
  }
  return g;
}

Graph gnp(NodeId n, double p, util::Rng& rng) {
  util::expects(p >= 0.0 && p <= 1.0, "builders::gnp: p outside [0,1]");
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

Graph random_tree(NodeId n, util::Rng& rng) {
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>(rng.uniform(v)));
  }
  return g;
}

}  // namespace orbis::builders
