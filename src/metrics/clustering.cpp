#include "metrics/clustering.hpp"

#include <map>

#include "core/three_k_count.hpp"

namespace orbis::metrics {

std::int64_t triangles_through(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);
  std::int64_t count = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) ++count;
    }
  }
  return count;
}

namespace {

double clustering_of(std::size_t k, std::int64_t triangles) {
  if (k < 2) return 0.0;
  return 2.0 * static_cast<double>(triangles) /
         (static_cast<double>(k) * static_cast<double>(k - 1));
}

}  // namespace

double local_clustering(const Graph& g, NodeId v) {
  return clustering_of(g.degree(v), triangles_through(g, v));
}

double mean_clustering(const Graph& g) {
  if (g.num_nodes() == 0) return 0.0;
  const auto triangles = dk::triangles_per_node(g);
  double sum = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    sum += clustering_of(g.degree(v), triangles[v]);
  }
  return sum / static_cast<double>(g.num_nodes());
}

std::vector<DegreeClustering> clustering_by_degree(const Graph& g) {
  const auto triangles = dk::triangles_per_node(g);
  std::map<std::size_t, std::pair<std::uint64_t, double>> by_degree;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& [count, sum] = by_degree[g.degree(v)];
    ++count;
    sum += clustering_of(g.degree(v), triangles[v]);
  }
  std::vector<DegreeClustering> result;
  result.reserve(by_degree.size());
  for (const auto& [k, entry] : by_degree) {
    const auto& [count, sum] = entry;
    result.push_back(
        DegreeClustering{k, count, sum / static_cast<double>(count)});
  }
  return result;
}

std::int64_t total_triangles(const Graph& g) {
  std::int64_t through_sum = 0;
  for (const std::int64_t t : dk::triangles_per_node(g)) through_sum += t;
  // Each triangle is counted at each of its three vertices.
  return through_sum / 3;
}

double global_clustering(const Graph& g) {
  const auto triangles = dk::triangles_per_node(g);
  std::int64_t closed = 0;  // ordered closed pairs = 2 t_v summed
  std::int64_t pairs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto k = static_cast<std::int64_t>(g.degree(v));
    closed += 2 * triangles[v];
    pairs += k * (k - 1);
  }
  if (pairs == 0) return 0.0;
  return static_cast<double>(closed) / static_cast<double>(pairs);
}

}  // namespace orbis::metrics
