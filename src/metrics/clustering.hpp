// Clustering metrics (paper §2): local clustering, mean clustering C̄,
// and degree-dependent clustering C(k).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace orbis::metrics {

/// Number of edges among the neighbors of v (= triangles through v), by
/// O(deg²) pair probes.  The whole-graph metrics below take every t_v
/// from one dk::triangles_per_node pass instead; this stays the per-node
/// API and the tests' oracle.
std::int64_t triangles_through(const Graph& g, NodeId v);

/// Local clustering c_v = 2 t_v / (k_v (k_v - 1)); 0 when k_v < 2.
double local_clustering(const Graph& g, NodeId v);

/// Mean local clustering C̄ over ALL nodes (degree<2 nodes contribute 0,
/// matching the paper's C̄ = 0 for the almost-tree HOT graph).
double mean_clustering(const Graph& g);

/// One C(k) sample: degree k, number of nodes with that degree, and their
/// mean local clustering.
struct DegreeClustering {
  std::size_t k = 0;
  std::uint64_t num_nodes = 0;
  double mean_clustering = 0.0;
};

/// C(k) for every degree with at least one node, ascending in k.
/// (Figures 5a, 6c, 7 plot exactly this series.)
std::vector<DegreeClustering> clustering_by_degree(const Graph& g);

/// Total number of triangles in the graph.
std::int64_t total_triangles(const Graph& g);

/// Global (transitivity) clustering: 3 * triangles / open-or-closed
/// neighbor pairs.  Provided for completeness; the paper uses C̄.
double global_clustering(const Graph& g);

}  // namespace orbis::metrics
