#include "core/three_k_profile.hpp"

#include <map>

#include "core/three_k_count.hpp"

namespace orbis::dk {

void ThreeKProfile::add_triangle(NodeId, NodeId, NodeId, std::uint32_t ka,
                                 std::uint32_t kb, std::uint32_t kc) {
  triangles_.increment(util::triangle_key(ka, kb, kc));
  wedges_.decrement(util::wedge_key(kb, ka, kc));  // center a
  wedges_.decrement(util::wedge_key(ka, kb, kc));  // center b
  wedges_.decrement(util::wedge_key(ka, kc, kb));  // center c
}

ThreeKProfile ThreeKProfile::from_graph(const Graph& g) {
  ThreeKProfile profile;
  count_three_k(g, profile);
  return profile;
}

ThreeKProfile ThreeKProfile::from_graph_naive(const Graph& g) {
  ThreeKProfile profile;
  const auto degree = [&](NodeId v) {
    return static_cast<std::uint32_t>(g.degree(v));
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const NodeId a = nbrs[i];
        const NodeId b = nbrs[j];
        if (g.has_edge(a, b)) {
          // Count each triangle once: at its minimum-id vertex.
          if (v < a && v < b) {
            profile.triangles_.increment(
                util::triangle_key(degree(v), degree(a), degree(b)));
          }
        } else {
          profile.wedges_.increment(
              util::wedge_key(degree(a), degree(v), degree(b)));
        }
      }
    }
  }
  return profile;
}

double ThreeKProfile::second_order_likelihood() const {
  double total = 0.0;
  for (const auto& [key, count] : wedges_.bins()) {
    const auto [end1, center, end2] = util::unpack_triple(key);
    (void)center;
    total += static_cast<double>(count) * static_cast<double>(end1) *
             static_cast<double>(end2);
  }
  return total;
}

double ThreeKProfile::triangle_degree_sum() const {
  double total = 0.0;
  for (const auto& [key, count] : triangles_.bins()) {
    const auto [a, b, c] = util::unpack_triple(key);
    total += static_cast<double>(count) *
             static_cast<double>(a + b + c);
  }
  return total;
}

JointDegreeDistribution ThreeKProfile::project_to_2k() const {
  // incidence[(kc, ke)] = number of ordered (edge-side, extra neighbor)
  // configurations whose center (side vertex) has degree kc and whose edge
  // partner has degree ke.  Every such configuration is exactly one wedge
  // or one triangle.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> incidence;

  for (const auto& [key, count] : wedges_.bins()) {
    const auto [end1, center, end2] = util::unpack_triple(key);
    // Wedge e1 - c - e2 contains edges (c,e1) and (c,e2); the extra
    // neighbor of side c is the opposite end in each case.
    incidence[{center, end1}] += count;
    incidence[{center, end2}] += count;
  }
  for (const auto& [key, count] : triangles_.bins()) {
    const auto [a, b, c] = util::unpack_triple(key);
    const std::uint32_t deg[3] = {a, b, c};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i != j) incidence[{deg[i], deg[j]}] += count;
      }
    }
  }

  // m(k1,k2) = incidence[(k1,k2)] / (k1-1), doubled denominator when
  // k1 == k2 (both sides of the edge contribute).
  JointDegreeDistribution jdd;
  std::map<std::uint64_t, std::int64_t> recovered;
  for (const auto& [pair, configurations] : incidence) {
    const auto [kc, ke] = pair;
    if (kc < 2) continue;  // degree-1 side contributes no configurations
    const std::int64_t denominator =
        (kc == ke) ? 2 * static_cast<std::int64_t>(kc - 1)
                   : static_cast<std::int64_t>(kc - 1);
    util::ensures(configurations % denominator == 0,
                  "3K projection: inconsistent incidence counts");
    const std::int64_t m = configurations / denominator;
    const std::uint64_t key = util::pair_key(kc, ke);
    const auto it = recovered.find(key);
    if (it == recovered.end()) {
      recovered.emplace(key, m);
    } else {
      util::ensures(it->second == m,
                    "3K projection: the two edge sides disagree");
    }
  }
  // NOTE: the result excludes (1,1)-edges, invisible at d=3.
  for (const auto& [key, m] : recovered) jdd.histogram().add(key, m);
  return jdd;
}

}  // namespace orbis::dk
