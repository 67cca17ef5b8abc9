#include "core/series.hpp"

#include <sstream>

#include "util/check.hpp"

namespace orbis::dk {

DkDistributions extract(const Graph& g, int max_d) {
  util::expects(max_d >= 0 && max_d <= 3, "extract: max_d must be in [0,3]");
  DkDistributions dists;
  dists.num_nodes = g.num_nodes();
  dists.num_edges = g.num_edges();
  dists.average_degree = g.average_degree();
  if (max_d >= 1) dists.degree = DegreeDistribution::from_graph(g);
  if (max_d >= 2) dists.joint = JointDegreeDistribution::from_graph(g);
  if (max_d >= 3) dists.three_k = ThreeKProfile::from_graph(g);
  return dists;
}

double distance_0k(const DkDistributions& a, const DkDistributions& b) {
  const double diff = a.average_degree - b.average_degree;
  return diff * diff;
}

double distance_1k(const DegreeDistribution& a, const DegreeDistribution& b) {
  const std::size_t kmax = std::max(a.max_degree(), b.max_degree());
  double total = 0.0;
  for (std::size_t k = 0; k <= kmax; ++k) {
    const double diff = static_cast<double>(a.n_of_k(k)) -
                        static_cast<double>(b.n_of_k(k));
    total += diff * diff;
  }
  return total;
}

double distance_2k(const JointDegreeDistribution& a,
                   const JointDegreeDistribution& b) {
  return SparseHistogram::squared_difference(a.histogram(), b.histogram());
}

double distance_3k(const ThreeKProfile& a, const ThreeKProfile& b) {
  return static_cast<double>(
      SortedBins::squared_difference(a.wedges(), b.wedges()) +
      SortedBins::squared_difference(a.triangles(), b.triangles()));
}

std::string describe(const DkDistributions& dists) {
  std::ostringstream out;
  out << "n=" << dists.num_nodes << " m=" << dists.num_edges
      << " kbar=" << dists.average_degree
      << " kmax=" << dists.degree.max_degree()
      << " jdd_bins=" << dists.joint.histogram().num_bins()
      << " wedges=" << dists.three_k.total_wedges()
      << " triangles=" << dists.three_k.total_triangles();
  return out.str();
}

}  // namespace orbis::dk
