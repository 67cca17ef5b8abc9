#include "core/degree_distribution.hpp"

#include <algorithm>

namespace orbis::dk {

DegreeDistribution DegreeDistribution::from_graph(const Graph& g) {
  return from_sequence(g.degree_sequence());
}

DegreeDistribution DegreeDistribution::from_sequence(
    const std::vector<std::size_t>& degrees) {
  DegreeDistribution dist;
  std::size_t max_degree = 0;
  for (const auto d : degrees) max_degree = std::max(max_degree, d);
  dist.counts_.assign(max_degree + 1, 0);
  for (const auto d : degrees) ++dist.counts_[d];
  dist.total_nodes_ = degrees.size();
  if (degrees.empty()) dist.counts_.clear();
  return dist;
}

DegreeDistribution DegreeDistribution::from_counts(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& counts) {
  DegreeDistribution dist;
  for (const auto& [k, n] : counts) {
    if (n == 0) continue;
    if (k >= dist.counts_.size()) dist.counts_.resize(k + 1, 0);
    dist.counts_[k] += n;
    dist.total_nodes_ += n;
  }
  return dist;
}

double DegreeDistribution::p_of_k(std::size_t k) const noexcept {
  if (total_nodes_ == 0) return 0.0;
  return static_cast<double>(n_of_k(k)) / static_cast<double>(total_nodes_);
}

std::uint64_t DegreeDistribution::num_stubs() const noexcept {
  std::uint64_t stubs = 0;
  for (std::size_t k = 1; k < counts_.size(); ++k) stubs += k * counts_[k];
  return stubs;
}

double DegreeDistribution::average_degree() const noexcept {
  if (total_nodes_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    sum += static_cast<double>(k) * static_cast<double>(counts_[k]);
  }
  return sum / static_cast<double>(total_nodes_);
}

double DegreeDistribution::mean_excess_degree() const noexcept {
  double k1 = 0.0;  // Σ k n(k)
  double k2 = 0.0;  // Σ k(k-1) n(k)
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    const auto nk = static_cast<double>(counts_[k]);
    k1 += static_cast<double>(k) * nk;
    k2 += static_cast<double>(k) * static_cast<double>(k - 1) * nk;
  }
  return k1 > 0.0 ? k2 / k1 : 0.0;
}

std::vector<std::size_t> DegreeDistribution::to_sequence() const {
  std::vector<std::size_t> sequence;
  sequence.reserve(total_nodes_);
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    sequence.insert(sequence.end(), counts_[k], k);
  }
  return sequence;
}

std::vector<std::size_t> DegreeDistribution::support() const {
  std::vector<std::size_t> degrees;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] > 0) degrees.push_back(k);
  }
  return degrees;
}

}  // namespace orbis::dk
