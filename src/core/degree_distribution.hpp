// The 1K-distribution: node degree distribution P(k) = n(k)/n.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace orbis::dk {

class DegreeDistribution {
 public:
  DegreeDistribution() = default;

  static DegreeDistribution from_graph(const Graph& g);
  static DegreeDistribution from_sequence(
      const std::vector<std::size_t>& degrees);
  /// From (k, n(k)) pairs in any order; a repeated k adds up.
  static DegreeDistribution from_counts(
      const std::vector<std::pair<std::size_t, std::uint64_t>>& counts);

  /// Number of nodes with degree k (0 for k beyond the observed maximum).
  std::uint64_t n_of_k(std::size_t k) const noexcept {
    return k < counts_.size() ? counts_[k] : 0;
  }

  /// P(k) = n(k)/n; 0 for the empty distribution.
  double p_of_k(std::size_t k) const noexcept;

  std::uint64_t num_nodes() const noexcept { return total_nodes_; }
  /// Σ k·n(k): twice the edge count m of every graph with this 1K.
  std::uint64_t num_stubs() const noexcept;
  std::size_t max_degree() const noexcept {
    return counts_.empty() ? 0 : counts_.size() - 1;
  }

  /// k̄ = Σ k P(k) — the paper's inclusion projection P1 -> P0.
  double average_degree() const noexcept;

  /// Σ k(k-1) P(k) / k̄ — mean excess degree (used by maximum-entropy
  /// predictions of 1K-random graphs).
  double mean_excess_degree() const noexcept;

  /// Expand back into a degree sequence, ascending.
  std::vector<std::size_t> to_sequence() const;

  /// Degrees with non-zero counts, ascending.
  std::vector<std::size_t> support() const;

  friend bool operator==(const DegreeDistribution&,
                         const DegreeDistribution&) = default;

 private:
  std::vector<std::uint64_t> counts_;  // counts_[k] = n(k)
  std::uint64_t total_nodes_ = 0;
};

}  // namespace orbis::dk
