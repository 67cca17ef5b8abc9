#include "gen/count_rewirings.hpp"

#include <memory>

#include "core/dk_state.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

struct CandidateVerdict {
  bool valid = false;
  bool obviously_isomorphic = false;
};

/// Checks one (edge pair, orientation) candidate swap
/// (a,b),(c,d) -> (a,d),(c,b) at series level d.  For d == 3 the swap's
/// wedge/triangle journal (DkState::evaluate_swap, which mutates
/// nothing) tests 3K preservation exactly.
class CandidateChecker {
 public:
  CandidateChecker(const Graph& g, int d) : graph_(g), d_(d) {
    degrees_.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      degrees_[v] = static_cast<std::uint32_t>(g.degree(v));
    }
    if (d_ == 3) {
      state_ = std::make_unique<dk::DkState>(g, dk::TrackLevel::swap_journal);
    }
  }

  CandidateVerdict check(NodeId a, NodeId b, NodeId c, NodeId d) {
    CandidateVerdict verdict;
    if (a == c || a == d || b == c || b == d) return verdict;
    if (graph_.has_edge(a, d) || graph_.has_edge(c, b)) return verdict;
    if (d_ >= 2 &&
        !(degrees_[b] == degrees_[d] || degrees_[a] == degrees_[c])) {
      return verdict;
    }
    if (d_ == 3) {
      // The checks above are evaluate_swap's preconditions.
      state_->evaluate_swap(a, b, c, d, delta_);
      if (!delta_.journal.all_zero()) return verdict;
    }
    verdict.valid = true;
    verdict.obviously_isomorphic =
        (degrees_[b] == 1 && degrees_[d] == 1) ||
        (degrees_[a] == 1 && degrees_[c] == 1);
    return verdict;
  }

 private:
  const Graph& graph_;
  int d_;
  std::vector<std::uint32_t> degrees_;
  std::unique_ptr<dk::DkState> state_;
  dk::SwapDelta delta_;
};

InitialRewiringCounts count_0k(const Graph& g) {
  InitialRewiringCounts counts;
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  const std::uint64_t pairs = n * (n - 1) / 2;
  // An edge can be moved to any currently empty slot.
  counts.possible = m * (pairs - m);
  counts.obviously_isomorphic = 0;  // not defined at d = 0 (paper: "-")
  return counts;
}

}  // namespace

InitialRewiringCounts count_initial_rewirings(const Graph& g, int d) {
  util::expects(d >= 0 && d <= 3,
                "count_initial_rewirings: d must be in [0,3]");
  if (d == 0) return count_0k(g);

  InitialRewiringCounts counts;
  CandidateChecker checker(g, d);
  const std::size_t m = g.num_edges();
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e1 = g.edge_at(i);
    for (std::size_t j = i + 1; j < m; ++j) {
      const Edge e2 = g.edge_at(j);
      for (int orientation = 0; orientation < 2; ++orientation) {
        const NodeId c = (orientation == 0) ? e2.u : e2.v;
        const NodeId d2 = (orientation == 0) ? e2.v : e2.u;
        const auto verdict = checker.check(e1.u, e1.v, c, d2);
        if (verdict.valid) {
          ++counts.possible;
          if (verdict.obviously_isomorphic) ++counts.obviously_isomorphic;
        }
      }
    }
  }
  return counts;
}

InitialRewiringCounts estimate_initial_rewirings(const Graph& g, int d,
                                                 std::size_t samples,
                                                 util::Rng& rng) {
  util::expects(d >= 0 && d <= 3,
                "estimate_initial_rewirings: d must be in [0,3]");
  if (d == 0) return count_0k(g);
  util::expects(samples > 0, "estimate_initial_rewirings: zero samples");

  CandidateChecker checker(g, d);
  const std::size_t m = g.num_edges();
  if (m < 2) return {};
  std::uint64_t valid = 0;
  std::uint64_t isomorphic = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i = rng.uniform(m);
    std::size_t j = rng.uniform(m - 1);
    if (j >= i) ++j;
    const Edge e1 = g.edge_at(i);
    Edge e2 = g.edge_at(j);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const auto verdict = checker.check(e1.u, e1.v, e2.u, e2.v);
    if (verdict.valid) {
      ++valid;
      if (verdict.obviously_isomorphic) ++isomorphic;
    }
  }
  // Total candidate space: C(m,2) pairs x 2 orientations = m(m-1).
  const double total = static_cast<double>(m) * static_cast<double>(m - 1);
  const double scale = total / static_cast<double>(samples);
  InitialRewiringCounts counts;
  counts.possible =
      static_cast<std::uint64_t>(static_cast<double>(valid) * scale);
  counts.obviously_isomorphic =
      static_cast<std::uint64_t>(static_cast<double>(isomorphic) * scale);
  return counts;
}

}  // namespace orbis::gen
