#include "graph/multigraph.hpp"

namespace orbis {

void Multigraph::add_edge(NodeId u, NodeId v) {
  util::expects(u < num_nodes_ && v < num_nodes_,
                "Multigraph::add_edge: node out of range");
  edges_.push_back(Edge{u, v});
}

std::size_t Multigraph::count_self_loops() const noexcept {
  std::size_t loops = 0;
  for (const auto& e : edges_) {
    if (e.u == e.v) ++loops;
  }
  return loops;
}

std::vector<std::size_t> Multigraph::degree_sequence() const {
  std::vector<std::size_t> degrees(num_nodes_, 0);
  for (const auto& e : edges_) {
    degrees[e.u] += 1;
    degrees[e.v] += 1;  // a loop contributes 2 to its node, as intended
  }
  return degrees;
}

Graph Multigraph::to_simple(SimplificationReport* report) const {
  Graph g = Graph::from_edges_dedup(num_nodes_, edges_);
  if (report != nullptr) {
    const std::size_t loops = count_self_loops();
    report->self_loops_removed = loops;
    report->parallel_edges_removed = edges_.size() - loops - g.num_edges();
  }
  return g;
}

}  // namespace orbis
