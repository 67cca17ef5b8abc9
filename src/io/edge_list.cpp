#include "io/edge_list.hpp"

#include <numeric>
#include <ostream>

#include "graph/node_id_interner.hpp"
#include "io/atomic_file.hpp"
#include "io/chunked_edge_reader.hpp"

namespace orbis::io {

namespace {

/// One pass of the shared parse loop, then one bulk build.
EdgeListReadResult read_edges(ChunkedEdgeListReader& reader) {
  std::vector<std::uint64_t> file_ids;  // u0 v0 u1 v1 ... in file order
  reader.run_pass([&file_ids](std::span<const RawEdge> chunk) {
    for (const RawEdge& e : chunk) {
      file_ids.push_back(e.u);
      file_ids.push_back(e.v);
    }
  });

  // Ids are interned only if the declared node count does not hold;
  // otherwise they are the dense ids already.
  const bool verbatim =
      declared_nodes_hold(reader.declared_nodes(), file_ids);
  NodeIdInterner ids;  // first-appearance order, for stable dense ids
  const auto dense = [&](std::uint64_t id) {
    return verbatim ? static_cast<NodeId>(id) : ids.intern(id);
  };
  EdgeListReadResult result;
  std::vector<Edge> edges;
  edges.reserve(file_ids.size() / 2);
  for (std::size_t i = 0; i < file_ids.size(); i += 2) {
    const NodeId u = dense(file_ids[i]);
    const NodeId v = dense(file_ids[i + 1]);
    if (u == v) {
      ++result.skipped_self_loops;
    } else {
      edges.push_back(Edge{u, v});
    }
  }
  if (verbatim) {
    result.original_ids.resize(reader.declared_nodes());
    std::iota(result.original_ids.begin(), result.original_ids.end(),
              std::uint64_t{0});
  } else {
    result.original_ids = ids.original_ids();
  }
  std::vector<std::uint64_t>().swap(file_ids);  // release before the build

  result.graph = Graph::from_edges_dedup(
      static_cast<NodeId>(result.original_ids.size()), edges);
  result.skipped_duplicates = edges.size() - result.graph.num_edges();
  return result;
}

}  // namespace

EdgeListReadResult read_edge_list(std::istream& in) {
  ChunkedEdgeListReader reader(stream_source(in));
  return read_edges(reader);
}

EdgeListReadResult read_edge_list_file(const std::string& path) {
  ChunkedEdgeListReader reader(path);
  return read_edges(reader);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# orbis edge list: " << g.num_nodes() << " nodes, "
      << g.num_edges() << " edges\n";
  for (const auto& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  // Atomic: a crash or ENOSPC mid-write never leaves a truncated edge
  // list at `path` for a resumed run to read back.
  write_file_atomic(path, [&g](std::ostream& out) { write_edge_list(out, g); });
}

}  // namespace orbis::io
