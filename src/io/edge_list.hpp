// Edge-list file I/O.
//
// Format: one "u v" pair per line, whitespace separated; '#' starts a
// comment; blank lines ignored.  Node ids are arbitrary uint64 values,
// densified on read in first-appearance order (original_ids keeps them),
// unless the writer header's node count holds (orbis::declared_nodes_hold)
// and they are kept verbatim.  Both readers run the one chunked parse
// loop (io/chunked_edge_reader.hpp) and build through Graph's bulk build.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace orbis::io {

struct EdgeListReadResult {
  Graph graph;
  std::vector<std::uint64_t> original_ids;  // dense id -> file id
  std::size_t skipped_self_loops = 0;
  std::size_t skipped_duplicates = 0;
};

/// Parse an edge list from a stream.  Throws orbis::ParseError (a
/// std::invalid_argument) with a line number on malformed input, and
/// orbis::IoError if the stream goes bad mid-read — a stream error is
/// never conflated with end-of-file.
EdgeListReadResult read_edge_list(std::istream& in);

/// Read from a file path, through the fault seam and the transient-error
/// retry policy (io/retry.hpp).  Throws orbis::IoError (a
/// std::runtime_error) naming the file if it cannot be opened, or the
/// byte offset if a read fails.
EdgeListReadResult read_edge_list_file(const std::string& path);

/// Write "u v" lines (dense ids).  The file variant writes atomically
/// (temp + fsync + rename, io/atomic_file.hpp) and throws orbis::IoError
/// on any failure, leaving the destination untouched.
void write_edge_list(std::ostream& out, const Graph& g);
void write_edge_list_file(const std::string& path, const Graph& g);

}  // namespace orbis::io
