// The edge-list line grammar.
//
// Its one caller is ChunkedEdgeListReader's parse loop
// (io/chunked_edge_reader.hpp), which every edge-list reader runs: the
// in-memory io::read_edge_list, the streaming extractor and DkCache's
// key pass alike.  Fields are read by the one FieldCursor
// (io/line_reader.hpp), like every other text format's.
//
// Grammar per line: optional "u v" pair (whitespace separated), optional
// '#' comment to end of line; blank/comment-only lines are skipped.  The
// library's own writer header "# orbis edge list: N nodes..." is
// recognized and reported through `declared_nodes` so round trips can
// preserve node ids and isolated nodes.  N must fit a NodeId.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "io/line_reader.hpp"
#include "util/errors.hpp"

namespace orbis::io::detail {

/// Parses one line.  Returns true with (u, v) filled for an edge line;
/// false for a blank or comment-only line.  A recognized writer header
/// updates `declared_nodes`.  Malformed content, and a header count
/// above 2^32 - 1 (the NodeId range), throw orbis::ParseError (a
/// std::invalid_argument) naming `line_number`.
inline bool parse_edge_line(std::string_view line, std::size_t line_number,
                            std::uint64_t& u, std::uint64_t& v,
                            std::uint64_t& declared_nodes) {
  const auto malformed = [line_number](const char* what) {
    throw ParseError("edge list line " + std::to_string(line_number) + ": " +
                     what);
  };

  const auto hash = line.find('#');
  if (hash != std::string_view::npos) {
    // Recognize this library's own header so round trips preserve node
    // ids and isolated nodes exactly.
    constexpr std::string_view header = "# orbis edge list:";
    std::string_view comment = line.substr(hash);
    if (comment.starts_with(header)) {
      const auto count = comment.find_first_not_of(" \t\r", header.size());
      comment = comment.substr(std::min(count, comment.size()));
      std::uint64_t n = 0;  // stays 0 when no count follows
      const auto ec =
          std::from_chars(comment.data(), comment.data() + comment.size(), n)
              .ec;
      if (ec == std::errc::result_out_of_range || n > 0xffffffffull) {
        malformed("declared node count exceeds 2^32 - 1");
      }
      if (ec == std::errc()) declared_nodes = n;
    }
    line = line.substr(0, hash);
  }
  FieldCursor fields(line);
  if (fields.at_end()) return false;
  u = fields.u64();
  v = fields.u64();
  if (!fields.ok()) malformed("expected two node ids");
  if (!fields.at_end()) malformed("trailing tokens after edge");
  return true;
}

}  // namespace orbis::io::detail
