// The edge-list line grammar.
//
// Its one caller is ChunkedEdgeListReader's parse loop
// (io/chunked_edge_reader.hpp), which every edge-list reader runs: the
// in-memory io::read_edge_list and the streaming extractor alike.
//
// Grammar per line: optional "u v" pair (whitespace separated), optional
// '#' comment to end of line; blank/comment-only lines are skipped.  The
// library's own writer header "# orbis edge list: N nodes..." is
// recognized and reported through `declared_nodes` so round trips can
// preserve node ids and isolated nodes.  N must fit a NodeId.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/errors.hpp"

namespace orbis::io::detail {

inline std::string_view trim_edge_line_ws(std::string_view text) noexcept {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

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
      comment = trim_edge_line_ws(comment.substr(header.size()));
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
  line = trim_edge_line_ws(line);
  if (line.empty()) return false;

  const char* cursor = line.data();
  const char* end = line.data() + line.size();
  const auto parse_id = [&](std::uint64_t& out) {
    while (cursor != end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
    const auto [next, ec] = std::from_chars(cursor, end, out);
    if (ec != std::errc() || next == cursor) {
      malformed("expected two node ids");
    }
    cursor = next;
  };
  parse_id(u);
  if (cursor == end || (*cursor != ' ' && *cursor != '\t')) {
    malformed("expected two node ids");
  }
  parse_id(v);
  while (cursor != end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
  if (cursor != end) malformed("trailing tokens after edge");
  return true;
}

}  // namespace orbis::io::detail
