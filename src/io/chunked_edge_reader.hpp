// Chunked edge-list reading: the one parse loop every edge-list reader
// runs, with bounded memory.
//
// ChunkedEdgeListReader pulls lines from the one line reader
// (io/line_reader.hpp) and hands out bounded spans of parsed edges, so
// a pass over a million-edge file holds kilobytes, not gigabytes.  It is
// the only caller of the edge-line grammar (io/edge_line.hpp), and it
// reads a file (through the fault seam and the retry policy) or a
// caller's ByteSource.  The in-memory reader io::read_edge_list is a
// pass of this loop too, over a file or a std::istream, so both accept
// and reject exactly the same inputs.
//
// extract_dk_streaming() is the assembled pipeline: it drives a
// dk::StreamingDkExtractor (core/streaming_extractor.hpp) through the
// extractor's passes, re-scanning the file per pass.  This is what
// `orbis_tool extract` runs, and what makes `extract -> target` work on
// graphs that never fit the in-memory path.  See docs/scaling.md.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/streaming_extractor.hpp"
#include "io/line_reader.hpp"
#include "svc/run_context.hpp"

namespace orbis::io {

struct RawEdge {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

class ChunkedEdgeListReader {
 public:
  using ByteSource = io::ByteSource;
  using Sink = std::function<void(std::span<const RawEdge>)>;

  struct Options {
    std::size_t buffer_bytes = kReadBufferBytes;  // read granularity
    std::size_t chunk_edges = 1 << 15;  // parsed edges per sink call
    RetryPolicy retry{};  // transient open/read failures (EINTR/EAGAIN)
  };

  explicit ChunkedEdgeListReader(std::string path);
  ChunkedEdgeListReader(std::string path, Options options);
  /// Reads `source` instead of a file (read_edge_list reads a
  /// std::istream this way).  A source is not rewound: each pass reads
  /// what the source has left.
  explicit ChunkedEdgeListReader(ByteSource source);

  /// One sequential scan: parses the file and invokes `sink` with
  /// successive spans of at most chunk_edges edges (comment/blank lines
  /// skipped; self-loop/duplicate policy is the consumer's).  Returns
  /// the number of edges handed out.  Throws orbis::IoError (a
  /// std::runtime_error) if the file cannot be opened or a read fails —
  /// read errors carry the byte offset and errno, and are never
  /// silently treated as end-of-file — and orbis::ParseError (a
  /// std::invalid_argument, with a line number) on malformed content.
  std::size_t run_pass(const Sink& sink);

  /// Node count declared by a writer header ("# orbis edge list: N
  /// nodes..."), 0 if none; valid once run_pass has seen the header
  /// (i.e. after any complete pass).
  std::uint64_t declared_nodes() const noexcept { return declared_nodes_; }

 private:
  /// One pass over what `lines` yields.
  std::size_t scan(LineReader lines, const Sink& sink);

  std::string path_;
  ByteSource source_;  // empty: read path_
  Options options_;
  std::uint64_t declared_nodes_ = 0;
};

struct StreamingExtractOptions {
  dk::StreamingOptions extractor;
  ChunkedEdgeListReader::Options reader;
};

struct StreamingExtractResult {
  dk::DkDistributions distributions;
  std::size_t skipped_self_loops = 0;
  std::size_t skipped_duplicates = 0;
  /// Largest accumulator footprint observed across passes
  /// (StreamingDkExtractor::accumulator_bytes).
  std::size_t peak_accumulator_bytes = 0;
};

/// Extracts the dK-distributions of the edge-list file up to `max_d`
/// by streaming it pass by pass — bin-for-bin equal to
/// dk::extract(read_edge_list_file(path).graph, max_d) without ever
/// holding the graph.  ctx.stop is polled once per parsed chunk inside
/// every pass; a requested stop throws orbis::InterruptedError (partial
/// accumulator state is discarded with the extractor).  ctx.progress
/// gets one sample per chunk: attempts = edges consumed so far in the
/// current pass, budget = edges per full pass (known after the first
/// pass completes, 0 during it).
StreamingExtractResult extract_dk_streaming(
    const std::string& path, int max_d,
    const StreamingExtractOptions& options = {},
    const svc::RunContext& ctx = {});

}  // namespace orbis::io
