#include "io/chunked_edge_reader.hpp"

#include <string_view>
#include <vector>

#include "io/edge_line.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace orbis::io {

ChunkedEdgeListReader::ChunkedEdgeListReader(std::string path)
    : ChunkedEdgeListReader(std::move(path), Options()) {}

ChunkedEdgeListReader::ChunkedEdgeListReader(std::string path,
                                             Options options)
    : path_(std::move(path)), options_(options) {
  util::expects(options_.chunk_edges > 0,
                "ChunkedEdgeListReader: chunk_edges must be positive");
}

ChunkedEdgeListReader::ChunkedEdgeListReader(ByteSource source)
    : source_(std::move(source)) {}

std::size_t ChunkedEdgeListReader::run_pass(const Sink& sink) {
  return scan(LineReader(source_ ? source_ : file_source(path_, options_.retry),
                         options_.buffer_bytes),
              sink);
}

std::size_t ChunkedEdgeListReader::scan(LineReader lines, const Sink& sink) {
  std::vector<RawEdge> chunk;
  chunk.reserve(options_.chunk_edges);
  std::size_t total_edges = 0;
  const auto flush = [&]() {
    sink(std::span<const RawEdge>(chunk.data(), chunk.size()));
    total_edges += chunk.size();
    chunk.clear();
  };
  std::string_view line;
  while (lines.next(line)) {
    RawEdge edge;
    if (detail::parse_edge_line(line, lines.line_number(), edge.u, edge.v,
                                declared_nodes_)) {
      chunk.push_back(edge);
      if (chunk.size() == options_.chunk_edges) flush();
    }
  }
  if (!chunk.empty()) flush();
  return total_edges;
}

StreamingExtractResult extract_dk_streaming(
    const std::string& path, int max_d,
    const StreamingExtractOptions& options, const svc::RunContext& ctx) {
  ChunkedEdgeListReader reader(path, options.reader);
  dk::StreamingDkExtractor extractor(max_d, options.extractor);
  StreamingExtractResult result;

  std::size_t pass_edges = 0;   // edges consumed in the current pass
  std::size_t pass_budget = 0;  // edges per full pass, known after pass 0
  const auto consume_chunk = [&](std::span<const RawEdge> edges) {
    if (ctx.stop.stop_requested()) {
      throw InterruptedError("extract_dk_streaming: cancelled");
    }
    for (const RawEdge& edge : edges) extractor.consume(edge.u, edge.v);
    pass_edges += edges.size();
    if (ctx.progress != nullptr) {
      ctx.progress->report(0, obs::ProgressSample{.attempts = pass_edges,
                                                  .budget = pass_budget});
    }
  };

  int pass = 0;
  while (true) {
    {
      // Pass 0 is the degree census, pass 1 the histogram accumulation
      // (core/streaming_extract.hpp); name the spans accordingly so a
      // trace shows where a big extract spends its time.
      const obs::Span pass_span(pass == 0 ? "extract.pass0"
                                          : "extract.pass1");
      pass_budget = pass_edges;  // a full pass revisits every edge
      pass_edges = 0;
      reader.run_pass(consume_chunk);
    }
    ++pass;
    const bool more = extractor.needs_another_pass();
    extractor.end_pass();
    if (!more) break;
  }
  extractor.declare_nodes(reader.declared_nodes());
  {
    const obs::Span finish_span("extract.finish");
    result.distributions = extractor.finish();
  }
  // The extractor checkpoints its own high-water mark (the 3K
  // histograms exist only inside finish(), invisible to callers).
  result.peak_accumulator_bytes = extractor.peak_accumulator_bytes();
  result.skipped_self_loops = extractor.skipped_self_loops();
  result.skipped_duplicates = extractor.skipped_duplicates();
  return result;
}

}  // namespace orbis::io
