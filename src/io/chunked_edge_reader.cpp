#include "io/chunked_edge_reader.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <vector>

#include "io/edge_line.hpp"
#include "io/fault_injection.hpp"
#include "io/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace orbis::io {

namespace {

std::string errno_text(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// open(2) for reading through the fault seam.  Transient injected
/// failures are absorbed by the caller's retry policy.
int open_for_read(const std::string& path, const RetryPolicy& policy) {
  return retry_transient(policy, [&]() -> int {
    int injected = 0;
    if (fault::should_fail(fault::Point::open_read, injected)) {
      throw IoError("cannot open edge list file: " + path + ": " +
                        errno_text(injected),
                    injected);
    }
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      throw IoError("cannot open edge list file: " + path + ": " +
                        errno_text(err),
                    err);
    }
    return fd;
  });
}

/// One buffered read(2).  Returns bytes read; 0 is EOF and ONLY EOF — a
/// failing read throws IoError naming the byte offset, it never
/// masquerades as end-of-input (that conflation is how truncated-file
/// bugs stay silent).  Transient failures (EINTR/EAGAIN, injected or
/// real) are retried within the bounded policy.
std::size_t read_some(int fd, std::span<char> buffer, std::uint64_t offset,
                      const std::string& path, const RetryPolicy& policy) {
  return retry_transient(policy, [&]() -> std::size_t {
    int injected = 0;
    if (fault::should_fail(fault::Point::read, injected)) {
      throw IoError("read failed at byte offset " + std::to_string(offset) +
                        " of " + path + ": " + errno_text(injected),
                    injected);
    }
    const ssize_t got = ::read(fd, buffer.data(), buffer.size());
    if (got < 0) {
      const int err = errno;
      throw IoError("read failed at byte offset " + std::to_string(offset) +
                        " of " + path + ": " + errno_text(err),
                    err);
    }
    static obs::Counter& bytes_read =
        obs::Registry::global().counter("io.bytes_read");
    bytes_read.add(static_cast<std::uint64_t>(got));
    return static_cast<std::size_t>(got);
  });
}

}  // namespace

ChunkedEdgeListReader::ChunkedEdgeListReader(std::string path)
    : ChunkedEdgeListReader(std::move(path), Options()) {}

ChunkedEdgeListReader::ChunkedEdgeListReader(std::string path,
                                             Options options)
    : path_(std::move(path)), options_(options) {
  util::expects(options_.buffer_bytes > 0,
                "ChunkedEdgeListReader: buffer_bytes must be positive");
  util::expects(options_.chunk_edges > 0,
                "ChunkedEdgeListReader: chunk_edges must be positive");
}

ChunkedEdgeListReader::ChunkedEdgeListReader(ByteSource source)
    : source_(std::move(source)) {}

std::size_t ChunkedEdgeListReader::run_pass(const Sink& sink) {
  if (source_) return scan(source_, sink);
  FdGuard file{open_for_read(path_, options_.retry)};
  return scan(
      [&](std::span<char> buffer, std::uint64_t offset) {
        return read_some(file.fd, buffer, offset, path_, options_.retry);
      },
      sink);
}

std::size_t ChunkedEdgeListReader::scan(const ByteSource& source,
                                        const Sink& sink) {
  std::vector<char> buffer(options_.buffer_bytes);
  std::string carry;  // unterminated tail of the previous read
  std::vector<RawEdge> chunk;
  chunk.reserve(options_.chunk_edges);
  std::size_t line_number = 0;
  std::size_t total_edges = 0;
  std::uint64_t offset = 0;  // bytes consumed, for read-error reports

  const auto flush = [&]() {
    if (chunk.empty()) return;
    sink(std::span<const RawEdge>(chunk.data(), chunk.size()));
    total_edges += chunk.size();
    chunk.clear();
  };
  const auto handle_line = [&](std::string_view line) {
    ++line_number;
    RawEdge edge;
    if (detail::parse_edge_line(line, line_number, edge.u, edge.v,
                                declared_nodes_)) {
      chunk.push_back(edge);
      if (chunk.size() == options_.chunk_edges) flush();
    }
  };

  for (;;) {
    const std::size_t got = source(buffer, offset);
    if (got == 0) break;  // end of input: a failed read throws instead
    offset += got;
    std::string_view window(buffer.data(), got);
    while (true) {
      const auto newline = window.find('\n');
      if (newline == std::string_view::npos) break;
      if (carry.empty()) {
        handle_line(window.substr(0, newline));
      } else {
        carry.append(window.substr(0, newline));
        handle_line(carry);
        carry.clear();
      }
      window.remove_prefix(newline + 1);
    }
    carry.append(window);
  }
  if (!carry.empty()) handle_line(carry);  // final line without newline
  flush();
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
