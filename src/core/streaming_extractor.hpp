// Streaming dK extraction: 1K/2K/3K profiles from an edge stream,
// without ever materializing a Graph.
//
// The in-memory pipeline (io::read_edge_list -> Graph -> dk::extract)
// holds the raw edge list, the dense-id map, the adjacency vectors AND
// the per-edge hash before the first histogram bin is touched — several
// resident copies of the graph.  StreamingDkExtractor instead accumulates
// directly from the stream, in sequential passes:
//
//   pass 0   intern node ids, count degrees (self-loops and — unless
//            assume_simple — duplicate edges are skipped, exactly as the
//            in-memory reader skips them);
//   pass 1   (max_d >= 2) re-stream: fold each kept edge into the JDD
//            using the now-final degrees; at max_d == 3 also fill a
//            compact CSR for count_three_k (core/three_k_count.hpp),
//            the pass ThreeKProfile::from_graph also runs.
//
// Memory is the accumulators, not the stream: O(n) id interner
// (graph/node_id_interner.hpp) + degrees,
// O(occupied bins) histograms, plus the duplicate-detection key set
// (O(m), skipped with assume_simple) and, for max_d == 3 only, the
// O(n + m) CSR that size-3 subgraph counting fundamentally requires.
// At max_d <= 2 with trusted input the footprint is independent of the
// edge count.  See docs/scaling.md for the full memory model; the
// chunked file driver lives in io/chunked_edge_reader.hpp.
//
// The resulting distributions are bin-for-bin equal to dk::extract on
// the Graph the in-memory reader would have produced from the same
// stream (tests/core/test_streaming_extractor.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "core/series.hpp"
#include "graph/node_id_interner.hpp"
#include "util/flat_key_set.hpp"

namespace orbis::dk {

struct StreamingOptions {
  /// Trusted simple input (e.g. this library's own writer): skip the
  /// duplicate-edge key set, making the max_d <= 2 footprint independent
  /// of the edge count.  Self-loops are still skipped (the check is
  /// free).  Feeding duplicates with this set silently double-counts
  /// them.
  bool assume_simple = false;
};

class StreamingDkExtractor {
 public:
  explicit StreamingDkExtractor(int max_d, StreamingOptions options = {});

  int max_d() const noexcept { return max_d_; }
  /// Sequential scans of the edge stream required: 1 for max_d <= 1,
  /// 2 otherwise (the JDD and 3K accumulators need final degrees).
  int passes_needed() const noexcept { return max_d_ >= 2 ? 2 : 1; }
  int pass() const noexcept { return pass_; }
  bool needs_another_pass() const noexcept {
    return pass_ + 1 < passes_needed();
  }

  /// Feeds the next edge of the current pass.  Every pass must replay
  /// the identical stream (same edges, same order); pass >= 1 throws
  /// std::invalid_argument on an id the first pass never saw.
  void consume(std::uint64_t u, std::uint64_t v);

  /// Ends the current pass; call needs_another_pass() first to know
  /// whether to replay the stream or to finish().
  void end_pass();

  /// Declares the total node count (isolated nodes included), e.g. from
  /// the writer header.  Honored at finish() under the in-memory
  /// reader's rule (orbis::declared_nodes_hold).
  void declare_nodes(std::uint64_t n) { declared_nodes_ = n; }

  /// Final distributions; requires all passes ended.
  DkDistributions finish();

  std::size_t skipped_self_loops() const noexcept { return self_loops_; }
  std::size_t skipped_duplicates() const noexcept { return duplicates_; }

  /// Bytes currently held by the accumulators (id interner, degrees,
  /// duplicate set, CSR, histograms) — the streaming memory model's
  /// measurable half; the chunk buffer is the reader's.
  std::size_t accumulator_bytes() const noexcept;

  /// High-water mark of accumulator_bytes(), checkpointed at every
  /// end_pass() and inside finish() while the 3K profile is counted,
  /// with the 3K counter's scratch, bin and triangle buffers and sort
  /// copies and count_three_k's forward orientation added (all only
  /// exist there, so a caller polling accumulator_bytes() from outside
  /// would miss them).  Valid after finish().
  std::size_t peak_accumulator_bytes() const noexcept {
    return peak_accumulator_bytes_;
  }

 private:
  /// `scratch`: bytes held outside the members (count_three_k's).
  void note_footprint(std::size_t scratch = 0) noexcept;
  /// Shared skip logic: false if the edge is a self-loop or (when
  /// detecting) a duplicate.  Both passes make identical decisions
  /// because both run it against an identically replayed stream.
  bool keep_edge(std::uint32_t u, std::uint32_t v);
  void build_csr_offsets();
  void finish_three_k();

  int max_d_;
  StreamingOptions options_;
  int pass_ = 0;
  bool pass_open_ = true;
  std::uint64_t declared_nodes_ = 0;
  std::size_t self_loops_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t kept_edges_ = 0;
  std::size_t peak_accumulator_bytes_ = 0;

  NodeIdInterner ids_;
  std::vector<std::uint32_t> degree_;
  util::FlatKeySet seen_edges_;

  // max_d == 3 only: compact CSR filled during pass 1.
  std::vector<std::uint64_t> csr_offset_;  // n + 1 entries
  std::vector<std::uint32_t> csr_fill_;    // per-node write cursor
  std::vector<std::uint32_t> csr_adj_;     // 2m entries

  DkDistributions result_;
};

}  // namespace orbis::dk
