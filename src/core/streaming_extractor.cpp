#include "core/streaming_extractor.hpp"

#include <span>

#include "core/three_k_count.hpp"
#include "util/check.hpp"
#include "util/keys.hpp"

namespace orbis::dk {

StreamingDkExtractor::StreamingDkExtractor(int max_d,
                                           StreamingOptions options)
    : max_d_(max_d), options_(options) {
  util::expects(max_d >= 0 && max_d <= 3,
                "StreamingDkExtractor: max_d must be in [0,3]");
}

bool StreamingDkExtractor::keep_edge(std::uint32_t u, std::uint32_t v) {
  if (u == v) {
    if (pass_ == 0) ++self_loops_;
    return false;
  }
  if (!options_.assume_simple &&
      !seen_edges_.insert(util::pair_key(u, v))) {
    if (pass_ == 0) ++duplicates_;
    return false;
  }
  return true;
}

void StreamingDkExtractor::consume(std::uint64_t u, std::uint64_t v) {
  util::expects(pass_open_, "StreamingDkExtractor: pass already ended");
  if (pass_ == 0) {
    const NodeId du = ids_.intern(u);
    const NodeId dv = ids_.intern(v);
    degree_.resize(ids_.size());
    if (!keep_edge(du, dv)) return;
    ++degree_[du];
    ++degree_[dv];
    ++kept_edges_;
    return;
  }

  // Replay pass: degrees are final, fold the stream into the
  // accumulators.  The skip decisions repeat exactly (same stream, same
  // cleared duplicate set), so the kept edge set is pass-invariant.
  const NodeId du = ids_.find(u);
  const NodeId dv = ids_.find(v);
  util::expects(du != NodeIdInterner::npos && dv != NodeIdInterner::npos,
                "StreamingDkExtractor: replay pass saw a new node id "
                "(the stream must be identical across passes)");
  if (!keep_edge(du, dv)) return;

  result_.joint.histogram().increment(
      util::pair_key(degree_[du], degree_[dv]));
  if (max_d_ >= 3) {
    csr_adj_[csr_offset_[du] + csr_fill_[du]++] = dv;
    csr_adj_[csr_offset_[dv] + csr_fill_[dv]++] = du;
  }
}

void StreamingDkExtractor::build_csr_offsets() {
  const std::size_t n = degree_.size();
  csr_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    csr_offset_[v + 1] = csr_offset_[v] + degree_[v];
  }
  csr_fill_.assign(n, 0);
  csr_adj_.assign(csr_offset_[n], 0);
}

void StreamingDkExtractor::note_footprint(std::size_t scratch) noexcept {
  const std::size_t bytes = accumulator_bytes() + scratch;
  if (bytes > peak_accumulator_bytes_) peak_accumulator_bytes_ = bytes;
}

void StreamingDkExtractor::end_pass() {
  util::expects(pass_open_, "StreamingDkExtractor: pass already ended");
  note_footprint();  // accumulators only grow within a pass
  if (needs_another_pass()) {
    seen_edges_.clear();
    if (max_d_ >= 3) build_csr_offsets();
    ++pass_;
    return;
  }
  pass_open_ = false;
}

void StreamingDkExtractor::finish_three_k() {
  struct CsrView {
    const StreamingDkExtractor& self;
    NodeId num_nodes() const {
      return static_cast<NodeId>(self.degree_.size());
    }
    std::uint32_t degree(NodeId v) const { return self.degree_[v]; }
    std::span<const NodeId> neighbors(NodeId v) const {
      return {self.csr_adj_.data() + self.csr_offset_[v],
              self.csr_adj_.data() + self.csr_offset_[v + 1]};
    }
  };
  // The counter's scratch, bin and triangle buffers and sort copies
  // and pass 2's forward orientation were all alive beside the
  // accumulators; their peaks summed bound the 3K peak from above.
  std::size_t counting_bytes = 0;
  ThreeKProfile profile =
      count_three_k_profile(CsrView{*this}, &counting_bytes);
  note_footprint(counting_bytes);  // the counter's peak holds the profile
  result_.three_k = std::move(profile);
}

DkDistributions StreamingDkExtractor::finish() {
  util::expects(!pass_open_ || !needs_another_pass(),
                "StreamingDkExtractor: finish() before the final pass");
  util::expects(!pass_open_,
                "StreamingDkExtractor: end_pass() the final pass first");

  // The in-memory reader's rule: a declared count adds isolated nodes.
  const std::uint64_t n =
      declared_nodes_hold(declared_nodes_, ids_.original_ids())
          ? declared_nodes_
          : ids_.size();
  result_.num_nodes = n;
  result_.num_edges = kept_edges_;
  result_.average_degree =
      n > 0 ? 2.0 * static_cast<double>(kept_edges_) /
                  static_cast<double>(n)
            : 0.0;

  if (max_d_ >= 1) {
    std::vector<std::size_t> degrees(degree_.begin(), degree_.end());
    degrees.resize(static_cast<std::size_t>(n), 0);  // isolated nodes
    result_.degree = DegreeDistribution::from_sequence(degrees);
  }
  if (max_d_ >= 3) finish_three_k();
  // The wedge/triangle histograms exist only from here to the move, so
  // the peak must be checkpointed now, not by the caller afterwards.
  note_footprint();
  return std::move(result_);
}

std::size_t StreamingDkExtractor::accumulator_bytes() const noexcept {
  std::size_t bytes = ids_.capacity_bytes();
  bytes += degree_.capacity() * sizeof(std::uint32_t);
  bytes += seen_edges_.capacity_bytes();
  bytes += csr_offset_.capacity() * sizeof(std::uint64_t);
  bytes += csr_fill_.capacity() * sizeof(std::uint32_t);
  bytes += csr_adj_.capacity() * sizeof(std::uint32_t);
  bytes += result_.joint.histogram().capacity_bytes();
  bytes += result_.three_k.capacity_bytes();
  return bytes;
}

}  // namespace orbis::dk
