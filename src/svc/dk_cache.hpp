// Content-addressed cache of dK extractions (docs/service.md, "dK
// cache").
//
// Extracting the dK-series of a large edge-list file is the expensive
// half of every `extract -> generate` round trip, and topology-service
// clients ask for the same file repeatedly (re-runs, parameter sweeps
// over the GENERATE side, several tenants sharing one measured
// topology).  DkCache memoizes the extraction on disk, keyed by the
// CONTENT of the edge list — not its path or mtime — so renamed copies
// and re-uploads hit, and any edit (one flipped edge) misses.
//
// Key = 128-bit order-invariant hash of the canonicalized edge multiset
// (each edge normalized to (min,max), self-loops dropped — exactly the
// canonicalization the extractor itself applies) folded with max_d and
// the extractor options.  Order-invariance comes from commutative
// accumulation (sum + xor + count of per-edge splitmix mixes under two
// independent seeds), so a shuffled copy of the same file is a HIT.
// Duplicate edge lines do perturb the key — a file with duplicates
// misses against its deduplicated twin — which only costs a redundant
// extraction, never a wrong answer.  Hash collisions across different
// contents are the usual content-addressing trade: at 128 bits the
// probability is negligible (same regime as git object ids).
//
// Storage: `<dir>/<key>.1k[.2k[.3k]]`, written by the SAME
// io::write_*k_file serializers `orbis_tool extract` uses, through the
// atomic-write protocol (io/atomic_file.hpp) — a cache entry is either
// absent or complete, never truncated.  A hit is served as a byte copy
// of the stored artifacts; since miss and hit both publish through one
// byte-copy path from serializer output, a hit is bit-identical to a
// fresh extraction by construction (tests/svc/test_dk_cache.cpp pins
// this against `orbis_tool extract`).
//
// Concurrency: extractions are single-flighted per key — a second
// request for a key mid-extraction blocks until the first publishes,
// then reads the entry as a hit.  Concurrent requests for different
// keys proceed independently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "io/chunked_edge_reader.hpp"

namespace orbis::svc {

/// 128-bit content key; value identity is the cache identity.
struct CacheKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  /// 32 lowercase hex chars; the on-disk entry name.
  std::string hex() const;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Computes the content key of `edge_list_path` for an extraction up to
/// `max_d` under `options` (one streaming pass over the file; honors
/// options.reader and polls ctx.stop).  Pure: same content + same
/// parameters -> same key, regardless of path, edge order, or comments.
CacheKey dk_cache_key(const std::string& edge_list_path, int max_d,
                      const io::StreamingExtractOptions& options = {},
                      const RunContext& ctx = {});

class DkCache {
 public:
  /// `dir` must exist (the service creates its own); entries are
  /// created inside it, nothing outside is touched.
  explicit DkCache(std::string dir);

  struct Outcome {
    bool hit = false;
    CacheKey key{};
    /// Published destination files (`<out_prefix>.1k` ...), in d order.
    std::vector<std::string> files;
    /// Fresh-extraction diagnostics; zero on a hit (the stored entry
    /// does not retain them).
    std::size_t skipped_self_loops = 0;
    std::size_t skipped_duplicates = 0;
  };

  /// Extracts the dK-distributions of `edge_list_path` up to `max_d`
  /// (in [1,3]) and publishes them as `<out_prefix>.1k[.2k[.3k]]`,
  /// through the content-addressed store.  Cancellation: polls ctx.stop
  /// during both the keying pass and a fresh extraction
  /// (orbis::InterruptedError); a cancelled miss leaves no partial
  /// entry behind.  ctx.progress follows the fresh extraction.
  Outcome extract_to(const std::string& edge_list_path, int max_d,
                     const std::string& out_prefix,
                     const io::StreamingExtractOptions& options = {},
                     const RunContext& ctx = {});

  const std::string& dir() const noexcept { return dir_; }

 private:
  /// Cache-entry file paths for `key` up to `max_d`.
  std::vector<std::string> entry_files(const CacheKey& key, int max_d) const;

  std::string dir_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::string> in_flight_;  // keys being extracted right now
};

}  // namespace orbis::svc
