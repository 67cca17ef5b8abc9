#include "svc/dk_cache.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/dk_serialization.hpp"
#include "io/line_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace orbis::svc {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One edge's contribution under a seed.  lo/hi are already normalized
/// (lo <= hi), so the mix needs no symmetry of its own — it must only
/// decorrelate the two coordinates.
std::uint64_t edge_mix(std::uint64_t seed, std::uint64_t lo,
                      std::uint64_t hi) {
  return splitmix64(splitmix64(lo + seed) ^ splitmix64(hi + ~seed));
}

bool file_exists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Byte copy through the atomic-write protocol: the destination is
/// either the previous file or the complete copy, never a prefix.  The
/// reads go through the fault seam like every other file read.
void copy_file_atomic(const std::string& from, const std::string& to) {
  const io::ByteSource in = io::file_source(from);
  const auto buffer =
      std::make_unique_for_overwrite<char[]>(io::kReadBufferBytes);
  io::write_file_atomic(to, [&](std::ostream& out) {
    std::uint64_t offset = 0;
    while (const std::size_t got =
               in({buffer.get(), io::kReadBufferBytes}, offset)) {
      out.write(buffer.get(), static_cast<std::streamsize>(got));
      offset += got;
    }
  });
}

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::Registry::global().counter("svc.cache.hits");
  return c;
}

obs::Counter& misses_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.cache.misses");
  return c;
}

}  // namespace

std::string CacheKey::hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return std::string(buffer, 32);
}

CacheKey dk_cache_key(const std::string& edge_list_path, int max_d,
                      const io::StreamingExtractOptions& options,
                      const RunContext& ctx) {
  const obs::Span span("svc.cache.key");
  io::ChunkedEdgeListReader reader(edge_list_path, options.reader);

  // Two independent commutative accumulators; the final key mixes both
  // with the edge count so (sum, xor) cancellation tricks in either
  // lane still perturb the other.
  std::uint64_t sum[2] = {0, 0};
  std::uint64_t xr[2] = {0, 0};
  std::uint64_t edges = 0;
  reader.run_pass([&](std::span<const io::RawEdge> chunk) {
    if (ctx.stop.stop_requested()) {
      throw InterruptedError("dk_cache_key: cancelled");
    }
    for (const io::RawEdge& edge : chunk) {
      if (edge.u == edge.v) continue;  // extractor drops self-loops
      const std::uint64_t lo = edge.u < edge.v ? edge.u : edge.v;
      const std::uint64_t hi = edge.u < edge.v ? edge.v : edge.u;
      const std::uint64_t m0 = edge_mix(0x8badf00d5eedull, lo, hi);
      const std::uint64_t m1 = edge_mix(0x1234fedc4321ull, lo, hi);
      sum[0] += m0;
      xr[0] ^= m0;
      sum[1] += m1;
      xr[1] ^= m1;
      ++edges;
    }
  });

  // Fold in everything else that changes the extraction's output: the
  // requested depth, the extractor options, and the writer header's
  // declared node count (it decides whether isolated nodes exist).
  const std::uint64_t params =
      splitmix64((static_cast<std::uint64_t>(max_d) << 1) |
                 (options.extractor.assume_simple ? 1u : 0u)) ^
      splitmix64(reader.declared_nodes() + 0x5ca1ab1eull);
  CacheKey key;
  key.a = splitmix64(sum[0] ^ splitmix64(xr[0] ^ edges)) ^ params;
  key.b = splitmix64(sum[1] ^ splitmix64(xr[1] + edges)) ^
          splitmix64(params);
  return key;
}

DkCache::DkCache(std::string dir) : dir_(std::move(dir)) {
  util::expects(!dir_.empty(), "DkCache: dir must not be empty");
}

std::vector<std::string> DkCache::entry_files(const CacheKey& key,
                                              int max_d) const {
  const std::string base = dir_ + "/" + key.hex();
  std::vector<std::string> files = {base + ".1k"};
  if (max_d >= 2) files.push_back(base + ".2k");
  if (max_d >= 3) files.push_back(base + ".3k");
  return files;
}

DkCache::Outcome DkCache::extract_to(const std::string& edge_list_path,
                                     int max_d,
                                     const std::string& out_prefix,
                                     const io::StreamingExtractOptions& options,
                                     const RunContext& ctx) {
  util::expects(max_d >= 1 && max_d <= 3,
                "DkCache::extract_to: max_d must be in [1,3]");
  Outcome outcome;
  outcome.key = dk_cache_key(edge_list_path, max_d, options, ctx);
  const std::string key_hex = outcome.key.hex();
  const std::vector<std::string> stored = entry_files(outcome.key, max_d);

  // Single-flight: wait out any in-progress extraction of this key,
  // then decide hit/miss while holding the lock.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return in_flight_.count(key_hex) == 0; });
  bool complete = true;
  for (const std::string& path : stored) {
    if (!file_exists(path)) {
      complete = false;
      break;
    }
  }
  if (complete) {
    outcome.hit = true;
    hits_counter().add(1);
  } else {
    in_flight_.insert(key_hex);
  }
  lock.unlock();

  if (!outcome.hit) {
    // Fresh extraction outside the lock (other keys keep flowing); the
    // in-flight marker is cleared on every exit path, success or throw.
    struct FlightGuard {
      DkCache* cache;
      const std::string& key;
      ~FlightGuard() {
        std::lock_guard<std::mutex> guard(cache->mutex_);
        cache->in_flight_.erase(key);
        cache->cv_.notify_all();
      }
    } flight_guard{this, key_hex};

    const obs::Span span("svc.cache.extract");
    misses_counter().add(1);
    const io::StreamingExtractResult result =
        io::extract_dk_streaming(edge_list_path, max_d, options, ctx);
    outcome.skipped_self_loops = result.skipped_self_loops;
    outcome.skipped_duplicates = result.skipped_duplicates;
    // Atomic writes ordered so the LAST file to appear completes the
    // entry: a concurrent reader that saw every file sees final bytes.
    io::write_1k_file(stored[0], result.distributions.degree);
    if (max_d >= 2) io::write_2k_file(stored[1], result.distributions.joint);
    if (max_d >= 3) {
      io::write_3k_file(stored[2], result.distributions.three_k);
    }
  }

  // Publish: hit and miss serve the caller through the SAME byte-copy
  // path from the stored entry, so the two are trivially bit-identical.
  static const char* const kSuffixes[] = {".1k", ".2k", ".3k"};
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const std::string destination = out_prefix + kSuffixes[i];
    copy_file_atomic(stored[i], destination);
    outcome.files.push_back(destination);
  }
  return outcome;
}

}  // namespace orbis::svc
