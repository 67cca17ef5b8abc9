// Packed integer keys for degree tuples and node pairs.
//
// The dK histograms are sparse maps keyed by degree pairs (2K) and degree
// triples (3K).  Packing tuples into a single uint64 keeps the maps compact
// and hashing cheap.  Degree triples use 21 bits per component, which caps
// supported degrees at 2^21-1 = 2,097,151 — far above any graph this
// library targets (the paper's largest graph has max degree ~2400).
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace orbis::util {

inline constexpr std::uint32_t max_packable_degree = (1u << 21) - 1;

/// SplitMix64 finalizer: the shared bit mixer behind every flat hash
/// table keyed by packed tuples (FlatEdgeHash, SparseHistogram,
/// FlatKeySet).  Packed keys are highly regular, so
/// tables index with `splitmix64_mix(key) & mask`.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Unordered pair key: canonical (min,max) packed into high/low 32 bits.
constexpr std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint32_t lo = a < b ? a : b;
  const std::uint32_t hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Ordered pair key: (a,b) packed as given (for directed lookups).
constexpr std::uint64_t ordered_pair_key(std::uint32_t a,
                                         std::uint32_t b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

constexpr std::pair<std::uint32_t, std::uint32_t> unpack_pair(
    std::uint64_t key) noexcept {
  return {static_cast<std::uint32_t>(key >> 32),
          static_cast<std::uint32_t>(key & 0xffffffffu)};
}

namespace detail {
constexpr std::uint64_t pack3(std::uint32_t a, std::uint32_t b,
                              std::uint32_t c) noexcept {
  return (static_cast<std::uint64_t>(a) << 42) |
         (static_cast<std::uint64_t>(b) << 21) | c;
}
}  // namespace detail

/// Wedge key for a 2-path k1 - k2 - k3 (k2 is the center degree).
/// Endpoints are interchangeable (the paper: P∧(k1,k2,k3) = P∧(k3,k2,k1)),
/// so the canonical form orders the endpoint degrees.
inline std::uint64_t wedge_key(std::uint32_t end1, std::uint32_t center,
                               std::uint32_t end2) {
  expects(end1 <= max_packable_degree && center <= max_packable_degree &&
              end2 <= max_packable_degree,
          "wedge_key: degree exceeds 21-bit packing limit");
  const std::uint32_t lo = end1 < end2 ? end1 : end2;
  const std::uint32_t hi = end1 < end2 ? end2 : end1;
  return detail::pack3(lo, center, hi);
}

/// Triangle key for a 3-clique: fully symmetric, canonical = sorted.
inline std::uint64_t triangle_key(std::uint32_t a, std::uint32_t b,
                                  std::uint32_t c) {
  expects(a <= max_packable_degree && b <= max_packable_degree &&
              c <= max_packable_degree,
          "triangle_key: degree exceeds 21-bit packing limit");
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return detail::pack3(a, b, c);
}

constexpr std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>
unpack_triple(std::uint64_t key) noexcept {
  constexpr std::uint64_t mask = (1u << 21) - 1;
  return {static_cast<std::uint32_t>((key >> 42) & mask),
          static_cast<std::uint32_t>((key >> 21) & mask),
          static_cast<std::uint32_t>(key & mask)};
}

}  // namespace orbis::util
