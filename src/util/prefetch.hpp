// Software-prefetch hint, used by the rewiring proposal loops.
//
// The 2K/3K proposal loops are probe-bound: edge-hash lookups and
// histogram-bin pricing chase cache-cold lines whose addresses are known
// one step before they are needed (a drawn proposal names its four
// endpoints; a swap's delta journal names the bins it will price).
// Issuing a prefetch at that point overlaps the miss latency with the
// work in between — see docs/parallel.md, "Prefetching in the proposal
// loops".
//
// The hint is best-effort and side-effect-free: compilers without
// __builtin_prefetch compile it away, and prefetching can never change
// results, only timing, so the determinism contract is untouched.
#pragma once

namespace orbis::util {

/// Hints that `address` will be read soon (high temporal locality).
inline void prefetch_read(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace orbis::util
