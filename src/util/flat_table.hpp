// The one flat open-addressing table behind every hot-path hash
// structure in this library.
//
// Five structures run on it: FlatEdgeHash (edge key -> slot, in Graph
// and EdgeIndex), dk::SparseHistogram (JDD bin counts),
// dk::ThreeKResidual (3K bin residuals against a target),
// util::FlatKeySet (streaming duplicate detection) and NodeIdInterner
// (file id -> dense id).  The first three used to carry hand-mirrored copies of the same
// probe design.  The probe arithmetic — splitmix64-finalized
// hashing, power-of-two capacity with mask indexing, linear probing,
// load-factor growth, and backward-shift deletion — is subtle enough
// that each copy needed its own pinning tests, and a fix in one had to
// be mirrored by hand into the others.  FlatTable owns that arithmetic
// exactly once; the wrappers are thin orchestration over these
// primitives and contain no probe loops of their own.  See docs/flat_table.md for the probe protocol, the growth
// policy, and the payload-traits contract.
//
// Layout: parallel arrays keys_[capacity] / payloads_[capacity] over a
// power-of-two capacity (payload storage is elided entirely for empty
// payload types, so a presence-only set costs 8 bytes per slot).  All
// keys are std::uint64_t — every user hashes packed util::keys values.
//
// Occupancy is traits-defined, which is what lets one template serve two
// regimes:
//   * key-sentinel occupancy: a slot is live iff its key != 0 (edge
//     hash, key set);
//   * payload occupancy: a slot is live iff its payload is non-zero
//     (the histogram, where a count of 0 IS erasure and key 0 is an
//     ordinary bin; the interner, whose payload is dense id + 1).
//
// The traits contract (TraitsT):
//   using Payload = ...;                 // any type; empty => elided
//   static bool occupied(std::uint64_t key, const Payload&);
//   static Payload empty_payload();      // representation of a vacated
//                                        // slot; occupied() must reject
//                                        // (0, empty_payload())
//
// Growth is explicit, not implicit: insertion is locate() + occupy(),
// and the CALLER decides when to grow via over_load_factor()/grow().
// That keeps each wrapper's historical growth timing — and therefore
// its exact slot layout, iteration order, and downstream chain
// bit-identity — intact.  Every wrapper keeps the invariant
// load factor <= 1/2, which linear probing needs for short chains.
//
// Probing is accelerated by SwissTable-style control-byte groups: a
// parallel metadata array holds, per slot, either kCtrlEmpty (0x80) or
// a 7-bit fragment of the slot key's hash, and where SSE2 is available
// (__SSE2__, the x86-64 baseline) find()/locate() compare kGroupWidth
// (16) control bytes per step with one compare+movemask, touching the
// 8-byte key array only at fragment matches.  Elsewhere they run the
// scalar walk.  The grouped probe visits slots in EXACTLY the scalar
// linear-probe order and slot placement is decided by the same
// locate()/occupy()/erase_at() protocol either way, so the slot layout,
// iteration order and every downstream chain are bit-identical between
// the two (cross-checked in tests/util/test_flat_table.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/keys.hpp"
#include "util/prefetch.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#define ORBIS_FLAT_TABLE_GROUPED 1
#else
#define ORBIS_FLAT_TABLE_GROUPED 0
#endif

namespace orbis::util {

#if ORBIS_FLAT_TABLE_GROUPED
namespace detail {

/// One 16-slot window of control bytes, compared 16 ways at once.
/// match() / match_empty() return bitmasks whose bit j refers to the
/// byte at `ctrl[j]`; occupied bytes are 7-bit hash fragments (high bit
/// clear), empty slots are kCtrlEmpty (only value with the high bit
/// set), so emptiness is a sign-bit test.
class CtrlGroup {
 public:
  explicit CtrlGroup(const std::uint8_t* ctrl) noexcept
      : bytes_(_mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl))) {}

  std::uint32_t match(std::uint8_t fragment) const noexcept {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(
        bytes_, _mm_set1_epi8(static_cast<char>(fragment)))));
  }
  std::uint32_t match_empty() const noexcept {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(bytes_));
  }

 private:
  __m128i bytes_;
};

}  // namespace detail
#endif

template <class TraitsT>
class FlatTable {
 public:
  using Traits = TraitsT;
  using Payload = typename TraitsT::Payload;

  /// Returned by find() when the key is absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Empty payload types (presence-only sets) get no payload storage.
  static constexpr bool stores_payload = !std::is_empty_v<Payload>;

  FlatTable() = default;

  /// Discards any contents and allocates fresh storage sized for
  /// `expected` elements at load factor <= 1/2 (the smallest power of
  /// two >= max(16, 2 * expected + 2)).  Fresh vectors, not assign():
  /// a rebuild after a larger transient phase must not retain the
  /// transient capacity while capacity_bytes() reports the smaller one.
  void reserve_for(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * expected + 2) capacity <<= 1;
    keys_ = std::vector<std::uint64_t>(capacity, 0);
    ctrl_ = std::vector<std::uint8_t>(capacity + kMirrorWidth, kCtrlEmpty);
    if constexpr (stores_payload) {
      payloads_ = std::vector<Payload>(capacity, Traits::empty_payload());
    }
    mask_ = capacity - 1;
    size_ = 0;
  }

  std::size_t capacity() const noexcept { return keys_.size(); }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool has_storage() const noexcept { return !keys_.empty(); }

  bool occupied(std::size_t slot) const {
    if constexpr (stores_payload) {
      return Traits::occupied(keys_[slot], payloads_[slot]);
    } else {
      return Traits::occupied(keys_[slot], Payload{});
    }
  }
  std::uint64_t key_at(std::size_t slot) const { return keys_[slot]; }
  Payload& payload_at(std::size_t slot) { return payloads_[slot]; }
  const Payload& payload_at(std::size_t slot) const {
    return payloads_[slot];
  }

  /// Slot holding `key`, or npos.  Safe on a storage-less table.
  /// Backed by the group probe where SSE2 is available, the scalar walk
  /// elsewhere; both visit slots in the same order and agree on every
  /// table state (cross-checked in tests/util/test_flat_table).
  std::size_t find(std::uint64_t key) const {
#if ORBIS_FLAT_TABLE_GROUPED
    return find_grouped(key);
#else
    return find_scalar(key);
#endif
  }

  bool contains(std::uint64_t key) const { return find(key) != npos; }

  /// Slot holding `key` if present, else the empty slot where it
  /// belongs (check occupied() to tell the cases apart).  Requires
  /// storage and load factor < 1; any growth invalidates the result.
  std::size_t locate(std::uint64_t key) const {
#if ORBIS_FLAT_TABLE_GROUPED
    return locate_grouped(key);
#else
    return locate_scalar(key);
#endif
  }

  // The scalar walk is the reference semantics (and the backend without
  // SSE2), the grouped probe the control-byte accelerated path.  Both
  // are public so tests can cross-check them on identical op sequences.

  /// Scalar find(): walk keys from the home slot, one compare per slot.
  std::size_t find_scalar(std::uint64_t key) const {
    if (keys_.empty()) return npos;
    std::size_t i = home(key);
    while (occupied(i)) {
      if (keys_[i] == key) return i;
      i = next(i);
    }
    return npos;
  }

  /// Scalar locate(): same contract as locate().
  std::size_t locate_scalar(std::uint64_t key) const {
    std::size_t i = home(key);
    while (occupied(i) && keys_[i] != key) i = next(i);
    return i;
  }

#if ORBIS_FLAT_TABLE_GROUPED
  /// Group-probed find(): one CtrlGroup compare resolves kGroupWidth
  /// slots — candidate slots are fragment matches before the first
  /// empty byte, and a group containing an empty byte is the last.
  std::size_t find_grouped(std::uint64_t key) const {
    if (keys_.empty()) return npos;
    const std::uint64_t hash = splitmix64_mix(key);
    const std::uint8_t fragment = ctrl_fragment(hash);
    std::size_t base = static_cast<std::size_t>(hash) & mask_;
    while (true) {
      // Pull the key line up in parallel with the control-byte match:
      // on a hit the key compare needs it anyway, and fetching it
      // serially AFTER the ctrl line would put two cache misses in the
      // latency chain where the scalar walk has one.
      prefetch_read(keys_.data() + base);
      const detail::CtrlGroup group(ctrl_.data() + base);
      std::uint32_t candidates = group.match(fragment);
      const std::uint32_t empties = group.match_empty();
      if (empties != 0) {
        // Slots at or past the first empty are outside the probe chain.
        candidates &= (1u << std::countr_zero(empties)) - 1u;
      }
      while (candidates != 0) {
        const std::size_t slot =
            (base + static_cast<std::size_t>(std::countr_zero(candidates))) &
            mask_;
        if (keys_[slot] == key) return slot;
        candidates &= candidates - 1;
      }
      if (empties != 0) return npos;
      base = (base + kGroupWidth) & mask_;
    }
  }

  /// Group-probed locate(): same contract as locate().
  std::size_t locate_grouped(std::uint64_t key) const {
    const std::uint64_t hash = splitmix64_mix(key);
    const std::uint8_t fragment = ctrl_fragment(hash);
    std::size_t base = static_cast<std::size_t>(hash) & mask_;
    while (true) {
      prefetch_read(keys_.data() + base);  // overlap with the ctrl match
      const detail::CtrlGroup group(ctrl_.data() + base);
      std::uint32_t candidates = group.match(fragment);
      const std::uint32_t empties = group.match_empty();
      if (empties != 0) {
        candidates &= (1u << std::countr_zero(empties)) - 1u;
      }
      while (candidates != 0) {
        const std::size_t slot =
            (base + static_cast<std::size_t>(std::countr_zero(candidates))) &
            mask_;
        if (keys_[slot] == key) return slot;
        candidates &= candidates - 1;
      }
      if (empties != 0) {
        return (base + static_cast<std::size_t>(std::countr_zero(empties))) &
               mask_;
      }
      base = (base + kGroupWidth) & mask_;
    }
  }

#endif

  /// Hints that `key`'s probe window will be read soon: pulls the home
  /// slot's control-byte group, key line and (when stored) payload line
  /// toward the cache.  Purely advisory — never changes results.
  void prefetch(std::uint64_t key) const {
    if (keys_.empty()) return;
    const std::uint64_t hash = splitmix64_mix(key);
    const std::size_t i = static_cast<std::size_t>(hash) & mask_;
    prefetch_read(ctrl_.data() + i);
    prefetch_read(keys_.data() + i);
    if constexpr (stores_payload) prefetch_read(payloads_.data() + i);
  }

  /// Claims the empty slot returned by locate() for a new element.
  /// occupied(slot) must become true under the traits — i.e. the key
  /// must be non-zero under key-sentinel occupancy, the payload
  /// non-empty under payload occupancy.
  void occupy(std::size_t slot, std::uint64_t key,
              const Payload& payload = Payload{}) {
    keys_[slot] = key;
    set_ctrl(slot, ctrl_fragment(splitmix64_mix(key)));
    if constexpr (stores_payload) payloads_[slot] = payload;
    ++size_;
  }

  /// Erases the occupied slot by backward-shift deletion: later members
  /// of the probe cluster whose home position lies cyclically outside
  /// (hole, probe] are pulled into the hole, so probe sequences stay
  /// gap-free without tombstones and chains never accumulate length.
  /// Payloads travel with their keys, so slot-external bookkeeping must
  /// reference keys, never slot indices, across an erase.
  void erase_at(std::size_t slot) {
    std::size_t hole = slot;
    std::size_t probe = slot;
    while (true) {
      probe = next(probe);
      if (!occupied(probe)) break;
      const std::size_t ideal = home(keys_[probe]);
      if (((probe - ideal) & mask_) >= ((probe - hole) & mask_)) {
        keys_[hole] = keys_[probe];
        // Control bytes travel with their keys (the fragment is a pure
        // function of the key), exactly like payloads.
        set_ctrl(hole, ctrl_[probe]);
        if constexpr (stores_payload) payloads_[hole] = payloads_[probe];
        hole = probe;
      }
    }
    vacate(hole);
    --size_;
  }

  /// True when holding `extra` more elements would push the load factor
  /// past 1/2 (or when there is no storage yet).  Callers gate grow()
  /// on this — before or after the insertion, per their historical
  /// timing (see the header comment).
  bool over_load_factor(std::size_t extra = 1) const noexcept {
    return keys_.empty() || 2 * (size_ + extra) > keys_.size();
  }

  /// Doubles the capacity (16 when empty) and rehashes every live
  /// element, scanning old slots in index order.
  void grow() {
    const std::size_t capacity =
        keys_.empty() ? kMinCapacity : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    // [[maybe_unused]]: every reference sits inside `if constexpr`
    // branches that payload-elided instantiations discard.
    [[maybe_unused]] PayloadStore old_payloads = std::move(payloads_);
    keys_.assign(capacity, 0);
    ctrl_.assign(capacity + kMirrorWidth, kCtrlEmpty);
    if constexpr (stores_payload) {
      payloads_.assign(capacity, Traits::empty_payload());
    }
    mask_ = capacity - 1;
    for (std::size_t slot = 0; slot < old_keys.size(); ++slot) {
      const bool live = [&] {
        if constexpr (stores_payload) {
          return Traits::occupied(old_keys[slot], old_payloads[slot]);
        } else {
          return Traits::occupied(old_keys[slot], Payload{});
        }
      }();
      if (!live) continue;
      const std::uint64_t hash = splitmix64_mix(old_keys[slot]);
      std::size_t i = static_cast<std::size_t>(hash) & mask_;
      while (occupied(i)) i = next(i);
      keys_[i] = old_keys[slot];
      set_ctrl(i, ctrl_fragment(hash));
      if constexpr (stores_payload) payloads_[i] = old_payloads[slot];
    }
  }

  /// Empties the table but keeps the allocation (pass-to-pass reuse).
  void clear() noexcept {
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(ctrl_.begin(), ctrl_.end(), kCtrlEmpty);
    if constexpr (stores_payload) {
      std::fill(payloads_.begin(), payloads_.end(),
                Traits::empty_payload());
    }
    size_ = 0;
  }

  /// Empties the table AND releases the storage.
  void release() noexcept {
    keys_ = {};
    ctrl_ = {};
    if constexpr (stores_payload) payloads_ = {};
    mask_ = 0;
    size_ = 0;
  }

  /// Bytes held by the parallel arrays (memory-model accounting).
  std::size_t capacity_bytes() const noexcept {
    std::size_t bytes = keys_.capacity() * sizeof(std::uint64_t) +
                        ctrl_.capacity() * sizeof(std::uint8_t);
    if constexpr (stores_payload) {
      bytes += payloads_.capacity() * sizeof(Payload);
    }
    return bytes;
  }

  /// Slots compared per control-byte group probe.
  static constexpr std::size_t kGroupWidth = 16;

  /// Control bytes mirrored past the end of the table so group loads
  /// from any base < capacity never need wrap masking.
  static constexpr std::size_t kMirrorWidth = kGroupWidth;

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The only control byte with the high bit set; occupied slots hold a
  /// 7-bit hash fragment.
  static constexpr std::uint8_t kCtrlEmpty = 0x80;

  /// 7-bit fragment from the TOP of the mixed hash: home() consumes the
  /// low bits (mask_), so the fragment is independent of the home slot.
  static constexpr std::uint8_t ctrl_fragment(std::uint64_t hash) noexcept {
    return static_cast<std::uint8_t>(hash >> 57);
  }

  /// Writes a control byte, maintaining the mirror tail: the
  /// kMirrorWidth bytes past the end replicate the table's first
  /// kMirrorWidth bytes, so a group load starting anywhere below
  /// capacity never needs wrap masking.  That is at most one extra
  /// write, and none for slots >= kMirrorWidth.
  void set_ctrl(std::size_t slot, std::uint8_t value) {
    static_assert(kMinCapacity >= kMirrorWidth);
    ctrl_[slot] = value;
    if (slot < kMirrorWidth) ctrl_[slot + keys_.size()] = value;
  }

  struct NoPayloadStore {};
  using PayloadStore =
      std::conditional_t<stores_payload, std::vector<Payload>,
                         NoPayloadStore>;

  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(splitmix64_mix(key)) & mask_;
  }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask_; }

  void vacate(std::size_t slot) {
    keys_[slot] = 0;
    set_ctrl(slot, kCtrlEmpty);
    if constexpr (stores_payload) {
      payloads_[slot] = Traits::empty_payload();
    }
  }

  std::vector<std::uint64_t> keys_;
  // Per-slot metadata for group probing, + kMirrorWidth mirror bytes.
  std::vector<std::uint8_t> ctrl_;
  PayloadStore payloads_{};
  std::size_t mask_ = 0;   // capacity - 1 (capacity is a power of two)
  std::size_t size_ = 0;   // live elements
};

/// Ready-made traits for key-sentinel occupancy (key 0 = empty slot)
/// with an arbitrary payload.  Wrappers needing a non-default vacated
/// payload derive and shadow empty_payload().
template <class P>
struct KeySentinelTraits {
  using Payload = P;
  static constexpr bool occupied(std::uint64_t key, const P&) noexcept {
    return key != 0;
  }
  static constexpr P empty_payload() noexcept { return P{}; }
};

/// Presence-only payload for key sets; being empty, it elides the
/// payload array entirely.
struct NoPayload {};

}  // namespace orbis::util
