// util::FlatTable is the single implementation of the probe arithmetic
// that the hot-path structures (FlatEdgeHash, SparseHistogram,
// FlatKeySet) used to pin with hand-mirrored copies.  These tests exercise the template directly, under both
// occupancy regimes, so a probe/deletion bug is caught here before it
// surfaces as a corrupted rewiring chain.
#include "util/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis::util {
namespace {

using SlotTable = FlatTable<KeySentinelTraits<std::uint32_t>>;
using KeyOnlyTable = FlatTable<KeySentinelTraits<NoPayload>>;

/// Payload occupancy as SparseHistogram uses it: live iff count != 0.
struct CountTraits {
  using Payload = std::int64_t;
  static constexpr bool occupied(std::uint64_t, std::int64_t count) noexcept {
    return count != 0;
  }
  static constexpr std::int64_t empty_payload() noexcept { return 0; }
};
using CountTable = FlatTable<CountTraits>;

/// Next key > *cursor whose home slot under `mask` is `slot` (the probe
/// hash is splitmix64_mix, so clusters are brute-forced, not assumed).
std::uint64_t key_with_home(std::size_t slot, std::size_t mask,
                            std::uint64_t* cursor) {
  for (std::uint64_t key = *cursor + 1;; ++key) {
    if ((static_cast<std::size_t>(splitmix64_mix(key)) & mask) == slot) {
      *cursor = key;
      return key;
    }
  }
}

/// Inserts under the grow-before-insert policy (FlatKeySet timing).
template <class Table, class... Payload>
void insert_new(Table& table, std::uint64_t key, Payload... payload) {
  if (table.over_load_factor()) table.grow();
  const std::size_t slot = table.locate(key);
  ASSERT_FALSE(table.occupied(slot)) << "duplicate insert of key " << key;
  table.occupy(slot, key, payload...);
}

TEST(FlatTable, StartsWithoutStorage) {
  SlotTable table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.has_storage());
  EXPECT_EQ(table.find(42), SlotTable::npos);
  EXPECT_FALSE(table.contains(42));
}

TEST(FlatTable, InsertFindErase) {
  SlotTable table;
  table.reserve_for(4);
  insert_new(table, 10, 100u);
  insert_new(table, 20, 200u);
  EXPECT_EQ(table.size(), 2u);
  const std::size_t slot = table.find(10);
  ASSERT_NE(slot, SlotTable::npos);
  EXPECT_EQ(table.key_at(slot), 10u);
  EXPECT_EQ(table.payload_at(slot), 100u);
  table.erase_at(slot);
  EXPECT_EQ(table.find(10), SlotTable::npos);
  EXPECT_NE(table.find(20), SlotTable::npos);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatTable, PayloadIsMutableInPlace) {
  SlotTable table;
  table.reserve_for(2);
  insert_new(table, 7, 1u);
  table.payload_at(table.find(7)) = 9u;
  EXPECT_EQ(table.payload_at(table.find(7)), 9u);
}

TEST(FlatTable, ReserveForKeepsHalfLoadFactor) {
  for (std::size_t expected : {0u, 1u, 7u, 8u, 100u, 4096u}) {
    SlotTable table;
    table.reserve_for(expected);
    const std::size_t capacity = table.capacity();
    EXPECT_GE(capacity, 16u);
    EXPECT_EQ(capacity & (capacity - 1), 0u) << "capacity " << capacity;
    EXPECT_GE(capacity, 2 * expected + 2);
    // The next smaller power of two would violate the 1/2 load factor
    // (or the floor), i.e. sizing is tight.
    if (capacity > 16) {
      EXPECT_LT(capacity / 2, 2 * expected + 2);
    }
  }
}

TEST(FlatTable, EmptyPayloadElidesStorage) {
  KeyOnlyTable table;
  table.reserve_for(7);
  // Keys plus the control-byte array (with its kMirrorWidth mirror
  // tail); no payload bytes.
  EXPECT_EQ(table.capacity_bytes(),
            table.capacity() * sizeof(std::uint64_t) + table.capacity() +
                KeyOnlyTable::kMirrorWidth);
  insert_new(table, 5);
  EXPECT_TRUE(table.contains(5));
  EXPECT_FALSE(table.contains(6));
}

TEST(FlatTable, GrowRehashesEveryElement) {
  SlotTable table;
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    insert_new(table, static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull,
               i);
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_GE(table.capacity(), 2 * 5000u);
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    const std::size_t slot =
        table.find(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
    ASSERT_NE(slot, SlotTable::npos) << "lost key " << i << " across growth";
    EXPECT_EQ(table.payload_at(slot), i);
  }
}

TEST(FlatTable, ClearKeepsStorageReleaseFreesIt) {
  SlotTable table;
  table.reserve_for(100);
  insert_new(table, 11, 1u);
  const std::size_t capacity = table.capacity();
  table.clear();
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(11), SlotTable::npos);
  insert_new(table, 11, 2u);  // cleared table must be fully reusable
  EXPECT_EQ(table.payload_at(table.find(11)), 2u);
  table.release();
  EXPECT_FALSE(table.has_storage());
  EXPECT_EQ(table.find(11), SlotTable::npos);
}

// The regression the four hand-mirrored copies each pinned on their own:
// backward-shift deletion over a probe cluster that WRAPS the end of the
// table.  The cyclic test `((probe - ideal) & mask) >= ((probe - hole) &
// mask)` is exactly the arithmetic that breaks if anyone "simplifies" it
// to a linear comparison — a key homed before the wrap must still be
// pulled back across slot 0, and a key sitting in its home slot must
// never be moved into a foreign chain.
TEST(FlatTable, BackwardShiftAcrossWrappedCluster) {
  SlotTable table;
  table.reserve_for(4);  // capacity 16, mask 15
  const std::size_t mask = table.capacity() - 1;

  // Five keys homed at the last two slots force a cluster occupying
  // slots 14, 15, 0, 1, 2.
  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> keys;
  keys.push_back(key_with_home(14, mask, &cursor));
  keys.push_back(key_with_home(15, mask, &cursor));
  keys.push_back(key_with_home(15, mask, &cursor));
  keys.push_back(key_with_home(14, mask, &cursor));
  keys.push_back(key_with_home(15, mask, &cursor));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    insert_new(table, keys[i], static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(table.capacity(), 16u) << "cluster premise needs no growth";
  ASSERT_TRUE(table.occupied(14) && table.occupied(15) &&
              table.occupied(0) && table.occupied(1) && table.occupied(2))
      << "cluster premise broken: expected slots 14,15,0,1,2 occupied";

  // Erase the cluster head at slot 14: the shift must pull members back
  // across the wrap, and every survivor must remain findable with its
  // own payload.
  table.erase_at(table.find(keys[0]));
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const std::size_t slot = table.find(keys[i]);
    ASSERT_NE(slot, SlotTable::npos)
        << "key homed at " << (splitmix64_mix(keys[i]) & mask)
        << " lost after wrapped backward shift";
    EXPECT_EQ(table.payload_at(slot), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(table.size(), keys.size() - 1);

  // A key in its OWN home slot past the wrap must not be dragged into
  // the hole: insert one at slot 3 (just past the cluster), then erase
  // at the wrap boundary.
  const std::uint64_t anchored = key_with_home(3, mask, &cursor);
  insert_new(table, anchored, 99u);
  table.erase_at(table.find(keys[1]));
  EXPECT_EQ(table.find(anchored), 3u)
      << "home-slot key must not be moved by a foreign chain's erase";
  EXPECT_EQ(table.payload_at(3), 99u);
}

// Every erase position within a maximal single-home cluster, including
// one that wraps: survivors must stay findable after each.
TEST(FlatTable, EraseAtEveryClusterPosition) {
  for (std::size_t head : {5u, 13u}) {  // 13 + 7 keys wraps past slot 15
    for (std::size_t victim = 0; victim < 7; ++victim) {
      SlotTable table;
      table.reserve_for(4);
      const std::size_t mask = table.capacity() - 1;
      std::uint64_t cursor = 0;
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < 7; ++i) {
        keys.push_back(key_with_home(head, mask, &cursor));
        insert_new(table, keys.back(), static_cast<std::uint32_t>(i));
      }
      table.erase_at(table.find(keys[victim]));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == victim) {
          EXPECT_EQ(table.find(keys[i]), SlotTable::npos);
          continue;
        }
        const std::size_t slot = table.find(keys[i]);
        ASSERT_NE(slot, SlotTable::npos)
            << "head " << head << ", erased " << victim << ": lost key " << i;
        EXPECT_EQ(table.payload_at(slot), static_cast<std::uint32_t>(i));
      }
    }
  }
}

TEST(FlatTable, ChurnMatchesUnorderedMap) {
  // Randomized insert/erase/find churn over a small key universe (heavy
  // collisions) cross-checked against std::unordered_map, across seeds.
  for (std::uint64_t seed : {1u, 77u, 4242u}) {
    SlotTable table;
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    util::Rng rng(seed);
    for (int step = 0; step < 30000; ++step) {
      const std::uint64_t key = 1 + rng.uniform(300);
      const auto it = model.find(key);
      if (rng.bernoulli(0.5)) {
        const auto payload = static_cast<std::uint32_t>(step);
        if (it == model.end()) {
          insert_new(table, key, payload);
          model.emplace(key, payload);
        } else {
          table.payload_at(table.find(key)) = payload;
          it->second = payload;
        }
      } else if (it != model.end()) {
        table.erase_at(table.find(key));
        model.erase(it);
      }
      if (step % 1000 == 0) {
        ASSERT_EQ(table.size(), model.size()) << "seed " << seed;
      }
    }
    ASSERT_EQ(table.size(), model.size());
    for (const auto& [key, payload] : model) {
      const std::size_t slot = table.find(key);
      ASSERT_NE(slot, SlotTable::npos) << "seed " << seed << " key " << key;
      EXPECT_EQ(table.payload_at(slot), payload);
    }
    // Slot scan (the iteration primitive the histogram's bins() view is
    // built on) must surface exactly the model's keys, each once.
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t slot = 0; slot < table.capacity(); ++slot) {
      if (!table.occupied(slot)) continue;
      EXPECT_TRUE(seen.insert(table.key_at(slot)).second)
          << "duplicate slot for key " << table.key_at(slot);
      EXPECT_TRUE(model.count(table.key_at(slot)));
    }
    EXPECT_EQ(seen.size(), model.size());
  }
}

TEST(FlatTable, CountOccupancyChurn) {
  // The histogram regime: occupancy carried by the payload, key 0 an
  // ordinary key, erase when the count returns to zero.
  CountTable table;
  std::unordered_map<std::uint64_t, std::int64_t> model;
  util::Rng rng(99);
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t key = rng.uniform(250);  // includes key 0
    if (!table.has_storage()) table.grow();
    if (rng.bernoulli(0.5)) {
      const std::size_t slot = table.locate(key);
      if (table.occupied(slot)) {
        ++table.payload_at(slot);
      } else {
        table.occupy(slot, key, 1);
        if (table.over_load_factor()) table.grow();
      }
      ++model[key];
    } else {
      const auto it = model.find(key);
      if (it == model.end()) continue;
      const std::size_t slot = table.find(key);
      ASSERT_NE(slot, CountTable::npos);
      if (--table.payload_at(slot) == 0) table.erase_at(slot);
      if (--it->second == 0) model.erase(it);
    }
  }
  ASSERT_EQ(table.size(), model.size());
  for (const auto& [key, count] : model) {
    const std::size_t slot = table.find(key);
    ASSERT_NE(slot, CountTable::npos) << "key " << key;
    EXPECT_EQ(table.payload_at(slot), count);
  }
}

// ---------------------------------------------------------------------------
// Grouped vs scalar probe cross-checks.  find()/locate() use the grouped
// probe where SSE2 is available and the scalar walk elsewhere; the two
// must agree slot-for-slot on every table state — that equivalence is
// what makes every build bit-identical.
// ---------------------------------------------------------------------------
#if ORBIS_FLAT_TABLE_GROUPED

/// Asserts both probe paths agree for `key` on `table`'s current state.
template <class Table>
void expect_probes_agree(const Table& table, std::uint64_t key) {
  ASSERT_EQ(table.find_grouped(key), table.find_scalar(key)) << "key " << key;
  if (table.has_storage()) {
    ASSERT_EQ(table.locate_grouped(key), table.locate_scalar(key))
        << "key " << key;
  }
}

TEST(FlatTable, GroupedProbeMatchesScalarUnderChurn) {
  // Key-sentinel occupancy churn over a heavy-collision key universe;
  // after every mutation, spot-check present and absent keys through
  // both probe paths.
  for (std::uint64_t seed : {3u, 555u}) {
    SlotTable table;
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    util::Rng rng(seed);
    for (int step = 0; step < 8000; ++step) {
      const std::uint64_t key = 1 + rng.uniform(200);
      const auto it = model.find(key);
      if (rng.bernoulli(0.5)) {
        if (it == model.end()) {
          insert_new(table, key, static_cast<std::uint32_t>(step));
          model.emplace(key, static_cast<std::uint32_t>(step));
        }
      } else if (it != model.end()) {
        table.erase_at(table.find(key));
        model.erase(it);
      }
      expect_probes_agree(table, key);            // the key just touched
      expect_probes_agree(table, 1 + rng.uniform(200));  // a random probe
      expect_probes_agree(table, 1000 + step);    // a definitely-absent key
    }
    for (const auto& [key, payload] : model) {
      const std::size_t slot = table.find_grouped(key);
      ASSERT_NE(slot, SlotTable::npos);
      EXPECT_EQ(table.payload_at(slot), payload);
    }
  }
}

TEST(FlatTable, GroupedProbeMatchesScalarCountOccupancy) {
  // Payload-carried occupancy (the histogram regime, key 0 legal).
  CountTable table;
  table.grow();
  util::Rng rng(7);
  std::unordered_map<std::uint64_t, std::int64_t> model;
  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t key = rng.uniform(150);  // includes key 0
    if (rng.bernoulli(0.6)) {
      const std::size_t slot = table.locate(key);
      if (table.occupied(slot)) {
        ++table.payload_at(slot);
      } else {
        table.occupy(slot, key, 1);
        if (table.over_load_factor()) table.grow();
      }
      ++model[key];
    } else if (model.count(key) != 0) {
      const std::size_t slot = table.find(key);
      ASSERT_NE(slot, CountTable::npos);
      if (--table.payload_at(slot) == 0) table.erase_at(slot);
      if (--model[key] == 0) model.erase(key);
    }
    expect_probes_agree(table, key);
    expect_probes_agree(table, rng.uniform(150));
  }
}

TEST(FlatTable, GroupedProbeAcrossWrappedGroup) {
  // Clusters at the last slots make probe windows wrap through the
  // mirror tail: keys must be found whether the chain crosses slot 0 or
  // not, and both probe paths must agree before and after a wrapped
  // backward-shift erase.  Capacity 16 is exactly one group (every
  // window from a nonzero base wraps); capacity 32 wraps from the upper
  // half.
  struct Case {
    std::size_t reserve;   // -> capacity
    std::size_t capacity;
    std::vector<std::size_t> heads;
    std::size_t cluster;   // keys homed at `head`, wrapping past the end
    std::size_t erased;    // cluster index erased mid-chain
    std::vector<std::size_t> absent_homes;
  };
  const std::vector<Case> cases = {
      {4, 16, {12, 14, 15}, 6, 2, {1, 8}},
      {15, 32, {24, 28, 31}, 10, 4, {2, 16}},
  };
  for (const Case& c : cases) {
    for (const std::size_t head : c.heads) {
      SlotTable table;
      table.reserve_for(c.reserve);
      ASSERT_EQ(table.capacity(), c.capacity);
      const std::size_t mask = table.capacity() - 1;
      std::uint64_t cursor = 0;
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < c.cluster; ++i) {
        keys.push_back(key_with_home(head, mask, &cursor));
        insert_new(table, keys.back(), static_cast<std::uint32_t>(i));
      }
      for (const std::uint64_t key : keys) expect_probes_agree(table, key);
      // Absent keys homed inside and outside the wrapped cluster.
      expect_probes_agree(table, key_with_home(head, mask, &cursor));
      for (const std::size_t home : c.absent_homes) {
        expect_probes_agree(table, key_with_home(home, mask, &cursor));
      }

      table.erase_at(table.find(keys[c.erased]));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        expect_probes_agree(table, keys[i]);
        if (i == c.erased) continue;
        const std::size_t slot = table.find_grouped(keys[i]);
        ASSERT_NE(slot, SlotTable::npos) << "head " << head << " key " << i;
        EXPECT_EQ(table.payload_at(slot), static_cast<std::uint32_t>(i));
      }
    }
  }
}

#endif  // ORBIS_FLAT_TABLE_GROUPED

}  // namespace
}  // namespace orbis::util
