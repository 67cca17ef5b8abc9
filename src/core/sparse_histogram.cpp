#include "core/sparse_histogram.hpp"

namespace orbis::dk {

void SparseHistogram::add(std::uint64_t key, std::int64_t delta) {
  if (delta == 0) return;
  if (!table_.has_storage()) table_.grow();

  const std::size_t i = table_.locate(key);
  if (table_.occupied(i)) {
    const std::int64_t next = table_.payload_at(i) + delta;
    util::ensures(next >= 0, "SparseHistogram: bin went negative");
    if (next != 0) {
      table_.payload_at(i) = next;
      return;
    }
    table_.erase_at(i);
    return;
  }

  // New bin; creating it with a negative count is the caller error the
  // signed representation exists to catch.  Nothing is mutated before
  // the check, so a failed add leaves the histogram untouched.
  util::ensures(delta >= 0, "SparseHistogram: bin went negative");
  table_.occupy(i, key, delta);
  // Growth AFTER the insertion (load factor <= 0.5 keeps linear-probe
  // chains short) — this table's historical timing, which pins its slot
  // layout and bins() order.
  if (table_.over_load_factor()) table_.grow();
}

bool operator==(const SparseHistogram& a, const SparseHistogram& b) {
  if (a.num_bins() != b.num_bins()) return false;
  for (const auto& [key, count] : a.bins()) {
    if (b.count(key) != count) return false;
  }
  return true;
}

double SparseHistogram::squared_difference(const SparseHistogram& a,
                                           const SparseHistogram& b) {
  double total = 0.0;
  for (const auto& [key, value] : a.bins()) {
    const double diff = static_cast<double>(value - b.count(key));
    total += diff * diff;
  }
  for (const auto& [key, value] : b.bins()) {
    if (a.count(key) == 0) {
      const double diff = static_cast<double>(value);
      total += diff * diff;
    }
  }
  return total;
}

}  // namespace orbis::dk
