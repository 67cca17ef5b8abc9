#include "io/dk_serialization.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/line_reader.hpp"
#include "util/errors.hpp"
#include "util/keys.hpp"

namespace orbis::io {

namespace {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::int64_t>::max();

[[noreturn]] void parse_fail(const std::string& what,
                             std::size_t line_number) {
  throw ParseError(what + " at line " + std::to_string(line_number));
}

/// Calls handle(fields, line_number) for each line that holds data: '#'
/// starts a comment, and blank lines are skipped.
template <typename Handle>
void for_each_record(LineReader& lines, Handle handle) {
  std::string_view line;
  while (lines.next(line)) {
    FieldCursor fields(line.substr(0, line.find('#')));
    if (!fields.at_end()) handle(fields, lines.line_number());
  }
}

/// Adds a line's count to its file's total, which may not pass 2^63 - 1,
/// so no bin and no sum of bins overflows.
void add_count(std::uint64_t& total, std::uint64_t count, std::size_t line) {
  if (count > kMaxCount - total) parse_fail("counts sum past 2^63 - 1", line);
  total += count;
}

dk::DegreeDistribution parse_1k(LineReader lines) {
  // n(k) is summed, never expanded: no count sizes memory.
  std::vector<std::pair<std::size_t, std::uint64_t>> counts;
  std::uint64_t nodes = 0;
  std::size_t max_k = 0;
  std::size_t max_k_line = 0;
  for_each_record(lines, [&](FieldCursor& fields, std::size_t number) {
    const std::uint64_t k = fields.u64();
    const std::uint64_t count = fields.u64();
    if (!fields.done()) parse_fail("bad 1K line", number);
    if (count > kMaxU32 - nodes) {
      parse_fail("1K node count exceeds 2^32 - 1", number);
    }
    nodes += count;
    if (count == 0) return;
    if (max_k_line == 0 || k > max_k) {
      max_k = k;
      max_k_line = number;
    }
    counts.emplace_back(k, count);
  });
  if (max_k_line != 0 && max_k >= nodes) {
    parse_fail("1K degree " + std::to_string(max_k) + " needs more than the " +
                   std::to_string(nodes) + " nodes of the distribution",
               max_k_line);
  }
  return dk::DegreeDistribution::from_counts(counts);
}

/// A .2k file describes the edges of a graph: k·n(k) of their endpoints
/// have degree k (project_to_1k), so k divides that count and degree 0
/// has none.  The counts sum to at most 2^63 - 1, so no endpoint sum
/// wraps.
dk::JointDegreeDistribution check_endpoints(dk::JointDegreeDistribution dist) {
  std::map<std::uint64_t, std::uint64_t> endpoints;
  for (const auto& entry : dist.entries()) {
    const auto count = static_cast<std::uint64_t>(entry.count);
    endpoints[entry.k1] += count;
    endpoints[entry.k2] += count;
  }
  for (const auto& [k, sum] : endpoints) {
    if (sum == 0 || (k != 0 && sum % k == 0)) continue;
    std::string what = "2K degree " + std::to_string(k) + " has " +
                       std::to_string(sum) + " edge endpoints";
    if (k != 0) what += ", not a multiple of " + std::to_string(k);
    throw ParseError(what);
  }
  return dist;
}

dk::JointDegreeDistribution parse_2k(LineReader lines) {
  dk::JointDegreeDistribution dist;
  std::uint64_t total = 0;
  for_each_record(lines, [&](FieldCursor& fields, std::size_t number) {
    const std::uint64_t k1 = fields.u64();
    const std::uint64_t k2 = fields.u64();
    const std::uint64_t count = fields.u64();
    if (!fields.done() || k1 > kMaxU32 || k2 > kMaxU32) {
      parse_fail("bad 2K line", number);
    }
    add_count(total, count, number);
    dist.histogram().add(util::pair_key(k1, k2),
                         static_cast<std::int64_t>(count));
  });
  return check_endpoints(std::move(dist));
}

dk::ThreeKProfile parse_3k(LineReader lines) {
  // Lines in any order, repeated keys summed: the canonical profile.
  std::vector<dk::SortedBins::Bin> wedges;
  std::vector<dk::SortedBins::Bin> triangles;
  std::uint64_t total = 0;
  for_each_record(lines, [&](FieldCursor& fields, std::size_t number) {
    const std::string_view kind = fields.word();
    if (kind != "w" && kind != "t") {
      parse_fail("bad 3K record kind (expected 'w' or 't')", number);
    }
    const std::uint64_t k1 = fields.u64();
    const std::uint64_t k2 = fields.u64();
    const std::uint64_t k3 = fields.u64();
    const std::uint64_t count = fields.u64();
    if (!fields.done()) parse_fail("bad 3K line", number);
    if (std::max({k1, k2, k3}) > util::max_packable_degree) {
      parse_fail("3K degree exceeds 2^21 - 1", number);
    }
    add_count(total, count, number);
    const auto bin = static_cast<std::int64_t>(count);
    if (kind == "w") {
      wedges.emplace_back(util::wedge_key(k1, k2, k3), bin);
    } else {
      triangles.emplace_back(util::triangle_key(k1, k2, k3), bin);
    }
  });
  return dk::ThreeKProfile(dk::SortedBins::canonicalize(std::move(wedges)),
                           dk::SortedBins::canonicalize(std::move(triangles)));
}

/// Parses the file at `path` through the fault seam.  A ParseError gains
/// the path, so "bad 2K line at line 7" is actionable across a directory
/// of distribution files; an IoError names it already.
template <typename Parse>
auto read_file(const std::string& path, Parse parse) {
  try {
    return parse(LineReader(file_source(path)));
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

}  // namespace

void write_1k(std::ostream& out, const dk::DegreeDistribution& dist) {
  out << "# orbis 1K distribution: k n(k)\n";
  for (const auto k : dist.support()) {
    out << k << ' ' << dist.n_of_k(k) << '\n';
  }
}

dk::DegreeDistribution read_1k(std::istream& in) {
  return parse_1k(LineReader(stream_source(in)));
}

void write_2k(std::ostream& out, const dk::JointDegreeDistribution& dist) {
  out << "# orbis 2K distribution: k1 k2 m(k1,k2)\n";
  for (const auto& entry : dist.entries()) {
    out << entry.k1 << ' ' << entry.k2 << ' ' << entry.count << '\n';
  }
}

dk::JointDegreeDistribution read_2k(std::istream& in) {
  return parse_2k(LineReader(stream_source(in)));
}

void write_3k(std::ostream& out, const dk::ThreeKProfile& profile) {
  out << "# orbis 3K distribution: {w|t} k1 k2 k3 count\n";
  for (const auto& [key, count] : profile.wedges()) {
    const auto [k1, k2, k3] = util::unpack_triple(key);
    out << "w " << k1 << ' ' << k2 << ' ' << k3 << ' ' << count << '\n';
  }
  for (const auto& [key, count] : profile.triangles()) {
    const auto [k1, k2, k3] = util::unpack_triple(key);
    out << "t " << k1 << ' ' << k2 << ' ' << k3 << ' ' << count << '\n';
  }
}

dk::ThreeKProfile read_3k(std::istream& in) {
  return parse_3k(LineReader(stream_source(in)));
}

void write_1k_file(const std::string& path,
                   const dk::DegreeDistribution& dist) {
  write_file_atomic(path, [&](std::ostream& out) { write_1k(out, dist); });
}

dk::DegreeDistribution read_1k_file(const std::string& path) {
  return read_file(path, parse_1k);
}

void write_2k_file(const std::string& path,
                   const dk::JointDegreeDistribution& dist) {
  write_file_atomic(path, [&](std::ostream& out) { write_2k(out, dist); });
}

dk::JointDegreeDistribution read_2k_file(const std::string& path) {
  return read_file(path, parse_2k);
}

void write_3k_file(const std::string& path, const dk::ThreeKProfile& profile) {
  write_file_atomic(path, [&](std::ostream& out) { write_3k(out, profile); });
}

dk::ThreeKProfile read_3k_file(const std::string& path) {
  return read_file(path, parse_3k);
}

}  // namespace orbis::io
