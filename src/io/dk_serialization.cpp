#include "io/dk_serialization.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "io/atomic_file.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/keys.hpp"

namespace orbis::io {

namespace {

/// Yields non-comment, non-blank lines with their line numbers.  A
/// stream error mid-read throws IoError — getline's false is EOF only
/// when no badbit is set, otherwise a truncated file would silently
/// parse as a complete (smaller) distribution.
template <typename Handle>
void for_each_data_line(std::istream& in, Handle handle) {
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    handle(line, line_number);
  }
  if (in.bad()) {
    throw IoError("read failed after line " + std::to_string(line_number) +
                  " (stream badbit set; underlying I/O error)");
  }
}

[[noreturn]] void parse_fail(const char* what, std::size_t line_number) {
  throw ParseError(std::string(what) + " at line " +
                   std::to_string(line_number));
}

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open file: " + path);
  return in;
}

/// Runs a stream reader against a file, prefixing errors with the path
/// so "bad 2K line at line 7" becomes actionable across a directory of
/// distribution files.
template <typename Read>
auto read_file_with_context(const std::string& path, Read read)
    -> decltype(read(std::declval<std::istream&>())) {
  auto in = open_input(path);
  try {
    return read(in);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  } catch (const IoError& e) {
    throw IoError(path + ": " + e.what(), e.errno_value());
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
  std::vector<std::size_t> degrees;
  for_each_data_line(in, [&](const std::string& line, std::size_t number) {
    std::istringstream fields(line);
    std::size_t k = 0;
    std::uint64_t count = 0;
    if (!(fields >> k >> count)) parse_fail("bad 1K line", number);
    degrees.insert(degrees.end(), count, k);
  });
  return dk::DegreeDistribution::from_sequence(degrees);
}

void write_2k(std::ostream& out, const dk::JointDegreeDistribution& dist) {
  out << "# orbis 2K distribution: k1 k2 m(k1,k2)\n";
  for (const auto& entry : dist.entries()) {
    out << entry.k1 << ' ' << entry.k2 << ' ' << entry.count << '\n';
  }
}

dk::JointDegreeDistribution read_2k(std::istream& in) {
  dk::JointDegreeDistribution dist;
  for_each_data_line(in, [&](const std::string& line, std::size_t number) {
    std::istringstream fields(line);
    std::uint32_t k1 = 0;
    std::uint32_t k2 = 0;
    std::int64_t count = 0;
    if (!(fields >> k1 >> k2 >> count) || count < 0) {
      parse_fail("bad 2K line", number);
    }
    dist.histogram().add(util::pair_key(k1, k2), count);
  });
  return dist;
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
  // Lines in any order, repeated keys summed: the canonical profile.
  std::vector<dk::SortedBins::Bin> wedges;
  std::vector<dk::SortedBins::Bin> triangles;
  for_each_data_line(in, [&](const std::string& line, std::size_t number) {
    std::istringstream fields(line);
    char kind = 0;
    std::uint32_t k1 = 0;
    std::uint32_t k2 = 0;
    std::uint32_t k3 = 0;
    std::int64_t count = 0;
    if (!(fields >> kind >> k1 >> k2 >> k3 >> count) || count < 0) {
      parse_fail("bad 3K line", number);
    }
    if (kind == 'w') {
      wedges.emplace_back(util::wedge_key(k1, k2, k3), count);
    } else if (kind == 't') {
      triangles.emplace_back(util::triangle_key(k1, k2, k3), count);
    } else {
      parse_fail("bad 3K record kind (expected 'w' or 't')", number);
    }
  });
  return dk::ThreeKProfile(dk::SortedBins::canonicalize(std::move(wedges)),
                           dk::SortedBins::canonicalize(std::move(triangles)));
}

void write_1k_file(const std::string& path,
                   const dk::DegreeDistribution& dist) {
  write_file_atomic(path, [&](std::ostream& out) { write_1k(out, dist); });
}

dk::DegreeDistribution read_1k_file(const std::string& path) {
  return read_file_with_context(
      path, [](std::istream& in) { return read_1k(in); });
}

void write_2k_file(const std::string& path,
                   const dk::JointDegreeDistribution& dist) {
  write_file_atomic(path, [&](std::ostream& out) { write_2k(out, dist); });
}

dk::JointDegreeDistribution read_2k_file(const std::string& path) {
  return read_file_with_context(
      path, [](std::istream& in) { return read_2k(in); });
}

void write_3k_file(const std::string& path, const dk::ThreeKProfile& profile) {
  write_file_atomic(path, [&](std::ostream& out) { write_3k(out, profile); });
}

dk::ThreeKProfile read_3k_file(const std::string& path) {
  return read_file_with_context(
      path, [](std::istream& in) { return read_3k(in); });
}

}  // namespace orbis::io
