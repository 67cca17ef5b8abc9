// Text serialization of dK-distributions (Orbis-style .1k/.2k/.3k files).
//
//   1K:  "k n(k)"                    one line per degree
//   2K:  "k1 k2 m(k1,k2)"            k1 <= k2
//   3K:  "w k1 k2 k3 count"          wedges (k2 = center, k1 <= k3)
//        "t k1 k2 k3 count"          triangles (k1 <= k2 <= k3)
// '#' comments and blank lines are ignored.  The readers run on the one
// line reader (io/line_reader.hpp) and its grammar is strict: every
// number is an unsigned decimal with no sign, and no token may trail a
// record.  A .1k file's n(k) sum to at most 2^32 - 1 and every k is
// below that sum; a .2k/.3k file's counts sum to at most 2^63 - 1; a 3K
// degree fits the 21-bit key (util::max_packable_degree).  Both 2K
// readers also check that the lines describe a graph's edges: they put
// a multiple of k endpoints on each degree k (the k·n(k) of its n(k)
// nodes) and none on degree 0.
//
// Error contract: malformed content throws orbis::ParseError (a
// std::invalid_argument) naming the line — and, for the *_file
// variants, the file; I/O failures throw orbis::IoError (a
// std::runtime_error).  File reads go through the fault seam.  Readers
// never return a partially-filled distribution: a truncated or failing
// stream throws rather than parsing short.  The *_file writers are
// atomic (temp + fsync + rename, io/atomic_file.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "core/degree_distribution.hpp"
#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"

namespace orbis::io {

void write_1k(std::ostream& out, const dk::DegreeDistribution& dist);
dk::DegreeDistribution read_1k(std::istream& in);

void write_2k(std::ostream& out, const dk::JointDegreeDistribution& dist);
dk::JointDegreeDistribution read_2k(std::istream& in);

void write_3k(std::ostream& out, const dk::ThreeKProfile& profile);
dk::ThreeKProfile read_3k(std::istream& in);

// File-path conveniences; see the error contract above.
void write_1k_file(const std::string& path, const dk::DegreeDistribution&);
dk::DegreeDistribution read_1k_file(const std::string& path);
void write_2k_file(const std::string& path,
                   const dk::JointDegreeDistribution&);
dk::JointDegreeDistribution read_2k_file(const std::string& path);
void write_3k_file(const std::string& path, const dk::ThreeKProfile&);
dk::ThreeKProfile read_3k_file(const std::string& path);

}  // namespace orbis::io
