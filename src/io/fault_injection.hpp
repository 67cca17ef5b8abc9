// Injectable I/O failure seam (docs/robustness.md, "Fault injection").
//
// The robustness test tier must prove that every way the environment
// can fail an I/O operation — short/failed reads, mid-line truncation,
// ENOSPC on write, fsync failure, rename failure — surfaces as a
// structured orbis::Error instead of a crash or silent truncation.
// Real disks do not fail on cue, so the I/O layer's syscall wrappers
// (io/atomic_file.cpp, io/line_reader.cpp) consult this seam at
// each fault point before issuing the real operation.
//
// Arming, two ways:
//   * programmatic (tests):       fault::arm({fault::Point::write,
//                                   /*after=*/3, ENOSPC, /*count=*/1});
//   * environment (whole-process, e.g. spawned orbis_tool):
//                                 ORBIS_FAULT=write:after=3:err=ENOSPC
//     grammar: point[:after=N][:err=NAME|errno][:count=N]
//     points:  open_read, read, write, fsync, rename
//     err:     ENOSPC, EIO, EINTR, EAGAIN or a raw errno number
//     count:   how many operations fail once triggered (default: all
//              remaining — a "hard" fault; a finite count models a
//              transient fault the retry layer should absorb).
//
// Disarmed cost: one relaxed atomic load per fault point — nothing on
// the rewiring hot paths touches this layer at all.
//
// The seam is process-global and NOT thread-safe against concurrent
// arm() calls (tests arm before running, clear after); should_fail()
// itself is called from I/O paths that are already serialized per file.
#pragma once

#include <cstdint>

namespace orbis::io::fault {

enum class Point {
  open_read,    // opening a file for reading
  read,         // one buffered read syscall
  write,        // one buffered write syscall
  fsync,        // fsync before the atomic rename
  rename_file,  // the atomic rename itself
};

struct Plan {
  Point point = Point::read;
  /// Successful operations at this point before the fault triggers.
  std::uint64_t after = 0;
  /// errno the injected failure reports (EIO if 0).
  int error_code = 0;
  /// Operations that fail once triggered; UINT64_MAX = all remaining.
  std::uint64_t count = ~0ull;
};

/// Arms one fault plan (replacing any previous plan for that point).
void arm(const Plan& plan);

/// Disarms everything and resets operation counters.
void clear();

/// Called by the I/O layer at each fault point: true if this operation
/// must fail now, with `errno_out` set to the injected errno.  Counts
/// one operation at `point` either way.  First call may throw
/// orbis::ParseError if ORBIS_FAULT is set but malformed.
bool should_fail(Point point, int& errno_out);

/// Fast path: false iff nothing is armed (single relaxed atomic load).
/// Same first-call ParseError caveat as should_fail.
bool any_armed();

/// Parses ORBIS_FAULT (see header comment) and arms accordingly; called
/// once automatically before the first should_fail/any_armed answer, so
/// spawned tools honor the variable with no code changes.  Throws
/// orbis::ParseError on a malformed spec.
void arm_from_env();

}  // namespace orbis::io::fault
