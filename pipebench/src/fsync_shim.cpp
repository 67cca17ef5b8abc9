// fsync/fdatasync for the benchmark process: counted, not awaited.
//
// The library's atomic writer (io/atomic_file.hpp) fsyncs every file it
// publishes and its directory.  The benchmark keeps all of its files
// inside its own checkout, which may sit on a shared disk; there a
// single fsync took 10-60 ms and varied several-fold from minute to
// minute, so a service session's ~500 fsyncs would have made its wall
// time a measurement of the disk, not of the library.  A RAM-backed
// directory makes fsync free; defining the two calls here gives the
// benchmark's process the same behaviour wherever the checkout lives.
// The library binds to these definitions because it is linked
// statically into this executable.  The write, rename and every other
// I/O step still run for real, and the number of durability barriers
// the library asked for is reported as io.fsync_calls.
#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "bench.hpp"

namespace {
std::atomic<std::uint64_t> fsync_count{0};
}  // namespace

namespace pipebench {
std::uint64_t fsync_calls() {
  return fsync_count.load(std::memory_order_relaxed);
}
}  // namespace pipebench

extern "C" int fsync(int) {
  fsync_count.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

extern "C" int fdatasync(int) {
  fsync_count.fetch_add(1, std::memory_order_relaxed);
  return 0;
}
