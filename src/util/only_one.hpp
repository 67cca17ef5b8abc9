// A field that holds 1 and nothing else: the `workers` fields that once
// selected speculative 3K evaluation.  Every chain is now serial, but
// outside code still assigns them 1.  Assigning 1 does nothing; any
// other count throws, so no entry point has to check the fields and a
// worker count is never silently ignored.
#pragma once

#include <concepts>
#include <stdexcept>

namespace orbis::util {

class OnlyOne {
 public:
  constexpr OnlyOne() noexcept = default;

  /// Implicit, so `options.workers = 1` keeps compiling.
  template <std::integral T>
  OnlyOne(T value) {  // NOLINT(google-explicit-constructor)
    if (value != 1) {
      throw std::invalid_argument(
          "workers must be 1: speculative 3K evaluation was removed; for "
          "more cores run independent chains (\"chains\", --chains N) or a "
          "replica ladder (--ladder K)");
    }
  }
};

}  // namespace orbis::util
