// The execution context of one run (docs/service.md, "RunContext"), and
// the only home of its seed, chain count, stop token, progress sink and
// metrics registry.  Options structs say WHAT to compute; the context
// says HOW this run executes, and every layer that polls a stop token,
// reports progress or picks a chain count takes it by const reference
// (docs/service.md lists them).  A default context never stops,
// reports nothing and autotunes chains.  Stop and progress never decide
// anything, so a run is bit-identical with or without them.  Each chain
// is serial; more cores mean more chains.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/only_one.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::svc {

struct RunContext {
  /// RNG seed (the CLI's --seed); generators derive from it through
  /// make_rng(), so results are a pure function of the context plus the
  /// algorithm options.
  std::uint64_t seed = 1;

  /// Chains per targeting stage (gen/pipeline.hpp); 0 = autotune (one
  /// chain per available core, gen::default_chain_count).
  std::size_t chains = 0;

  /// Kept only because the frozen benchmark (pipebench/) assigns it 1;
  /// deleted with its next revision.  Other values throw (OnlyOne).
  util::OnlyOne workers{};

  /// Cooperative cancellation; default token never stops.
  util::StopToken stop{};

  /// Live progress observer; null = silent.
  obs::ProgressSink* progress = nullptr;

  /// Metrics registry for run-scoped instruments; null = the process
  /// registry.  Library counters publish to the global registry either
  /// way (they are process totals); service front ends use this to give
  /// each job its own scrape.
  obs::Registry* metrics = nullptr;

  /// The run's generator.  Deliberately a value: a caller that needs
  /// continuation state (multi-stage pipelines) holds the Rng it made.
  util::Rng make_rng() const noexcept { return util::Rng(seed); }

  /// Resolved registry (never null).
  obs::Registry& registry() const noexcept {
    return metrics != nullptr ? *metrics : obs::Registry::global();
  }
};

}  // namespace orbis::svc
