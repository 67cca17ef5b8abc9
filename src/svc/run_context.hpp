// The unified entry-point contract (docs/service.md, "RunContext"):
// the one struct that carries a run's execution context — seed, chain
// count, workers, memory budget, stop token, progress sink, metrics
// registry — so no entry point re-plumbs those knobs by hand.
//
// Entry points accept a RunContext alongside their algorithm-specific
// options (gen::GenerateOptions keeps method/temperature/budget — those
// describe WHAT to compute; the context describes HOW this particular
// run executes).  The options structs keep their historical fields as
// one-release back-compat shims (their comments say DEPRECATED):
// `options.apply(ctx)` copies the context over them, and the
// context-taking overloads do exactly that, so a context-driven call and
// a hand-filled legacy call are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::svc {

struct RunContext {
  /// RNG seed; the context form of the CLI's --seed.  Entry points that
  /// take a RunContext derive their generator via make_rng(), never
  /// from an ambient source, so results are a pure function of the
  /// context plus the algorithm options.
  std::uint64_t seed = 1;

  /// Chains per targeting stage (gen/pipeline.hpp); 0 = autotune (one
  /// chain per available core, gen::default_chain_count).
  std::size_t chains = 0;

  /// Speculative evaluation workers for the 3K paths; 1 = serial,
  /// 0 = all cores (docs/parallel.md).
  std::size_t workers = 1;

  /// 2K objective-backend budget in MB (docs/scaling.md).
  std::size_t memory_budget_mb = 512;

  /// Cooperative cancellation; default token never stops.
  util::StopToken stop{};

  /// Live progress observer; null = silent.  Sinks only read samples,
  /// so chains are bit-identical with or without one.
  obs::ProgressSink* progress = nullptr;

  /// Metrics registry for run-scoped instruments; null = the process
  /// registry.  Library counters publish to the global registry either
  /// way (they are process totals); service front ends use this to give
  /// each job its own scrape.
  obs::Registry* metrics = nullptr;

  /// The run's generator.  Deliberately a value: every caller that
  /// needs continuation state (multi-stage pipelines) holds the Rng it
  /// made and passes it down, exactly as the legacy API did.
  util::Rng make_rng() const noexcept { return util::Rng(seed); }

  /// Resolved registry (never null).
  obs::Registry& registry() const noexcept {
    return metrics != nullptr ? *metrics : obs::Registry::global();
  }
};

}  // namespace orbis::svc
