// Micro performance benchmarks (google-benchmark) for the hot paths:
// extraction, incremental bookkeeping, rewiring steps, BFS, Brandes and
// Lanczos.  These guard the complexity classes the library promises.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dk_state.hpp"
#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/matching.hpp"
#include "gen/pipeline.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/edge_index.hpp"
#include "topo/as_level.hpp"
#include "topo/hot.hpp"
#include "util/stop_token.hpp"
#include "graph/builders.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "metrics/betweenness.hpp"
#include "metrics/distance.hpp"
#include "metrics/spectrum.hpp"
#include "obs/metrics.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace orbis;

Graph make_graph(std::int64_t n) {
  util::Rng rng(42);
  return builders::gnm(static_cast<NodeId>(n),
                       static_cast<std::size_t>(3 * n), rng);
}

void BM_Extract2K(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dk::JointDegreeDistribution::from_graph(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Extract2K)->Range(1 << 10, 1 << 14)->Complexity();

void BM_Extract3K(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dk::ThreeKProfile::from_graph(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Extract3K)->Range(1 << 10, 1 << 14)->Complexity();

void BM_RewiringStep1K(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  util::Rng rng(7);
  gen::RandomizeOptions options;
  options.d = 1;
  for (auto _ : state) {
    state.PauseTiming();
    Graph copy = g;
    state.ResumeTiming();
    options.attempts = 1000;
    benchmark::DoNotOptimize(gen::randomize(copy, options, rng));
  }
}
BENCHMARK(BM_RewiringStep1K)->Arg(1 << 12);

// 3K swap-attempt throughput.  The rewirer (CSR index + DkState
// histograms) is built once OUTSIDE the timed region — the old version
// re-extracted the full 3K profile every iteration, so it measured
// construction, not rewiring.  Items processed = swap attempts, so
// items_per_second is the headline number; the 2^14 arg shows the flat
// index holding up at scale.
void BM_RewiringStep3K(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  gen::ThreeKRewirer rewirer(g);
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    rewirer.randomize(1000, rng, &stats);
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_RewiringStep3K)->Arg(1 << 11)->Arg(1 << 14);

// Swap-attempt throughput of the 2K-targeting path (the cost that
// dominates every table/figure reproduction).  Items processed = swap
// attempts, so items_per_second is the headline number.
void BM_Target2KAttempts(benchmark::State& state) {
  const auto original = make_graph(state.range(0));
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng start_rng(13);
  const auto start =
      gen::matching_1k(dk::DegreeDistribution::from_graph(original),
                       start_rng);
  gen::TargetingOptions options;
  options.attempts = 100000;
  // Never satisfied: the chain keeps attempting swaps after reaching the
  // target, so the measurement is sustained attempt throughput.
  options.stop_distance = -1.0;
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    benchmark::DoNotOptimize(
        gen::target_2k(start, target, options, rng, &stats));
    attempts += stats.attempts;
    accepted += stats.accepted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
  state.counters["accepted_per_second"] = benchmark::Counter(
      static_cast<double>(accepted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Target2KAttempts)->Arg(10000)->Unit(benchmark::kMillisecond);

// Streaming extraction throughput (chunked reader + StreamingDkExtractor,
// docs/scaling.md): edges processed per second over a written file, the
// pipeline `orbis_tool extract` runs.  Level 2 = the two-pass degree+JDD
// scan that bounded-memory extract->target workflows depend on.
void BM_StreamingExtract2K(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  const std::string path = "/tmp/orbis_bench_streaming.edges";
  io::write_edge_list_file(path, g);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto streamed = io::extract_dk_streaming(path, 2);
    benchmark::DoNotOptimize(streamed.distributions.num_edges);
    edges += streamed.distributions.num_edges;
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StreamingExtract2K)->Range(1 << 12, 1 << 15)->Complexity();

// The in-memory read path: read_edge_list_file (one chunked parse
// pass, then Graph's bulk build) on a written G(n,3n) file, plus the
// EdgeIndex::to_graph rows export every rewiring stage ends with.  Items are
// edges read plus edges exported.
void BM_ReadEdgeList(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  const std::string path = "/tmp/orbis_bench_read.edges";
  io::write_edge_list_file(path, g);
  const EdgeIndex index(g);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto read = io::read_edge_list_file(path);
    const Graph exported = index.to_graph();
    benchmark::DoNotOptimize(exported.num_edges());
    edges += read.graph.num_edges() + exported.num_edges();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_ReadEdgeList)->Arg(1 << 15)->Unit(benchmark::kMillisecond);

// Swap-attempt throughput of 2K-preserving randomization.
void BM_Randomize2KAttempts(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  gen::RandomizeOptions options;
  options.d = 2;
  options.attempts = 100000;
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    benchmark::DoNotOptimize(gen::randomize(g, options, rng, &stats));
    attempts += stats.attempts;
    accepted += stats.accepted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
  state.counters["accepted_per_second"] = benchmark::Counter(
      static_cast<double>(accepted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Randomize2KAttempts)->Arg(10000)->Unit(benchmark::kMillisecond);

// Serial 3K chains on the paper's graph shape: a power-law degree
// sequence (n=10k, gamma 1.93, cap 1000) wired by matching_1k, so most
// proposals touch a hub.  Items are swap attempts.  3K pricing walks
// only the equal-degree pair of a swap, so these guard that hub degree
// stays out of the per-attempt cost — the Poisson graphs above cannot
// see it.
Graph make_power_law_graph(NodeId n, double gamma, std::size_t cap) {
  topo::AsLevelOptions options;
  options.num_nodes = n;
  options.gamma = gamma;
  options.max_degree_cap = cap;
  util::Rng rng(42);
  return gen::matching_1k(dk::DegreeDistribution::from_sequence(
                              topo::power_law_degree_sequence(options)),
                          rng);
}

Graph make_hub_graph() { return make_power_law_graph(10000, 1.93, 1000); }

void BM_Hub3KTarget(benchmark::State& state) {
  const auto original = make_hub_graph();
  const auto dists = dk::extract(original, 3);
  util::Rng start_rng(13);
  const auto start = gen::matching_2k(dists.joint, start_rng);
  gen::ThreeKRewirer rewirer(start, dists.three_k);
  gen::TargetingOptions options;
  // Never satisfied: sustained attempt throughput, not convergence.
  options.stop_distance = -1.0;
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    rewirer.target(options, 20000, rng, &stats);
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Hub3KTarget)->Unit(benchmark::kMillisecond);

void BM_Hub3KRandomize(benchmark::State& state) {
  gen::ThreeKRewirer rewirer(make_hub_graph());
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    rewirer.randomize(20000, rng, &stats);
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Hub3KRandomize)->Unit(benchmark::kMillisecond);

// The same chain on the flat shape, G(n,3n) with n = 30k, at the
// swap_journal level gen::randomize builds.  With no hubs, about 88% of
// the 2K-preserving candidates change the 3K profile; the O(1)
// neighbour-degree-sum prefilter turns most of them away before the
// journal is priced, so this guards the prefilter's share of the step.
void BM_Flat3KRandomize(benchmark::State& state) {
  gen::ThreeKRewirer rewirer(make_graph(30000), dk::TrackLevel::swap_journal);
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    rewirer.randomize(20000, rng, &stats);
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Flat3KRandomize)->Unit(benchmark::kMillisecond);

// gen::randomize at d = 3 as callers see it: the engine build is inside
// the timed call.  Randomizing reads only the swap journal, so the build
// must stay a JDD pass, never a 3K histogram extraction; on this input
// that extraction costs more than the 20k attempts.
void BM_Hub3KRandomizeCall(benchmark::State& state) {
  const Graph g = make_hub_graph();
  gen::RandomizeOptions options;
  options.d = 3;
  options.attempts = 20000;
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    benchmark::DoNotOptimize(gen::randomize(g, options, rng, &stats));
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Hub3KRandomizeCall)->Unit(benchmark::kMillisecond);

// gen::explore toward maximum C̄ on the hub graph, as callers see it
// (the engine build and its S2/C̄ sums inside the timed call): every
// structurally valid candidate is priced by evaluate_swap, journal
// included, though exploration reads only the scalar deltas.
void BM_Hub3KExplore(benchmark::State& state) {
  const Graph g = make_hub_graph();
  gen::ExploreOptions options;
  options.attempts = 20000;
  util::Rng rng(7);
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    gen::RewiringStats stats;
    benchmark::DoNotOptimize(gen::explore(
        g, gen::ExploreObjective::maximize_clustering, options, rng, &stats));
    attempts += stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Hub3KExplore)->Unit(benchmark::kMillisecond);

// The full 3K state build every fresh 3K targeting chain pays: one
// count_three_k pass (the sorted wedge/triangle bins) over the hub
// graph's EdgeIndex, merged into the residual (here against the empty
// profile, so every bin is stored).
void BM_Hub3KBuild(benchmark::State& state) {
  const Graph g = make_hub_graph();
  for (auto _ : state) {
    const dk::DkState built(g, dk::TrackLevel::full_three_k);
    benchmark::DoNotOptimize(built.residual().num_bins());
  }
}
BENCHMARK(BM_Hub3KBuild)->Unit(benchmark::kMillisecond);

// ThreeKProfile::from_graph on the hub graph: the 3K extraction of the
// heavy-tailed inputs the paper uses, where the center classes span
// hundreds of degree classes (Extract3K's Poisson graphs have ~20).
void BM_Hub3KExtract(benchmark::State& state) {
  const Graph g = make_hub_graph();
  for (auto _ : state) {
    const auto profile = dk::ThreeKProfile::from_graph(g);
    benchmark::DoNotOptimize(profile.wedges().num_bins());
  }
}
BENCHMARK(BM_Hub3KExtract)->Unit(benchmark::kMillisecond);

// The 3K stage of a d = 3 gen::Pipeline on the hub graph, one chain,
// driven one leg per step() as the server does.  Arg(0) is the default
// cadence (8 legs), Arg(1) a single leg: both walk the same chain, and
// with the engine carried across legs they differ only by seven rows
// exports, so Arg(0) must stay close to Arg(1).  The 1K seed and the 2K
// stage run outside the timed region.  Items are 3K attempts.
void BM_Pipeline3KLegs(benchmark::State& state) {
  const auto target = dk::extract(make_hub_graph(), 3);
  gen::PipelineOptions options;
  options.d = 3;
  options.targeting.attempts = 20000;
  options.checkpoint_every = state.range(0) == 0 ? 0 : 20000;
  svc::RunContext ctx;
  ctx.chains = 1;
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gen::Pipeline pipeline(target, options, util::Rng(7), ctx);
    while (pipeline.checkpoint().d == 2) pipeline.step({});
    state.ResumeTiming();
    while (!pipeline.step({})) {
    }
    attempts += pipeline.stages().back().result.total_stats.attempts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(attempts));
}
BENCHMARK(BM_Pipeline3KLegs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Raw FlatTable probe throughput — the primitive under the edge hash,
// histogram bins and sparse JDD bins — through the build's default
// find() dispatch (control-byte groups where SSE2 is available, the
// scalar walk elsewhere).  Hit and miss are split because they
// stress different paths: hits end at a fragment match, misses scan to
// the first empty byte.
void BM_FlatTableProbeHit(benchmark::State& state) {
  using Table = util::FlatTable<util::KeySentinelTraits<std::uint32_t>>;
  const auto count = static_cast<std::size_t>(state.range(0));
  Table table;
  table.reserve_for(count);
  util::Rng fill_rng(21);
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    const std::uint64_t key = 1 + fill_rng.next();
    const std::size_t slot = table.locate(key);
    if (table.occupied(slot)) continue;
    table.occupy(slot, key, static_cast<std::uint32_t>(keys.size()));
    keys.push_back(key);
  }
  util::Rng rng(22);
  std::uint64_t probes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[rng.uniform(keys.size())]));
    ++probes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_FlatTableProbeHit)->Arg(1 << 10)->Arg(1 << 16);

void BM_FlatTableProbeMiss(benchmark::State& state) {
  using Table = util::FlatTable<util::KeySentinelTraits<std::uint32_t>>;
  const auto count = static_cast<std::size_t>(state.range(0));
  Table table;
  table.reserve_for(count);
  util::Rng fill_rng(21);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t key = 1 + fill_rng.next();
    const std::size_t slot = table.locate(key);
    if (table.occupied(slot)) continue;
    table.occupy(slot, key, static_cast<std::uint32_t>(i));
  }
  // Probe keys drawn from a disjoint stream: virtually all misses.
  util::Rng rng(23);
  std::uint64_t probes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(1 + rng.next()));
    ++probes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_FlatTableProbeMiss)->Arg(1 << 10)->Arg(1 << 16);

void BM_Bfs(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  util::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bfs_distances(g, static_cast<NodeId>(rng.uniform(g.num_nodes()))));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Bfs)->Range(1 << 10, 1 << 15)->Complexity();

void BM_Brandes(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::betweenness(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Brandes)->Range(1 << 8, 1 << 10)->Complexity();

void BM_LanczosExtremes(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::laplacian_extremes(g));
  }
}
BENCHMARK(BM_LanczosExtremes)->Range(1 << 10, 1 << 13);

// The svc metrics job's spectrum phase on its graph shape: the GCC of a
// power-law degree sequence (n=4000, gamma 2.1, cap 300) wired by
// matching_1k.  `lanczos_steps` is the Lanczos step count per call.
void BM_LaplacianExtremesHub(benchmark::State& state) {
  const auto g =
      largest_connected_component(make_power_law_graph(4000, 2.1, 300)).graph;
  std::size_t steps = 0;
  for (auto _ : state) {
    const auto result = metrics::laplacian_extremes(g);
    steps = result.iterations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["lanczos_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_LaplacianExtremesHub)->Unit(benchmark::kMillisecond);

void BM_DistanceDistribution(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::distance_distribution(g));
  }
}
BENCHMARK(BM_DistanceDistribution)->Range(1 << 8, 1 << 11);

// The svc metrics job's distance phase on its graph shape: the GCC of a
// power-law degree sequence (n=4096, gamma 2.1, cap 300) wired by
// matching_1k, small diameter and hubs, where the batched BFS pulls.
void BM_DistanceDistributionHub(benchmark::State& state) {
  const auto g =
      largest_connected_component(make_power_law_graph(4096, 2.1, 300)).graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::distance_distribution(g));
  }
}
BENCHMARK(BM_DistanceDistributionHub)->Unit(benchmark::kMillisecond);

// The high-diameter guard: on a path every batch runs ~n levels with a
// sparse frontier, so the batched BFS must push, not scan every node.
void BM_DistanceDistributionPath(benchmark::State& state) {
  const auto g = builders::path(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::distance_distribution(g));
  }
}
BENCHMARK(BM_DistanceDistributionPath)->Unit(benchmark::kMillisecond);

// The telemetry update primitive: one relaxed fetch_add through a
// function-local static reference, exactly what publish_rewiring_metrics
// and the exec/io instruments do per event.  This pins the "metrics are
// nanoseconds, not microseconds" overhead claim in docs/observability.md
// — the perf gate catches anyone putting a lock or a map lookup on the
// update path.
void BM_TelemetryCounter(benchmark::State& state) {
  for (auto _ : state) {
    static obs::Counter& counter =
        obs::Registry::global().counter("bench.telemetry_counter");
    counter.add(1);
  }
}
BENCHMARK(BM_TelemetryCounter);

// ---------------------------------------------------------------------------
// Convergence: attempts for 4 independent chains to reach a target ε on
// the HOT workload (the paper's table-5 hard case).  Arg(0) keeps the
// names the perf gate's reference entries carry.  One chain seed's count
// is a single draw from a wide distribution (on 3K a quarter to a third of
// the seeds do not converge within the budget), and any change to how a
// chain consumes its Rng re-rolls it; so each arm runs kConvergenceSeeds
// chain seeds on the same topology and start graph and reports the
// MEDIAN count as MANUAL time (attempts / 1e6).  The regression gate's
// 1/real_time score then measures search efficiency, attempts consumed
// rather than nanoseconds, and is exactly reproducible on any machine
// and under any CPU load.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kConvergenceSeeds = 25;

struct ConvergenceRun {
  std::uint64_t attempts = 0;  // summed over chains at the stop boundary
  bool converged = false;
};

/// K chains under the checkpointed leg driver, polled every kPollEvery
/// attempts; the run stops at the first boundary where the best chain
/// is within eps.
ConvergenceRun converge_to_eps(int d, double eps,
                               std::uint64_t budget_per_chain,
                               std::uint64_t chain_seed) {
  topo::HotOptions hot;  // a reduced HOT: same regime, bench-sized
  hot.num_core = 6;
  hot.core_chords = 2;
  hot.gateways_per_core = 2;
  hot.access_per_gateway = 3;
  hot.num_nodes = 200;
  hot.num_edges = 210;
  util::Rng topo_rng(3);
  const Graph original = topo::hot_topology(hot, topo_rng);
  const auto target = dk::extract(original, 3);

  util::Rng start_rng(13);
  Graph start = d == 2 ? gen::matching_1k(target.degree, start_rng)
                       : gen::matching_2k(target.joint, start_rng);

  gen::TargetingOptions options;
  options.attempts = budget_per_chain;
  options.stop_distance = eps;
  util::StopSource stop;
  svc::RunContext ctx;
  ctx.chains = 4;
  ctx.stop = stop.token();

  constexpr std::uint64_t kPollEvery = 1000;
  util::Rng rng(chain_seed);
  gen::RunCheckpoint run =
      d == 2 ? gen::make_2k_run(start, options, kPollEvery, rng, ctx)
             : gen::make_3k_run(start, options, kPollEvery, rng, ctx);

  gen::CheckpointOptions checkpointing;
  checkpointing.on_checkpoint = [&](const gen::RunCheckpoint& snapshot) {
    std::int64_t best = snapshot.chains[0].distance;
    for (const auto& chain : snapshot.chains) {
      best = std::min(best, chain.distance);
    }
    if (static_cast<double>(best) <= eps) stop.request_stop();
  };

  const auto result =
      d == 2 ? gen::run_checkpointed_2k(run, target.joint, options,
                                        checkpointing, ctx)
             : gen::run_checkpointed_3k(run, target.three_k, options,
                                        checkpointing, ctx);
  return {result.total_stats.attempts, result.best_distance <= eps};
}

void run_convergence_arm(benchmark::State& state, int d, double eps,
                         std::uint64_t budget_per_chain) {
  std::vector<std::uint64_t> attempts;
  std::uint64_t converged = 0;
  for (auto _ : state) {
    attempts.clear();
    converged = 0;
    for (std::uint64_t seed = 1; seed <= kConvergenceSeeds; ++seed) {
      const auto run = converge_to_eps(d, eps, budget_per_chain, seed);
      attempts.push_back(run.attempts);
      converged += run.converged ? 1 : 0;
    }
    std::sort(attempts.begin(), attempts.end());
    state.SetIterationTime(
        static_cast<double>(attempts[attempts.size() / 2]) * 1e-6);
  }
  state.counters["attempts"] =
      static_cast<double>(attempts[attempts.size() / 2]);
  state.counters["q1"] = static_cast<double>(attempts[attempts.size() / 4]);
  state.counters["q3"] =
      static_cast<double>(attempts[(3 * attempts.size()) / 4]);
  state.counters["converged"] =
      static_cast<double>(converged) / static_cast<double>(attempts.size());
  // The count is the same on any machine: the regression gate compares
  // it raw and keeps it out of its machine-speed median.
  state.counters["deterministic"] = 1;
}

// 2K on HOT is an EASY landscape: greedy reaches D2 = 0 directly.
void BM_ConvergenceAttemptsToEps2K(benchmark::State& state) {
  run_convergence_arm(state, 2, /*eps=*/0.0, /*budget_per_chain=*/100000);
}
BENCHMARK(BM_ConvergenceAttemptsToEps2K)
    ->Arg(0)
    ->Iterations(1)
    ->UseManualTime();

// 3K on HOT is the hard case: greedy chains stall on a D3 plateau, and
// a quarter to a third of the seeds do not reach D3 = 0 within the
// budget.
void BM_ConvergenceAttemptsToEps3K(benchmark::State& state) {
  run_convergence_arm(state, 3, /*eps=*/0.0, /*budget_per_chain=*/400000);
}
BENCHMARK(BM_ConvergenceAttemptsToEps3K)
    ->Arg(0)
    ->Iterations(1)
    ->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
