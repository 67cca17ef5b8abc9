// The checkpoint/resume determinism contract (gen/checkpoint.hpp):
// killing a run at ANY checkpoint boundary and resuming from the file
// on disk produces the SAME final graph, distance and stats as the
// uninterrupted run — bit-identical, for both 2K and 3K targeting —
// plus the strict checkpoint-file parser.
#include "gen/checkpoint.hpp"

#include "gen/anneal.hpp"
#include "gen/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "io/checkpoint_io.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

/// Same edges in the same order, and the same adjacency rows — the
/// chain's canonical form.
void expect_same_edges(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto& ea = a.edges();
  const auto& eb = b.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u) << "edge slot " << i;
    EXPECT_EQ(ea[i].v, eb[i].v) << "edge slot " << i;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto ra = a.neighbors(v);
    const auto rb = b.neighbors(v);
    EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << v;
  }
}

void expect_same_stats(const RewiringStats& a, const RewiringStats& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_structural, b.rejected_structural);
  EXPECT_EQ(a.rejected_constraint, b.rejected_constraint);
  EXPECT_EQ(a.rejected_objective, b.rejected_objective);
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("orbis_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    util::Rng rng(91);
    const Graph source = builders::gnm(40, 90, rng);
    target_ = dk::extract(source, 3);
    util::Rng boot(17);
    start_ = matching_1k(target_.degree, boot);

    options_.attempts = 3000;  // explicit budget, 10 legs of 300
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// The uninterrupted reference run (fresh Rng with `seed`).
  CheckpointedResult reference_2k(std::uint64_t seed, RunCheckpoint* out) {
    util::Rng rng(seed);
    RunCheckpoint state =
        make_2k_run(start_, options_, /*checkpoint_every=*/300, rng,
                    {.chains = 2});
    auto result = run_checkpointed_2k(state, target_.joint, options_, {});
    if (out != nullptr) *out = state;
    return result;
  }

  /// Kill at checkpoint boundary `kill_at` (serialize to disk), then
  /// resume from the file in a fresh driver — the in-memory state of the
  /// first run is thrown away, as a process death would.
  CheckpointedResult kill_and_resume_2k(std::uint64_t seed,
                                        std::size_t kill_at) {
    const std::string file = path("run.ck");
    kill_2k(seed, kill_at, file);
    RunCheckpoint resumed = io::read_checkpoint_file(file);
    return run_checkpointed_2k(resumed, target_.joint, options_, {});
  }

  /// The first half of kill_and_resume_2k: leaves the checkpoint of
  /// boundary `kill_at` in `file`.
  void kill_2k(std::uint64_t seed, std::size_t kill_at,
               const std::string& file) {
    {
      util::Rng rng(seed);
      RunCheckpoint state =
          make_2k_run(start_, options_, /*checkpoint_every=*/300, rng,
                      {.chains = 2});
      util::StopSource stop;
      svc::RunContext ctx;
      ctx.stop = stop.token();
      CheckpointOptions checkpointing;
      std::size_t written = 0;
      checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
        io::write_checkpoint_file(file, snapshot);
        if (++written >= kill_at) stop.request_stop();
      };
      auto partial =
          run_checkpointed_2k(state, target_.joint, options_, checkpointing,
                              ctx);
      EXPECT_TRUE(partial.interrupted);
      EXPECT_EQ(partial.attempts_done, kill_at * 300);
    }
  }

  std::filesystem::path dir_;
  dk::DkDistributions target_;
  Graph start_;
  TargetingOptions options_;
};

TEST_F(CheckpointResumeTest, KillAtFirstBoundaryResumesBitIdentical2K) {
  RunCheckpoint reference_state;
  const auto reference = reference_2k(7, &reference_state);
  const auto resumed = kill_and_resume_2k(7, 1);
  expect_same_edges(reference.graph, resumed.graph);
  expect_same_stats(reference.total_stats, resumed.total_stats);
  EXPECT_EQ(reference.best_chain, resumed.best_chain);
  EXPECT_EQ(reference.best_distance, resumed.best_distance);
  EXPECT_EQ(reference.attempts_done, resumed.attempts_done);
}

TEST_F(CheckpointResumeTest, KillMidRunResumesBitIdentical2K) {
  const auto reference = reference_2k(7, nullptr);
  const auto resumed = kill_and_resume_2k(7, 5);
  expect_same_edges(reference.graph, resumed.graph);
  expect_same_stats(reference.total_stats, resumed.total_stats);
  EXPECT_EQ(reference.best_distance, resumed.best_distance);
}

TEST_F(CheckpointResumeTest, KillAtEveryBoundaryResumesBitIdentical2K) {
  // The contract says ANY boundary; sweep all of them on a small run.
  options_.attempts = 1000;  // 5 legs of 200
  const std::string file = path("sweep.ck");
  util::Rng ref_rng(3);
  RunCheckpoint ref_state =
      make_2k_run(start_, options_, /*checkpoint_every=*/200, ref_rng,
                  {.chains = 2});
  const auto reference =
      run_checkpointed_2k(ref_state, target_.joint, options_, {});

  for (std::size_t kill_at = 1; kill_at <= 4; ++kill_at) {
    util::Rng rng(3);
    RunCheckpoint state =
        make_2k_run(start_, options_, /*checkpoint_every=*/200, rng,
                    {.chains = 2});
    util::StopSource stop;
    svc::RunContext ctx;
    ctx.stop = stop.token();
    CheckpointOptions checkpointing;
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= kill_at) stop.request_stop();
    };
    run_checkpointed_2k(state, target_.joint, options_, checkpointing, ctx);

    RunCheckpoint resumed = io::read_checkpoint_file(file);
    const auto result =
        run_checkpointed_2k(resumed, target_.joint, options_, {});
    expect_same_edges(reference.graph, result.graph);
    expect_same_stats(reference.total_stats, result.total_stats);
  }
}

TEST_F(CheckpointResumeTest, KillAndResumeBitIdentical3K) {
  // 3K: bootstrap a 2K-targeted start the way the pipeline does, then
  // checkpoint the 3K walk.
  util::Rng boot(29);
  const Graph start3 =
      target_2k(start_, target_.joint, options_, boot);

  TargetingOptions options3 = options_;
  options3.attempts = 1500;  // 5 legs of 300
  util::Rng ref_rng(11);
  RunCheckpoint ref_state =
      make_3k_run(start3, options3, /*checkpoint_every=*/300, ref_rng,
                  {.chains = 2});
  const auto reference =
      run_checkpointed_3k(ref_state, target_.three_k, options3, {});

  const std::string file = path("run3.ck");
  {
    util::Rng rng(11);
    RunCheckpoint state =
        make_3k_run(start3, options3, /*checkpoint_every=*/300, rng,
                    {.chains = 2});
    util::StopSource stop;
    svc::RunContext ctx;
    ctx.stop = stop.token();
    CheckpointOptions checkpointing;
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= 2) stop.request_stop();
    };
    auto partial =
        run_checkpointed_3k(state, target_.three_k, options3, checkpointing,
                            ctx);
    EXPECT_TRUE(partial.interrupted);
  }
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  const auto result =
      run_checkpointed_3k(resumed, target_.three_k, options3, {});
  expect_same_edges(reference.graph, result.graph);
  expect_same_stats(reference.total_stats, result.total_stats);
  EXPECT_EQ(reference.best_distance, result.best_distance);
}

TEST_F(CheckpointResumeTest, CarriedEnginesRebuildForANewTarget) {
  // A carried engine's residual r = current − target belongs to the
  // target it was built with: handed another target,
  // run_checkpointed_3k must rebuild the engines, so every chain's D3 is
  // measured against the new one and its residual recounts against it.
  util::Rng boot(29);
  const Graph start3 = target_2k(start_, target_.joint, options_, boot);
  TargetingOptions options3 = options_;
  options3.attempts = 900;  // 3 legs of 300
  options3.stop_distance = -1.0;
  util::Rng rng(11);
  RunCheckpoint state = make_3k_run(start3, options3,
                                    /*checkpoint_every=*/300, rng,
                                    {.chains = 2});
  ChainEngines engines;
  CheckpointOptions one_leg;
  one_leg.max_legs = 1;
  run_checkpointed_3k(state, target_.three_k, options3, one_leg, {},
                      &engines);
  ASSERT_EQ(engines.target, &target_.three_k);
  ASSERT_NE(engines.three_k[0], nullptr);

  // Same JDD, other 3K profile: the start's own.
  const dk::ThreeKProfile other = dk::ThreeKProfile::from_graph(start3);
  run_checkpointed_3k(state, other, options3, one_leg, {}, &engines);
  EXPECT_EQ(engines.target, &other);
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "chain " << i);
    const ChainCheckpoint& chain = state.chains[i];
    EXPECT_EQ(static_cast<double>(chain.distance),
              dk::distance_3k(dk::ThreeKProfile::from_graph(chain.graph),
                              other));
    ASSERT_NE(engines.three_k[i], nullptr);
    EXPECT_EQ(engines.three_k[i]->state().target(), &other);
    EXPECT_NO_THROW(engines.three_k[i]->state().verify_consistency());
  }
}

TEST_F(CheckpointResumeTest, LadderedKillAndResumeBitIdentical2K) {
  // A laddered adaptive mixed-move run killed at a checkpoint boundary
  // (which the ladder guarantees is an epoch boundary) and resumed from
  // the file must replay to the same final state: per-replica edges,
  // stats, temperatures, and the exchange Rng/counters.
  options_.move = MoveKind::mixed;
  LadderOptions ladder;
  ladder.replicas = 3;
  ladder.exchange_every = 300;
  ladder.top_temperature = 50.0;

  util::Rng ref_rng(7);
  RunCheckpoint ref_state = make_2k_ladder_run(start_, options_, ladder,
                                               /*checkpoint_every=*/300,
                                               ref_rng);
  const auto reference =
      run_checkpointed_2k(ref_state, target_.joint, options_, {});

  const std::string file = path("ladder.ck");
  {
    util::Rng rng(7);
    RunCheckpoint state = make_2k_ladder_run(start_, options_, ladder,
                                             /*checkpoint_every=*/300, rng);
    util::StopSource stop;
    svc::RunContext ctx;
    ctx.stop = stop.token();
    CheckpointOptions checkpointing;
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= 3) stop.request_stop();
    };
    auto partial =
        run_checkpointed_2k(state, target_.joint, options_, checkpointing, ctx);
    EXPECT_TRUE(partial.interrupted);
  }
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  EXPECT_TRUE(resumed.laddered());
  EXPECT_EQ(resumed.move, MoveKind::mixed);
  const auto result =
      run_checkpointed_2k(resumed, target_.joint, options_, {});

  expect_same_edges(reference.graph, result.graph);
  expect_same_stats(reference.total_stats, result.total_stats);
  EXPECT_EQ(reference.best_chain, result.best_chain);
  EXPECT_EQ(reference.best_distance, result.best_distance);
  ASSERT_EQ(resumed.chains.size(), ref_state.chains.size());
  for (std::size_t i = 0; i < ref_state.chains.size(); ++i) {
    EXPECT_EQ(resumed.chains[i].temperature, ref_state.chains[i].temperature)
        << i;
    EXPECT_EQ(resumed.chains[i].rng_state, ref_state.chains[i].rng_state) << i;
    expect_same_edges(resumed.chains[i].graph, ref_state.chains[i].graph);
  }
  EXPECT_EQ(resumed.exchange_rng, ref_state.exchange_rng);
  EXPECT_GT(ref_state.exchange_attempted, 0u);
  EXPECT_EQ(resumed.exchange_attempted, ref_state.exchange_attempted);
  EXPECT_EQ(resumed.exchange_accepted, ref_state.exchange_accepted);
}

TEST_F(CheckpointResumeTest, LadderedKillAndResumeBitIdentical3K) {
  // run_checkpointed_3k carries each replica's engine across legs, and an
  // exchange moves the engines with the configurations.  Three runs of
  // the same laddered 3K walk must agree: the uninterrupted one, one
  // killed at a boundary and resumed from the file, and one driven a
  // leg per call with no carried engines (every leg builds its engines
  // from the chains' rows).
  util::Rng boot(29);
  const Graph start3 = target_2k(start_, target_.joint, options_, boot);
  TargetingOptions options3 = options_;
  options3.attempts = 1800;  // 6 legs of 300
  options3.move = MoveKind::mixed;
  options3.stop_distance = -1.0;  // never converged: every leg runs
  // Replicas 0 and 1 start at the same temperature, so their first
  // exchange is always accepted and the engines must move.
  options3.temperature = 5.0;
  LadderOptions ladder;
  ladder.replicas = 3;
  ladder.exchange_every = 300;
  ladder.top_temperature = 50.0;
  const auto make_run = [&] {
    util::Rng rng(7);
    return make_3k_ladder_run(start3, options3, ladder,
                              /*checkpoint_every=*/300, rng);
  };

  RunCheckpoint ref_state = make_run();
  const auto reference =
      run_checkpointed_3k(ref_state, target_.three_k, options3, {});
  EXPECT_GT(ref_state.exchange_accepted, 0u);

  RunCheckpoint stepped = make_run();
  CheckpointOptions one_leg;
  one_leg.max_legs = 1;
  CheckpointedResult by_leg;
  while (!stepped.finished()) {
    by_leg = run_checkpointed_3k(stepped, target_.three_k, options3, one_leg);
  }

  const std::string file = path("ladder3.ck");
  {
    RunCheckpoint state = make_run();
    util::StopSource stop;
    svc::RunContext ctx;
    ctx.stop = stop.token();
    CheckpointOptions checkpointing;
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= 3) stop.request_stop();
    };
    auto partial = run_checkpointed_3k(state, target_.three_k, options3,
                                       checkpointing, ctx);
    EXPECT_TRUE(partial.interrupted);
  }
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  EXPECT_TRUE(resumed.laddered());
  const auto result =
      run_checkpointed_3k(resumed, target_.three_k, options3, {});

  const auto expect_same_result = [&](const CheckpointedResult& other) {
    expect_same_edges(reference.graph, other.graph);
    expect_same_stats(reference.total_stats, other.total_stats);
    EXPECT_EQ(reference.best_chain, other.best_chain);
    EXPECT_EQ(reference.best_distance, other.best_distance);
  };
  const auto expect_same_state = [&](const RunCheckpoint& other) {
    ASSERT_EQ(other.chains.size(), ref_state.chains.size());
    for (std::size_t i = 0; i < ref_state.chains.size(); ++i) {
      EXPECT_EQ(other.chains[i].temperature, ref_state.chains[i].temperature)
          << i;
      EXPECT_EQ(other.chains[i].rng_state, ref_state.chains[i].rng_state)
          << i;
      EXPECT_EQ(other.chains[i].distance, ref_state.chains[i].distance) << i;
      expect_same_edges(other.chains[i].graph, ref_state.chains[i].graph);
    }
    EXPECT_EQ(other.exchange_rng, ref_state.exchange_rng);
    EXPECT_EQ(other.exchange_accepted, ref_state.exchange_accepted);
  };
  expect_same_result(result);
  expect_same_state(resumed);
  expect_same_result(by_leg);
  expect_same_state(stepped);
}

// ---------------------------------------------------------------------------
// Cadence sweep: the cadence is not part of a run (gen/checkpoint.hpp).
// One leg, budget/8 legs, 1024-attempt legs, and a kill at every
// boundary plus a resume from the file on disk all end in the same
// chains: rows, Rng states, distances, stats, temperatures and the
// ladder's exchange state.
// ---------------------------------------------------------------------------

using MakeRun = std::function<RunCheckpoint(std::uint64_t every)>;
using RunLegs = std::function<CheckpointedResult(
    RunCheckpoint&, const CheckpointOptions&, const svc::RunContext&)>;

/// The final state of a fresh run at cadence `every`, killed after its
/// `kill_at`-th checkpoint (0: never) and then resumed from the file.
RunCheckpoint run_at(const MakeRun& make, const RunLegs& run,
                     std::uint64_t every, std::size_t kill_at,
                     const std::string& file) {
  RunCheckpoint state = make(every);
  if (kill_at == 0) {
    run(state, {}, {});
    return state;
  }
  util::StopSource stop;
  svc::RunContext ctx;
  ctx.stop = stop.token();
  CheckpointOptions checkpointing;
  std::size_t written = 0;
  checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
    io::write_checkpoint_file(file, snapshot);
    if (++written >= kill_at) stop.request_stop();
  };
  run(state, checkpointing, ctx);
  EXPECT_EQ(written, kill_at);
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  run(resumed, {}, {});
  return resumed;
}

void expect_same_run(const RunCheckpoint& want, const RunCheckpoint& got) {
  ASSERT_EQ(got.chains.size(), want.chains.size());
  EXPECT_TRUE(got.finished());
  for (std::size_t i = 0; i < want.chains.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "chain " << i);
    const ChainCheckpoint& a = want.chains[i];
    const ChainCheckpoint& b = got.chains[i];
    EXPECT_EQ(a.attempts_done, b.attempts_done);
    EXPECT_EQ(a.rng_state, b.rng_state);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.temperature, b.temperature);
    expect_same_stats(a.stats, b.stats);
    expect_same_edges(a.graph, b.graph);
  }
  EXPECT_EQ(want.exchange_rng, got.exchange_rng);
  EXPECT_EQ(want.exchange_attempted, got.exchange_attempted);
  EXPECT_EQ(want.exchange_accepted, got.exchange_accepted);
}

/// One leg against budget/8 legs, `every` legs, and a kill plus resume
/// at every budget/8 boundary.
void expect_cadence_free(const MakeRun& make, const RunLegs& run,
                         std::uint64_t budget, std::uint64_t every,
                         const std::string& file) {
  const RunCheckpoint one_leg = run_at(make, run, budget, 0, file);
  for (const std::uint64_t cadence : {budget / 8, every}) {
    SCOPED_TRACE(testing::Message() << "every " << cadence);
    expect_same_run(one_leg, run_at(make, run, cadence, 0, file));
  }
  for (std::size_t kill_at = 1; kill_at <= 8; ++kill_at) {
    SCOPED_TRACE(testing::Message() << "killed at boundary " << kill_at);
    expect_same_run(one_leg, run_at(make, run, budget / 8, kill_at, file));
  }
}

TEST_F(CheckpointResumeTest, CadenceSweep2K) {
  options_.attempts = 6000;
  options_.stop_distance = -1.0;  // every leg runs, also after D2 = 0
  options_.move = MoveKind::mixed;
  expect_cadence_free(
      [&](std::uint64_t every) {
        util::Rng rng(3);
        return make_2k_run(start_, options_, every, rng, {.chains = 2});
      },
      [&](RunCheckpoint& state, const CheckpointOptions& checkpointing,
          const svc::RunContext& ctx) {
        return run_checkpointed_2k(state, target_.joint, options_,
                                   checkpointing, ctx);
      },
      6000, 1024, path("sweep2.ck"));
}

TEST_F(CheckpointResumeTest, CadenceSweep3K) {
  util::Rng boot(29);
  const Graph start3 = target_2k(start_, target_.joint, options_, boot);
  TargetingOptions options3 = options_;
  options3.attempts = 6000;
  options3.stop_distance = -1.0;
  options3.temperature = 2.0;
  expect_cadence_free(
      [&](std::uint64_t every) {
        util::Rng rng(11);
        return make_3k_run(start3, options3, every, rng, {.chains = 2});
      },
      [&](RunCheckpoint& state, const CheckpointOptions& checkpointing,
          const svc::RunContext& ctx) {
        return run_checkpointed_3k(state, target_.three_k, options3,
                                   checkpointing, ctx);
      },
      6000, 1024, path("sweep3.ck"));
}

TEST_F(CheckpointResumeTest, CadenceSweepLadderedMixedMove) {
  // Exchanges happen on the 256-attempt epoch grid whatever the
  // cadence; every cadence below is a multiple of it.
  options_.attempts = 6144;
  options_.stop_distance = -1.0;
  options_.move = MoveKind::mixed;
  options_.temperature = 5.0;
  LadderOptions ladder;
  ladder.replicas = 3;
  ladder.exchange_every = 256;
  ladder.top_temperature = 50.0;
  ladder.adaptive = true;
  util::Rng boot(29);
  const Graph start3 = target_2k(start_, target_.joint, options_, boot);
  SCOPED_TRACE("2K stage");
  expect_cadence_free(
      [&](std::uint64_t every) {
        util::Rng rng(7);
        return make_2k_ladder_run(start_, options_, ladder, every, rng);
      },
      [&](RunCheckpoint& state, const CheckpointOptions& checkpointing,
          const svc::RunContext& ctx) {
        return run_checkpointed_2k(state, target_.joint, options_,
                                   checkpointing, ctx);
      },
      6144, 1024, path("sweepl2.ck"));
  SCOPED_TRACE("3K stage");
  expect_cadence_free(
      [&](std::uint64_t every) {
        util::Rng rng(8);
        RunCheckpoint state =
            make_3k_ladder_run(start3, options_, ladder, every, rng);
        EXPECT_EQ(state.exchange_every, 256u);
        return state;
      },
      [&](RunCheckpoint& state, const CheckpointOptions& checkpointing,
          const svc::RunContext& ctx) {
        const auto result = run_checkpointed_3k(
            state, target_.three_k, options_, checkpointing, ctx);
        EXPECT_GT(state.exchange_attempted, 0u);
        return result;
      },
      6144, 1024, path("sweepl3.ck"));
}

TEST_F(CheckpointResumeTest, CadenceSweepPipelineD3) {
  // A d = 3 Pipeline with independent chains: one leg per stage, the
  // default budget/8 legs and 1024-attempt legs, and a kill at every
  // boundary of both stages resumed from the file (at yet another
  // cadence: a resume may change it).
  PipelineOptions options;
  options.d = 3;
  options.targeting.attempts = 6000;
  options.targeting.stop_distance = -1.0;
  const svc::RunContext chains{.chains = 2};
  const auto run_with = [&](std::uint64_t every) {
    PipelineOptions at = options;
    at.checkpoint_every = every;
    Pipeline pipeline(target_, at, util::Rng(19), chains);
    EXPECT_TRUE(pipeline.run({}));
    return pipeline;
  };
  const auto expect_same_pipeline = [](const Pipeline& want,
                                       const Pipeline& got) {
    expect_same_run(want.checkpoint(), got.checkpoint());
    ASSERT_EQ(got.stages().size(), want.stages().size());
    for (std::size_t i = 0; i < want.stages().size(); ++i) {
      const CheckpointedResult& a = want.stages()[i].result;
      const CheckpointedResult& b = got.stages()[i].result;
      expect_same_stats(a.total_stats, b.total_stats);
      EXPECT_EQ(a.best_chain, b.best_chain);
      EXPECT_EQ(a.best_distance, b.best_distance);
    }
    expect_same_edges(want.graph(), got.graph());
  };

  const Pipeline one_leg = run_with(6000);
  ASSERT_EQ(one_leg.stages().size(), 2u);
  for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{1024}}) {
    SCOPED_TRACE(testing::Message() << "every " << every);
    expect_same_pipeline(one_leg, run_with(every));
  }

  const std::string file = path("sweepp.ck");
  for (std::size_t kill_at = 1; kill_at < 16; ++kill_at) {
    SCOPED_TRACE(testing::Message() << "killed at boundary " << kill_at);
    {
      util::StopSource stop;
      svc::RunContext ctx = chains;
      ctx.stop = stop.token();
      Pipeline first(target_, options, util::Rng(19), ctx);
      CheckpointOptions checkpointing;
      std::size_t written = 0;
      checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
        io::write_checkpoint_file(file, snapshot);
        if (++written >= kill_at) stop.request_stop();
      };
      EXPECT_FALSE(first.run(checkpointing));
    }
    PipelineOptions recut = options;
    recut.checkpoint_every = 1024;
    Pipeline resumed(target_, recut, io::read_checkpoint_file(file));
    ASSERT_TRUE(resumed.run({}));
    EXPECT_EQ(resumed.checkpoint().checkpoint_every, 1024u);
    expect_same_run(one_leg.checkpoint(), resumed.checkpoint());
    expect_same_edges(one_leg.graph(), resumed.graph());
    const CheckpointedResult& want = one_leg.stages().back().result;
    const CheckpointedResult& got = resumed.stages().back().result;
    expect_same_stats(want.total_stats, got.total_stats);
    EXPECT_EQ(want.best_chain, got.best_chain);
  }
}

/// Requests a stop from inside a chain once armed: the next progress
/// report lands mid-leg, so the leg is cut short and discarded.
class StopMidLeg : public obs::ProgressSink {
 public:
  explicit StopMidLeg(util::StopSource& stop) : stop_(stop) {}
  void report(std::uint32_t, const obs::ProgressSample&) override {
    if (armed.load()) stop_.request_stop();
  }
  std::atomic<bool> armed{false};

 private:
  util::StopSource& stop_;
};

TEST_F(CheckpointResumeTest, PipelineStoppedMidLegContinuesBitIdentical) {
  // A stop inside a 3K leg reverts the chains to the last boundary and
  // must drop the engines the pipeline carries, which already hold part
  // of the discarded leg.  Continuing the same Pipeline must then end
  // where an uninterrupted run does.
  PipelineOptions options;
  options.d = 3;
  options.targeting.attempts = 9000;  // 3 legs of 3000 per stage
  options.targeting.stop_distance = -1.0;  // every leg runs
  options.checkpoint_every = 3000;
  svc::RunContext chains;
  chains.chains = 2;

  Pipeline reference(target_, options, util::Rng(23), chains);
  ASSERT_TRUE(reference.run({}));

  util::StopSource stop;
  StopMidLeg sink(stop);
  svc::RunContext ctx = chains;
  ctx.stop = stop.token();
  ctx.progress = &sink;
  Pipeline pipeline(target_, options, util::Rng(23), ctx);
  CheckpointOptions checkpointing;
  // Arm after the first 3K leg: the second one is stopped 1024 attempts
  // in, at the chains' next stop poll.
  checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
    if (snapshot.d == 3 && snapshot.chains[0].attempts_done == 3000) {
      sink.armed = true;
    }
  };
  EXPECT_FALSE(pipeline.run(checkpointing));
  EXPECT_TRUE(pipeline.result().interrupted);
  EXPECT_EQ(pipeline.checkpoint().d, 3);
  EXPECT_EQ(pipeline.checkpoint().chains[0].attempts_done, 3000u);

  sink.armed = false;
  stop.reset();
  ASSERT_TRUE(pipeline.run({}));
  expect_same_edges(reference.graph(), pipeline.graph());
  const PipelineStage& want = reference.stages().back();
  const PipelineStage& got = pipeline.stages().back();
  EXPECT_EQ(got.d, 3);
  expect_same_stats(want.result.total_stats, got.result.total_stats);
  EXPECT_EQ(want.result.best_chain, got.result.best_chain);
  EXPECT_EQ(want.result.best_distance, got.result.best_distance);
}

TEST_F(CheckpointResumeTest, CheckpointFileRoundTripsExactly) {
  util::Rng rng(5);
  RunCheckpoint state =
      make_2k_run(start_, options_, /*checkpoint_every=*/500, rng,
                  {.chains = 3});
  // Advance one leg so stats/distance are non-trivial.
  util::StopSource stop;
  svc::RunContext ctx;
  ctx.stop = stop.token();
  CheckpointOptions checkpointing;
  checkpointing.on_checkpoint = [&](const RunCheckpoint&) {
    stop.request_stop();
  };
  run_checkpointed_2k(state, target_.joint, options_, checkpointing, ctx);

  const std::string file = path("roundtrip.ck");
  io::write_checkpoint_file(file, state);
  const RunCheckpoint loaded = io::read_checkpoint_file(file);

  EXPECT_EQ(loaded.d, state.d);
  EXPECT_EQ(loaded.final_d, state.final_d);
  EXPECT_EQ(loaded.pipeline_rng, state.pipeline_rng);
  EXPECT_EQ(loaded.budget, state.budget);
  EXPECT_EQ(loaded.checkpoint_every, state.checkpoint_every);
  ASSERT_EQ(loaded.chains.size(), state.chains.size());
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    EXPECT_EQ(loaded.chains[i].attempts_done, state.chains[i].attempts_done);
    EXPECT_EQ(loaded.chains[i].rng_state, state.chains[i].rng_state);
    EXPECT_EQ(loaded.chains[i].distance, state.chains[i].distance);
    expect_same_stats(loaded.chains[i].stats, state.chains[i].stats);
    expect_same_edges(loaded.chains[i].graph, state.chains[i].graph);
  }
}

TEST_F(CheckpointResumeTest, TruncatedCheckpointIsAParseErrorNotAResume) {
  util::Rng rng(5);
  RunCheckpoint state = make_2k_run(start_, options_, 500, rng, {.chains = 2});
  const std::string file = path("torn.ck");
  io::write_checkpoint_file(file, state);

  // Cut the file mid-structure, as a crashed non-atomic writer would.
  std::string content;
  {
    std::ifstream in(file, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      << content.substr(0, content.rfind('\n', content.size() / 2) + 1);

  try {
    io::read_checkpoint_file(file);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected end of file"),
              std::string::npos)
        << e.what();
  }
}

/// A v5 file up to its first chain's `graph` record: kHead is lines 1-8
/// and kChain lines 9-15, so `graph` is line 16.
const std::string kHead =
    "# orbis checkpoint v5\nd 2\nfinal_d 2\npipeline_rng 0 0 0 0\n"
    "budget 10\nevery 5\nmove swap\nladder 0 0\n";
const std::string kChain =
    "chains 1\nchain 0\nattempts 5\nrng 1 2 3 4\ntemperature_bits 0\n"
    "stats 0 0 0 0 0\ndistance 0\n";
const std::string kTail = "end chain\nend checkpoint\n";

TEST_F(CheckpointResumeTest, CorruptCheckpointFieldsAreRejectedWithLine) {
  const auto reject = [&](const std::string& content) {
    const std::string file = path("corrupt.ck");
    std::ofstream(file, std::ios::trunc) << content;
    EXPECT_THROW(io::read_checkpoint_file(file), ParseError) << content;
  };
  // The well-formed file these variations start from reads.
  {
    const std::string file = path("good.ck");
    std::ofstream(file, std::ios::trunc)
        << kHead << kChain << "graph 2 1\n1\n0\n" << kTail;
    const RunCheckpoint good = io::read_checkpoint_file(file);
    EXPECT_EQ(good.chains[0].graph.num_edges(), 1u);
  }
  reject("not a checkpoint\n");
  reject("# orbis checkpoint v5\nd 5\n");             // bad series level
  reject("# orbis checkpoint v5\nd 2\nfinal_d 2\npipeline_rng 0 0 0 0\n"
         "budget x\n");                                // non-numeric field
  reject("# orbis checkpoint v5\nd 3\nfinal_d 2\n");  // final_d below d
  reject("# orbis checkpoint v5\nd 2\nfinal_d 3\n"
         "pipeline_rng 0 0 0 0\n");  // next stage has nothing to draw from
  reject(kHead + "chains 0\n");                        // zero chains
  std::string chain = kChain;
  chain.replace(chain.find("attempts 5"), 10, "attempts 99");
  reject(kHead + chain + "graph 1 0\n\n" + kTail);     // attempts > budget
  chain = kChain;
  chain.replace(chain.find("rng 1 2 3 4"), 11, "rng 0 0 0 0");
  reject(kHead + chain + "graph 1 0\n\n" + kTail);     // all-zero rng
  chain = kChain;
  chain.replace(chain.find("stats 0 0 0 0 0"), 15, "stats 0 0 0 0 0 0");
  reject(kHead + chain + "graph 1 0\n\n" + kTail);     // retired 6th slot
  reject(kHead + kChain + "graph 1 0\n\n" + kTail + "trailing\n");
}

// Checkpoints resume runs in flight; they are not archives.  A file of
// an older format is rejected with a ParseError that names its version,
// whatever it holds.
TEST_F(CheckpointResumeTest, OlderCheckpointVersionsAreRejectedByName) {
  const std::string file = path("old.ck");
  for (const char* version : {"1", "2", "3", "4"}) {
    std::ofstream(file, std::ios::trunc)
        << "# orbis checkpoint v" << version
        << "\nd 3\nbudget 10\nevery 5\nbackend sparse\nchains 1\n";
    try {
      io::read_checkpoint_file(file);
      FAIL() << "expected ParseError for v" << version;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("line 1: checkpoint version v") +
                          version + " is not supported"),
                std::string::npos)
          << what;
    }
  }
}

// The counts in a file never size memory: chains and rows are appended
// as they are parsed, so an absurd count is a torn file (ParseError),
// never an allocation.  Row defects name the line of the row.
TEST_F(CheckpointResumeTest, HostileCountsAreParseErrorsNotAllocations) {
  const auto expect_parse_error = [&](const std::string& content,
                                      const std::string& needle) {
    const std::string file = path("hostile.ck");
    std::ofstream(file, std::ios::trunc) << content;
    try {
      io::read_checkpoint_file(file);
      FAIL() << "expected ParseError for: " << content;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_parse_error(kHead + "chains 4611686018427387904\n",
                     "unexpected end of file");
  expect_parse_error(kHead + kChain + "graph 4294967295 0\n",
                     "line 16: unexpected end of file (expected adjacency");
  expect_parse_error(kHead + kChain + "graph 4294967296 0\n",
                     "line 16: node count out of range");
  expect_parse_error(kHead + kChain + "graph 3 1000000000000000\n1\n0\n",
                     "line 16: edge count out of range");
  expect_parse_error(kHead + kChain + "graph 100000 1000000000\n1\n0\n",
                     "line 18: unexpected end of file");
  // Line 16 is the graph record; node v's row is line 17 + v.
  expect_parse_error(kHead + kChain + "graph 2 1\n5\n0\n" + kTail,
                     "line 17: neighbor id out of range");
  expect_parse_error(kHead + kChain + "graph 2 1\n0\n1\n" + kTail,
                     "line 17: row of node 0: self-loop");
  expect_parse_error(kHead + kChain + "graph 3 2\n1 1\n0 0\n\n" + kTail,
                     "line 17: row of node 0: neighbor listed twice");
  expect_parse_error(kHead + kChain + "graph 3 2\n1 2\n0 0\n\n" + kTail,
                     "line 18: row of node 1: neighbor listed twice");
  expect_parse_error(kHead + kChain + "graph 3 1\n1\n2\n\n" + kTail,
                     "line 17: row of node 0: lists a neighbor whose row");
  expect_parse_error(kHead + kChain + "graph 3 2\n1\n0\n\n" + kTail,
                     "line 16: rows hold 2 cells, not the 2M = 4");
  expect_parse_error(kHead + kChain + "graph 3 0\n1\n0\n\n" + kTail,
                     "line 17: rows hold more than the 2M = 0");
  expect_parse_error(kHead + kChain + "graph 2 1\nx\n0\n" + kTail,
                     "line 17: expected neighbor ids");
  expect_parse_error(kHead + kChain + "graph 2 1\n1\n0\nend chain\n",
                     "line 19: unexpected end of file (expected end "
                     "checkpoint");
}

// The pipeline's checkpoint covers every stage: a d = 3 run killed at ANY
// boundary — inside its 2K stage, on the stage boundary, inside its 3K
// stage — and resumed from the file on disk ends bit-identical to the
// uninterrupted run.
TEST_F(CheckpointResumeTest, PipelineKillAtEveryBoundaryResumesBitIdentical) {
  PipelineOptions options;
  options.d = 3;
  svc::RunContext chains;
  chains.chains = 2;
  options.targeting.attempts = 800;  // 4 legs of 200 per stage
  options.checkpoint_every = 200;

  Pipeline reference(target_, options, util::Rng(19), chains);
  ASSERT_TRUE(reference.run({}));
  ASSERT_EQ(reference.stages().size(), 2u);

  const std::string file = path("pipeline.ck");
  for (std::size_t kill_at = 1; kill_at < 8; ++kill_at) {
    {
      util::StopSource stop;
      svc::RunContext ctx = chains;
      ctx.stop = stop.token();
      Pipeline first(target_, options, util::Rng(19), ctx);
      CheckpointOptions checkpointing;
      std::size_t written = 0;
      checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
        io::write_checkpoint_file(file, snapshot);
        if (++written >= kill_at) stop.request_stop();
      };
      EXPECT_FALSE(first.run(checkpointing));
    }
    const RunCheckpoint on_disk = io::read_checkpoint_file(file);
    EXPECT_EQ(on_disk.d, kill_at <= 4 ? 2 : 3) << kill_at;
    EXPECT_EQ(on_disk.final_d, 3);

    Pipeline resumed(target_, options, on_disk);
    ASSERT_TRUE(resumed.run({})) << kill_at;
    expect_same_edges(reference.graph(), resumed.graph());
    const PipelineStage& want = reference.stages().back();
    const PipelineStage& got = resumed.stages().back();
    EXPECT_EQ(got.d, 3);
    expect_same_stats(want.result.total_stats, got.result.total_stats);
    EXPECT_EQ(want.result.best_chain, got.result.best_chain);
    EXPECT_EQ(want.result.best_distance, got.result.best_distance);
  }
}

TEST_F(CheckpointResumeTest, PipelineRejectsACheckpointForAnotherD) {
  PipelineOptions options;
  options.d = 2;
  options.targeting.attempts = 400;
  Pipeline fresh(target_, options, util::Rng(3), {.chains = 1});
  options.d = 3;
  EXPECT_THROW(Pipeline(target_, options, fresh.checkpoint()),
               std::invalid_argument);
}

TEST_F(CheckpointResumeTest, ResumingAFinishedRunJustReturnsTheResult) {
  util::Rng rng(13);
  options_.attempts = 600;
  RunCheckpoint state = make_2k_run(start_, options_, 300, rng, {.chains = 2});
  const auto first = run_checkpointed_2k(state, target_.joint, options_, {});
  EXPECT_TRUE(state.finished());

  const std::string file = path("done.ck");
  io::write_checkpoint_file(file, state);
  RunCheckpoint reloaded = io::read_checkpoint_file(file);
  const auto again =
      run_checkpointed_2k(reloaded, target_.joint, options_, {});
  EXPECT_FALSE(again.interrupted);
  expect_same_edges(first.graph, again.graph);
}

}  // namespace
}  // namespace orbis::gen
