// The checkpoint/resume determinism contract (gen/checkpoint.hpp):
// killing a run at ANY checkpoint boundary and resuming from the file
// on disk produces the SAME final graph, distance and stats as the
// uninterrupted run — bit-identical, for both 2K and 3K targeting —
// plus the strict checkpoint-file parser.
#include "gen/checkpoint.hpp"

#include "gen/anneal.hpp"
#include "gen/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
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

void expect_same_edges(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto& ea = a.edges();
  const auto& eb = b.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u) << "edge slot " << i;
    EXPECT_EQ(ea[i].v, eb[i].v) << "edge slot " << i;
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
  ThreeKEngines engines;
  CheckpointOptions one_leg;
  one_leg.max_legs = 1;
  run_checkpointed_3k(state, target_.three_k, options3, one_leg, {},
                      &engines);
  ASSERT_EQ(engines.target, &target_.three_k);
  ASSERT_NE(engines.engines[0], nullptr);

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
    ASSERT_NE(engines.engines[i], nullptr);
    EXPECT_EQ(engines.engines[i]->state().target(), &other);
    EXPECT_NO_THROW(engines.engines[i]->state().verify_consistency());
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
  // from the canonical edge lists).
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

TEST_F(CheckpointResumeTest, CorruptCheckpointFieldsAreRejectedWithLine) {
  const auto reject = [&](const std::string& content) {
    const std::string file = path("corrupt.ck");
    std::ofstream(file, std::ios::trunc) << content;
    EXPECT_THROW(io::read_checkpoint_file(file), ParseError) << content;
  };
  reject("not a checkpoint\n");
  reject("# orbis checkpoint v1\nd 5\n");           // bad series level
  reject("# orbis checkpoint v1\nd 2\nbudget x\n"); // non-numeric field
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend warp\n");                         // unknown backend
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 0\n");              // zero chains
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 99\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\n"); // attempts > budget
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 0 0 0 0\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\n"); // all-zero rng
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 2 1\n0 0\nend chain\nend checkpoint\n");  // self-loop
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\ntrailing\n");  // garbage
  reject("# orbis checkpoint v3\nd 3\nfinal_d 2\n");  // final_d below d
  reject("# orbis checkpoint v3\nd 2\nfinal_d 3\n"
         "pipeline_rng 0 0 0 0\n");  // next stage has nothing to draw from
  reject("# orbis checkpoint v2\nd 2\nfinal_d 3\n");  // v3 record in v2
}

// The counts in a file never size memory: chains and edges are appended
// as they are parsed, so an absurd count is a torn file (ParseError),
// never an allocation failure.
TEST_F(CheckpointResumeTest, HostileCountsAreParseErrorsNotAllocations) {
  const std::string head =
      "# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\nbackend dense\n";
  const std::string chain =
      "chains 1\nchain 0\nattempts 5\nrng 1 2 3 4\nstats 0 0 0 0 0 0\n"
      "distance 0\n";
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
  expect_parse_error(head + "chains 4611686018427387904\n",
                     "unexpected end of file");
  expect_parse_error(head + chain + "graph 3 1000000000000000\n0 1\n",
                     "unexpected end of file");
  // A duplicate edge names its own line (line 14: the reverse of 0 1).
  expect_parse_error(head + chain +
                         "graph 3 2\n0 1\n1 0\nend chain\nend checkpoint\n",
                     "line 14: duplicate edge");
}

// v4 dropped the `backend` record.  Both storages a v3 file could name
// walked bit-identical chains, so a v3 file resumes exactly like the
// same run saved as v4, whichever backend it names.
TEST_F(CheckpointResumeTest, V3FilesOfEitherBackendResumeLikeV4) {
  const auto reference = reference_2k(7, nullptr);
  const std::string file = path("run.ck");
  kill_2k(7, 3, file);
  std::string v4;
  {
    std::ifstream in(file, std::ios::binary);
    v4.assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  }
  ASSERT_TRUE(v4.starts_with("# orbis checkpoint v4\n"));
  EXPECT_EQ(v4.find("backend"), std::string::npos);
  const std::size_t after_every = v4.find("\nevery 300\n");
  ASSERT_NE(after_every, std::string::npos);

  const auto v3_with = [&](const std::string& backend) {
    std::string v3 = v4;
    v3.insert(after_every + std::string("\nevery 300\n").size(),
              "backend " + backend + "\n");
    v3[std::string("# orbis checkpoint v").size()] = '3';
    return v3;
  };
  for (const std::string& content :
       {v4, v3_with("dense"), v3_with("sparse")}) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << content;
    RunCheckpoint resumed = io::read_checkpoint_file(file);
    const auto result =
        run_checkpointed_2k(resumed, target_.joint, options_, {});
    expect_same_edges(reference.graph, result.graph);
    expect_same_stats(reference.total_stats, result.total_stats);
    EXPECT_EQ(reference.best_chain, result.best_chain);
    EXPECT_EQ(reference.best_distance, result.best_distance);
  }

  // A v3 backend word is still validated, and v4 has no such record.
  std::string v4_with_backend = v3_with("dense");
  v4_with_backend[std::string("# orbis checkpoint v").size()] = '4';
  for (const std::string& content : {v3_with("warp"), v4_with_backend}) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << content;
    EXPECT_THROW(io::read_checkpoint_file(file), ParseError) << content;
  }
}

TEST_F(CheckpointResumeTest, V1AndV2FilesStillReadAsFinalStageCheckpoints) {
  // v1 has no move/ladder records (a swap-only, non-laddered run); both
  // carry the backend word v4 dropped.
  const std::string file = path("old.ck");
  const std::string v1 =
      "# orbis checkpoint v1\nd 3\nbudget 10\nevery 5\n"
      "backend sparse\nchains 1\nchain 0\nattempts 5\nrng 1 2 3 4\n"
      "stats 5 1 1 1 2 0\ndistance 7\ngraph 3 1\n0 1\nend chain\n"
      "end checkpoint\n";
  const std::string v2 =
      "# orbis checkpoint v2\nd 3\nbudget 10\nevery 5\n"
      "backend automatic\nmove swap\nladder 0 0\nchains 1\nchain 0\n"
      "attempts 5\nrng 1 2 3 4\ntemperature_bits 0\n"
      "stats 5 1 1 1 2 0\ndistance 7\ngraph 3 1\n0 1\nend chain\n"
      "end checkpoint\n";
  for (const std::string& content : {v1, v2}) {
    std::ofstream(file, std::ios::trunc) << content;
    const RunCheckpoint loaded = io::read_checkpoint_file(file);
    EXPECT_EQ(loaded.d, 3);
    EXPECT_EQ(loaded.final_d, 3);
    EXPECT_EQ(loaded.move, MoveKind::swap);
    EXPECT_FALSE(loaded.laddered());
    EXPECT_EQ(loaded.chains[0].distance, 7);
  }
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
