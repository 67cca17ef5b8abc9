#include "gen/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "gen/matching.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// `move` is the run's resolved value: from the options on a fresh run,
/// from the checkpoint on a resume.
void validate(const PipelineOptions& options, const svc::RunContext& ctx,
              MoveKind move) {
  const LadderOptions& ladder = options.ladder;
  util::expects(options.d == 2 || options.d == 3,
                "Pipeline: d must be 2 or 3");
  // Every run starts with a 2K stage, whatever d.
  expect_2k_targeting_move(move, "Pipeline");
  check_chain_count(ctx.chains, "Pipeline: chains");
  check_chain_count(ladder.replicas, "Pipeline: ladder replicas");
  util::expects(ladder.replicas != 1,
                "Pipeline: a replica ladder needs at least 2 replicas");
  util::expects(ladder.replicas == 0 || ctx.chains == 0,
                "Pipeline: a ladder and an explicit chain count are "
                "mutually exclusive (the ladder size is the chain count)");
  util::expects(ladder.exchange_every == 0 || ladder.replicas >= 2,
                "Pipeline: an exchange epoch requires a replica ladder");
}

}  // namespace

Pipeline::Pipeline(const dk::DkDistributions& target, PipelineOptions options,
                   util::Rng rng, const svc::RunContext& ctx)
    : target_(target), options_(std::move(options)), ctx_(ctx) {
  const bool laddered = options_.ladder.replicas >= 2;
  validate(options_, ctx_, options_.targeting.move);
  // The explicit 1K still knows about degree-0 nodes, which the JDD
  // projection cannot see.
  const dk::DegreeDistribution& one_k = target.degree.num_nodes() > 0
                                            ? target.degree
                                            : target.joint.project_to_1k();
  // The budget is checked before the seed is paid for: m = Σ k·n_k / 2
  // is the seed's edge count on every realizable target.
  const TargetingOptions& targeting = options_.targeting;
  const std::uint64_t budget = attempt_budget(
      targeting.attempts, targeting.attempts_per_edge, one_k.num_stubs() / 2);
  Graph start;
  {
    const obs::Span span("generate.seed_1k");
    start = matching_1k(one_k, rng);
  }
  const std::uint64_t every = options_.checkpoint_every > 0
                                  ? options_.checkpoint_every
                                  : std::max<std::uint64_t>(budget / 8, 1);
  run_ = laddered ? make_2k_ladder_run(start, targeting, options_.ladder,
                                       every, rng, ctx_)
                  : make_2k_run(start, targeting, every, rng, ctx_);
  run_.final_d = options_.d;
  run_.pipeline_rng = rng.state_words();
}

Pipeline::Pipeline(const dk::DkDistributions& target, PipelineOptions options,
                   RunCheckpoint checkpoint, const svc::RunContext& ctx)
    : target_(target),
      options_(std::move(options)),
      ctx_(ctx),
      run_(std::move(checkpoint)) {
  util::expects(run_.final_d == options_.d,
                "Pipeline: the checkpoint is for a d=" +
                    std::to_string(run_.final_d) + " run, not d=" +
                    std::to_string(options_.d));
  validate(options_, ctx_, run_.move);
  // Cadence is only how often the state is published, so the caller's
  // replaces the file's (snapped onto a ladder's epoch grid).
  if (options_.checkpoint_every > 0) {
    run_.checkpoint_every =
        snap_to_epoch_grid(options_.checkpoint_every, run_.exchange_every);
  }
}

bool Pipeline::step(const CheckpointOptions& checkpointing) {
  if (finished()) return true;
  CheckpointOptions one_leg = checkpointing;
  one_leg.max_legs = 1;
  advance(one_leg);
  return finished();
}

bool Pipeline::run(const CheckpointOptions& checkpointing) {
  while (!finished()) {
    advance(checkpointing);
    if (last_.interrupted) break;
  }
  return finished();
}

void Pipeline::advance(const CheckpointOptions& checkpointing) {
  const auto start = std::chrono::steady_clock::now();
  {
    const obs::Span span(run_.d == 2 ? "generate.target_2k"
                                     : "generate.target_3k");
    last_ = run_.d == 2
                ? run_checkpointed_2k(run_, target_.joint, options_.targeting,
                                      checkpointing, ctx_, &engines_)
                : run_checkpointed_3k(run_, target_.three_k,
                                      options_.targeting, checkpointing, ctx_,
                                      &engines_);
  }
  last_.graph = Graph();  // a copy of one the checkpoint already holds
  stage_seconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!run_.finished()) return;
  stages_.push_back({run_.d, run_.chains.size(), stage_seconds_, last_});
  stage_seconds_ = 0.0;
  if (run_.d == run_.final_d) return;

  // The 3K stage: the seeding Rng's next draw is its chain master, the
  // 2K stage's best chain its start graph, and everything else that
  // defines the run comes from the finished 2K checkpoint.
  util::Rng rng = this->rng();
  TargetingOptions targeting = options_.targeting;
  targeting.attempts = run_.budget;  // same graph size, same budget
  targeting.move = run_.move;
  RunCheckpoint next;
  if (run_.laddered()) {
    LadderOptions ladder = options_.ladder;
    ladder.replicas = run_.chains.size();
    ladder.exchange_every = run_.exchange_every;
    ladder.adaptive = run_.adaptive;
    next = make_3k_ladder_run(graph(), targeting, ladder,
                              run_.checkpoint_every, rng, ctx_);
  } else {
    svc::RunContext stage_ctx = ctx_;
    stage_ctx.chains = run_.chains.size();
    next = make_3k_run(graph(), targeting, run_.checkpoint_every, rng,
                       stage_ctx);
  }
  next.final_d = run_.final_d;
  next.pipeline_rng = rng.state_words();
  run_ = std::move(next);
}

}  // namespace orbis::gen
