// Durable (de)serialization of gen::RunCheckpoint (docs/robustness.md).
//
// Versioned text format, one logical field per line:
//
//   # orbis checkpoint v4
//   d 2                                 (current stage)
//   final_d 3                           (v3+: the run's final d)
//   pipeline_rng <w0> <w1> <w2> <w3>    (v3+: gen::Pipeline seeding Rng)
//   budget 1000000
//   every 50000
//   move swap                           (v2+)
//   ladder <exchange_every> <adaptive>  (v2+; laddered runs add the
//                                        exchange_rng/exchanges records)
//   chains 2
//   chain 0
//   attempts 50000
//   rng <w0> <w1> <w2> <w3>
//   temperature_bits <bits>             (v2+)
//   stats <attempts> <accepted> <rej_structural> <rej_constraint>
//         <rej_objective> 0                           (one line; the
//                                                      last slot is retired)
//   distance 42
//   graph <nodes> <edges>
//   <u> <v>                                           (edges lines)
//   end chain
//   ...
//   end checkpoint
//
// Writes go through io::AtomicFileWriter, so the checkpoint path always
// holds either the previous complete checkpoint or the new one — a kill
// mid-write can never produce a half-checkpoint for resume to trip on.
//
// v1 to v3 files stay readable.  v1 and v2 files are final-stage
// checkpoints.  v1 to v3 carry a `backend <word>` record after `every`;
// the word must be auto, automatic, dense or sparse, and is then
// dropped.
// Reads are strict: any structural deviation — wrong version, missing
// field, trailing garbage, out-of-range node, duplicate edge, all-zero
// Rng state, chains out of step — throws orbis::ParseError naming the
// file and line; open/read failures throw orbis::IoError.  A parse
// never returns a partially-filled checkpoint.
#pragma once

#include <string>

#include "gen/checkpoint.hpp"

namespace orbis::io {

/// Atomically writes `state` to `path`.  Throws orbis::IoError on any
/// I/O failure (temp create, write, fsync, rename), leaving `path`
/// untouched.
void write_checkpoint_file(const std::string& path,
                           const gen::RunCheckpoint& state);

/// Parses a checkpoint written by write_checkpoint_file.  Throws
/// orbis::IoError / orbis::ParseError as described above.
gen::RunCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace orbis::io
