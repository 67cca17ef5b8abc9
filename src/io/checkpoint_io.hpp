// Durable (de)serialization of gen::RunCheckpoint (docs/robustness.md).
//
// Versioned text format, one logical field per line:
//
//   # orbis checkpoint v6
//   d 2                                 (current stage)
//   final_d 3                           (the run's final d)
//   pipeline_rng <w0> <w1> <w2> <w3>    (gen::Pipeline seeding Rng)
//   budget 1000000
//   every 50000
//   move swap
//   chains 2
//   chain 0
//   attempts 50000
//   rng <w0> <w1> <w2> <w3>
//   stats <attempts> <accepted> <rej_structural> <rej_constraint>
//         <rej_objective>                             (one line)
//   distance 42
//   graph <nodes N> <edges M>
//   <neighbor> <neighbor> ...                         (N row lines: node
//                                                      v's adjacency row,
//                                                      in row order; an
//                                                      isolated node's
//                                                      line is empty)
//   end chain
//   ...
//   end checkpoint
//
// The rows are the chain's canonical form (gen/checkpoint.hpp): they
// are stored in order, and a resume rebuilds its engines from them.
//
// Writes go through io::AtomicFileWriter, so the checkpoint path always
// holds either the previous complete checkpoint or the new one — a kill
// mid-write can never produce a half-checkpoint for resume to trip on.
//
// Only v6 is read: a v1-v5 file is rejected with a ParseError naming its
// version.  Reads are strict: any structural deviation — wrong version,
// missing field, trailing garbage, out-of-range node, self-loop,
// duplicate neighbor, asymmetric rows, a row total other than 2M,
// all-zero Rng state, chains out of step — throws orbis::ParseError
// naming the file and line; open/read failures throw orbis::IoError
// (reads go through the fault seam, io/line_reader.hpp).
// No count in the file sizes memory: chains and rows are appended as
// they parse.  A parse never returns a partially-filled checkpoint.
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
