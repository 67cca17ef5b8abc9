#include "io/checkpoint_io.hpp"

#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/line_reader.hpp"
#include "util/errors.hpp"

namespace orbis::io {

namespace {

// v6 stores each chain's graph as its adjacency rows (the chain's
// canonical form, gen/checkpoint.hpp) and its stats in five slots.
// Checkpoints are resume files for runs in flight, not archives: older
// versions are rejected by name.
constexpr const char* kHeader = "# orbis checkpoint v";

using Words = std::array<std::uint64_t, 4>;

void write_words(std::ostream& out, const char* key, const Words& words) {
  out << key << ' ' << words[0] << ' ' << words[1] << ' ' << words[2] << ' '
      << words[3] << '\n';
}

bool all_zero(const Words& words) {
  return words == Words{};
}

void write_checkpoint(std::ostream& out, const gen::RunCheckpoint& state) {
  out << kHeader << gen::RunCheckpoint::kVersion << '\n';
  out << "d " << state.d << '\n';
  out << "final_d " << state.final_d << '\n';
  write_words(out, "pipeline_rng", state.pipeline_rng);
  out << "budget " << state.budget << '\n';
  out << "every " << state.checkpoint_every << '\n';
  out << "move " << gen::to_string(state.move) << '\n';
  out << "chains " << state.chains.size() << '\n';
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    const gen::ChainCheckpoint& chain = state.chains[i];
    out << "chain " << i << '\n';
    out << "attempts " << chain.attempts_done << '\n';
    write_words(out, "rng", chain.rng_state);
    const gen::RewiringStats& s = chain.stats;
    out << "stats " << s.attempts << ' ' << s.accepted << ' '
        << s.rejected_structural << ' ' << s.rejected_constraint << ' '
        << s.rejected_objective << '\n';
    out << "distance " << chain.distance << '\n';
    const Graph& g = chain.graph;
    out << "graph " << g.num_nodes() << ' ' << g.num_edges() << '\n';
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const char* separator = "";
      for (const NodeId w : g.neighbors(v)) {
        out << separator << w;
        separator = " ";
      }
      out << '\n';
    }
    out << "end chain\n";
  }
  out << "end checkpoint\n";
}

/// Line-at-a-time strict reader: every call throws ParseError naming
/// the file and line on the first deviation.
class CheckpointParser {
 public:
  CheckpointParser(LineReader lines, std::string path)
      : lines_(std::move(lines)), path_(std::move(path)) {}

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(lines_.line_number(), what);
  }
  [[noreturn]] void fail_at(std::size_t line,
                            const std::string& what) const {
    throw ParseError("checkpoint " + path_ + " line " +
                     std::to_string(line) + ": " + what);
  }

  /// Number of the line last read.
  std::size_t line_number() const noexcept { return lines_.line_number(); }

  /// Next line, or a ParseError complaining about truncation — inside a
  /// checkpoint every line is mandatory, so EOF mid-structure is always
  /// a torn file.
  std::string_view next_line(const char* expected) {
    if (!lines_.next(line_)) {
      fail(std::string("unexpected end of file (expected ") + expected + ")");
    }
    if (line_.ends_with('\r')) line_.remove_suffix(1);
    return line_;
  }

  /// The next line as a "key ..." record: a cursor over the fields after
  /// the key.  end_record checks that they all read and none trails.
  FieldCursor record(const char* key) {
    FieldCursor fields(next_line(key));
    if (fields.word() != key) {
      fail(std::string("expected '") + key + "' record, got: " +
           std::string(line_));
    }
    return fields;
  }

  void end_record(FieldCursor& fields) {
    if (!fields.ok()) fail("malformed record: " + std::string(line_));
    if (!fields.at_end()) fail("trailing tokens on: " + std::string(line_));
  }

  std::uint64_t keyed_u64(const char* key) {
    FieldCursor fields = record(key);
    const std::uint64_t value = fields.u64();
    end_record(fields);
    return value;
  }

  void keyed_words(const char* key, Words& words) {
    FieldCursor fields = record(key);
    for (std::uint64_t& word : words) word = fields.u64();
    end_record(fields);
  }

  void expect_literal(const char* literal) {
    if (next_line(literal) != literal) {
      fail(std::string("expected '") + literal + "', got: " +
           std::string(line_));
    }
  }

  void expect_eof() {
    if (lines_.next(line_)) fail("trailing content after 'end checkpoint'");
  }

 private:
  LineReader lines_;
  std::string path_;
  std::string_view line_;
};

/// The `graph N M` record and its N row lines.  Rows are appended as
/// they parse, so neither count ever sizes memory: a hostile count is a
/// torn file (ParseError at EOF or at the first line that is not a row).
Graph read_graph(CheckpointParser& parser) {
  FieldCursor header = parser.record("graph");
  const std::uint64_t nodes = header.u64();
  const std::uint64_t edges = header.u64();
  parser.end_record(header);
  const std::size_t header_line = parser.line_number();
  if (nodes > std::numeric_limits<NodeId>::max()) {
    parser.fail("node count out of range");
  }
  if (edges > nodes * (nodes - 1) / 2) parser.fail("edge count out of range");
  std::vector<std::vector<NodeId>> rows;
  std::uint64_t cells = 0;
  for (std::uint64_t v = 0; v < nodes; ++v) {
    FieldCursor fields(parser.next_line("adjacency row"));
    std::vector<NodeId>& row = rows.emplace_back();
    while (!fields.at_end()) {
      const std::uint64_t id = fields.u64();
      if (!fields.ok()) parser.fail("expected neighbor ids");
      if (id >= nodes) parser.fail("neighbor id out of range");
      row.push_back(static_cast<NodeId>(id));
    }
    cells += row.size();
    if (cells > 2 * edges) {
      parser.fail("rows hold more than the 2M = " +
                  std::to_string(2 * edges) + " cells the record declares");
    }
  }
  if (cells != 2 * edges) {
    parser.fail_at(header_line, "rows hold " + std::to_string(cells) +
                                    " cells, not the 2M = " +
                                    std::to_string(2 * edges) + " declared");
  }
  try {
    return Graph::from_rows(std::move(rows));
  } catch (const Graph::RowError& error) {
    parser.fail_at(header_line + 1 + error.row,
                   "row of node " + std::to_string(error.row) + ": " +
                       error.what());
  }
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           const gen::RunCheckpoint& state) {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_checkpoint(out, state); });
}

gen::RunCheckpoint read_checkpoint_file(const std::string& path) {
  CheckpointParser parser(LineReader(file_source(path)), path);

  const std::string header(parser.next_line("checkpoint header"));
  const std::string prefix = kHeader;
  const std::string current =
      prefix + std::to_string(gen::RunCheckpoint::kVersion);
  if (header != current) {
    if (header.starts_with(prefix)) {
      parser.fail("checkpoint version v" + header.substr(prefix.size()) +
                  " is not supported: this build reads only " + current);
    }
    parser.fail("expected '" + current + "', got: " + header);
  }
  gen::RunCheckpoint state;
  const std::uint64_t d = parser.keyed_u64("d");
  if (d != 2 && d != 3) parser.fail("d must be 2 or 3");
  state.d = static_cast<int>(d);
  const std::uint64_t final_d = parser.keyed_u64("final_d");
  if (final_d != 2 && final_d != 3) parser.fail("final_d must be 2 or 3");
  if (final_d < d) parser.fail("final_d must not be below d");
  state.final_d = static_cast<int>(final_d);
  parser.keyed_words("pipeline_rng", state.pipeline_rng);
  if (all_zero(state.pipeline_rng) && state.d < state.final_d) {
    parser.fail("all-zero pipeline rng state before the final stage");
  }
  state.budget = parser.keyed_u64("budget");
  state.checkpoint_every = parser.keyed_u64("every");
  FieldCursor move = parser.record("move");
  const std::string move_kind(move.word());
  parser.end_record(move);
  try {
    state.move = gen::parse_move_kind(move_kind);
  } catch (const std::invalid_argument&) {
    parser.fail("unknown move kind: " + move_kind);
  }
  const std::uint64_t chains = parser.keyed_u64("chains");
  if (chains == 0) parser.fail("checkpoint must have at least one chain");

  // Appended as parsed, like the edges: the count never sizes memory.
  for (std::uint64_t i = 0; i < chains; ++i) {
    gen::ChainCheckpoint& chain = state.chains.emplace_back();
    if (parser.keyed_u64("chain") != i) parser.fail("chain ids out of order");
    chain.attempts_done = parser.keyed_u64("attempts");
    if (chain.attempts_done > state.budget) {
      parser.fail("chain attempts exceed the run budget");
    }
    if (chain.attempts_done != state.chains[0].attempts_done) {
      parser.fail("chains out of step (unequal attempts)");
    }
    parser.keyed_words("rng", chain.rng_state);
    if (all_zero(chain.rng_state)) parser.fail("all-zero rng state");
    FieldCursor stats = parser.record("stats");
    chain.stats.attempts = stats.u64();
    chain.stats.accepted = stats.u64();
    chain.stats.rejected_structural = stats.u64();
    chain.stats.rejected_constraint = stats.u64();
    chain.stats.rejected_objective = stats.u64();
    parser.end_record(stats);
    FieldCursor distance = parser.record("distance");
    chain.distance = distance.i64();
    parser.end_record(distance);
    chain.graph = read_graph(parser);
    parser.expect_literal("end chain");
  }
  parser.expect_literal("end checkpoint");
  parser.expect_eof();
  return state;
}

}  // namespace orbis::io
