// Minimal command-line flag parser for the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--name` forms.
//
// Whether `--name` CONSUMES the next token is declared up front, not
// guessed from the token's shape: the parser takes the list of
// value-taking flags, and only those bind `--name value`.  An
// undeclared flag is boolean, so a positional argument after it stays
// positional (`tool extract --gcc graph.edges out` keeps both
// positionals; the historical shape-guessing parser silently swallowed
// `graph.edges` as --gcc's value).  `--name=value` binds regardless of
// declaration — the `=` is explicit intent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace orbis::util {

class ArgParser {
 public:
  /// `value_flags` lists the flags that take a `--name value` argument
  /// (the `--name=value` spelling works for any flag).  Flags not
  /// listed are boolean.
  ArgParser(int argc, const char* const* argv,
            std::vector<std::string> value_flags = {});

  bool has_flag(const std::string& name) const;

  /// The first flag (in name order) given on the command line that is
  /// neither a declared value flag nor in `boolean_flags`; "" if none.
  /// Front ends reject it rather than silently ignore a misspelled or
  /// retired option.
  std::string unknown_flag(const std::vector<std::string>& boolean_flags) const;

  /// Numeric accessors parse STRICTLY: the whole value must be
  /// consumed, so trailing garbage (`--seed 10x`) throws instead of
  /// silently truncating to 10.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  const std::string& program_name() const noexcept { return program_; }

 private:
  std::string program_;
  std::vector<std::string> value_flags_;
  std::map<std::string, std::string> values_;  // flag -> value ("" if bare)
  std::vector<std::string> positional_;
};

}  // namespace orbis::util
