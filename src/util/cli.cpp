#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace orbis::util {

namespace {

bool is_flag(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::vector<std::string> value_flags)
    : value_flags_(std::move(value_flags)) {
  expects(argc >= 1, "ArgParser: argc must be at least 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!is_flag(token)) {
      positional_.push_back(token);
      continue;
    }
    const auto equals = token.find('=');
    if (equals != std::string::npos) {
      values_[token.substr(0, equals)] = token.substr(equals + 1);
      continue;
    }
    // `--name value`: only a DECLARED value flag consumes the next
    // token (and never one that is itself a flag — `--seed --gcc`
    // leaves --seed bare rather than eating --gcc).
    if (contains(value_flags_, token) && i + 1 < argc &&
        !is_flag(argv[i + 1])) {
      values_[token] = argv[i + 1];
      ++i;
    } else {
      values_[token] = "";
    }
  }
}

bool ArgParser::has_flag(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::unknown_flag(
    const std::vector<std::string>& boolean_flags) const {
  for (const auto& [name, value] : values_) {
    if (!contains(value_flags_, name) && !contains(boolean_flags, name)) {
      return name;
    }
  }
  return "";
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(it->second, &consumed);
    // Reject trailing garbage: "10x" must throw, not mean 10.
    if (consumed != it->second.size()) throw std::invalid_argument("");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag " + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag " + name + " expects a number, got '" +
                                it->second + "'");
  }
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return it->second;
}

}  // namespace orbis::util
