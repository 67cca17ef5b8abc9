// The topology service's line-delimited JSON wire format
// (docs/service.md, "Protocol").
//
// Requests are FLAT JSON objects, one per line — string / number /
// boolean / null values only, no nesting.  That restriction is what
// keeps this parser ~150 lines instead of a JSON DOM: the protocol was
// designed flat (every request field is scalar), so the parser enforces
// it rather than half-supporting nesting.  Responses are emitted
// through obs::json::Writer (compact mode), the same serializer the
// run reports use, so escaping lives in one place for both directions.
//
// Error contract: malformed lines throw orbis::ParseError with a
// column position; the server turns that into an `error` event and
// keeps reading (one bad request must not kill the session).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace orbis::svc::wire {

struct Value {
  enum class Kind : std::uint8_t { string, number, boolean, null };
  Kind kind = Kind::null;
  std::string text;     // Kind::string
  double number = 0.0;  // Kind::number
  bool boolean = false;
};

using Object = std::map<std::string, Value>;

/// Parses one request line.  Throws orbis::ParseError on malformed
/// JSON, nested containers, or duplicate keys.
Object parse_flat_object(std::string_view line);

/// Typed field access.  `get_*` returns the fallback when the key is
/// absent; `require_string` throws orbis::ParseError when missing.
/// Type mismatches always throw (a request that says `"d":"three"`
/// is malformed, not defaulted).
std::string require_string(const Object& object, const std::string& key);
std::string get_string(const Object& object, const std::string& key,
                       const std::string& fallback);
/// An integer field: a fractional or out-of-range number throws
/// orbis::ParseError naming the field (2.9 is not silently 2).
std::int64_t get_int(const Object& object, const std::string& key,
                     std::int64_t fallback);
/// A count (chains, workers, attempts, ...): get_int that also throws
/// orbis::ParseError on a negative value instead of letting it wrap, and
/// on one above `max`, naming the field and the bound.
std::uint64_t get_count(
    const Object& object, const std::string& key, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
double get_double(const Object& object, const std::string& key,
                  double fallback);
bool get_bool(const Object& object, const std::string& key, bool fallback);

}  // namespace orbis::svc::wire
