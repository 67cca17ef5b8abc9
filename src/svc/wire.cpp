#include "svc/wire.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/errors.hpp"

namespace orbis::svc::wire {

namespace {

/// Cursor over one request line; reports positions 1-based.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() { return eof() ? '\0' : text_[pos_++]; }

  void expect(char wanted) {
    if (peek() != wanted) {
      fail(std::string("expected '") + wanted + "'");
    }
    ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("wire: " + what + " at column " +
                     std::to_string(pos_ + 1));
  }

  std::size_t pos() const { return pos_; }
  std::string_view rest() const { return text_.substr(pos_); }
  void advance(std::size_t n) { pos_ += n; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string parse_string(Cursor& cursor) {
  cursor.expect('"');
  std::string out;
  while (true) {
    if (cursor.eof()) cursor.fail("unterminated string");
    const char c = cursor.take();
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (cursor.eof()) cursor.fail("unterminated escape");
    const char escape = cursor.take();
    switch (escape) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'u': {
        // Paths and tags on this wire are ASCII in practice; decode the
        // BMP escape to UTF-8 so a conforming client round-trips.
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          if (cursor.eof()) cursor.fail("truncated \\u escape");
          const char h = cursor.take();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            cursor.fail("bad hex digit in \\u escape");
          }
        }
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        cursor.fail("unknown escape");
    }
  }
}

Value parse_scalar(Cursor& cursor) {
  cursor.skip_ws();
  Value value;
  const char c = cursor.peek();
  if (c == '"') {
    value.kind = Value::Kind::string;
    value.text = parse_string(cursor);
    return value;
  }
  if (c == '{' || c == '[') {
    cursor.fail("nested containers are not part of this protocol");
  }
  const std::string_view rest = cursor.rest();
  if (rest.substr(0, 4) == "true") {
    value.kind = Value::Kind::boolean;
    value.boolean = true;
    cursor.advance(4);
    return value;
  }
  if (rest.substr(0, 5) == "false") {
    value.kind = Value::Kind::boolean;
    value.boolean = false;
    cursor.advance(5);
    return value;
  }
  if (rest.substr(0, 4) == "null") {
    value.kind = Value::Kind::null;
    cursor.advance(4);
    return value;
  }
  // Number: delegate validation to strtod over the remaining text.
  const std::string tail(rest);
  char* end = nullptr;
  const double parsed = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) cursor.fail("expected a JSON value");
  value.kind = Value::Kind::number;
  value.number = parsed;
  cursor.advance(static_cast<std::size_t>(end - tail.c_str()));
  return value;
}

}  // namespace

Object parse_flat_object(std::string_view line) {
  Cursor cursor(line);
  cursor.skip_ws();
  cursor.expect('{');
  Object object;
  cursor.skip_ws();
  if (cursor.peek() == '}') {
    cursor.take();
  } else {
    while (true) {
      cursor.skip_ws();
      std::string key = parse_string(cursor);
      cursor.skip_ws();
      cursor.expect(':');
      Value value = parse_scalar(cursor);
      if (!object.emplace(std::move(key), std::move(value)).second) {
        cursor.fail("duplicate key");
      }
      cursor.skip_ws();
      const char next = cursor.take();
      if (next == '}') break;
      if (next != ',') cursor.fail("expected ',' or '}'");
    }
  }
  cursor.skip_ws();
  if (!cursor.eof()) cursor.fail("trailing content after object");
  return object;
}

std::string require_string(const Object& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end()) {
    throw ParseError("wire: missing required field \"" + key + "\"");
  }
  if (it->second.kind != Value::Kind::string) {
    throw ParseError("wire: field \"" + key + "\" must be a string");
  }
  return it->second.text;
}

std::string get_string(const Object& object, const std::string& key,
                       const std::string& fallback) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  if (it->second.kind != Value::Kind::string) {
    throw ParseError("wire: field \"" + key + "\" must be a string");
  }
  return it->second.text;
}

std::int64_t get_int(const Object& object, const std::string& key,
                     std::int64_t fallback) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  if (it->second.kind != Value::Kind::number) {
    throw ParseError("wire: field \"" + key + "\" must be a number");
  }
  // The cast below is only defined inside the int64 range, and would
  // drop a fraction silently.
  const double number = it->second.number;
  if (!(number > -9.2e18 && number < 9.2e18)) {
    throw ParseError("wire: field \"" + key + "\" is out of range");
  }
  if (number != std::trunc(number)) {
    throw ParseError("wire: field \"" + key + "\" must be an integer");
  }
  return static_cast<std::int64_t>(number);
}

std::uint64_t get_count(const Object& object, const std::string& key,
                        std::uint64_t fallback, std::uint64_t max) {
  const std::int64_t value =
      get_int(object, key, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw ParseError("wire: field \"" + key + "\" must be >= 0");
  }
  const auto count = static_cast<std::uint64_t>(value);
  if (count > max) {
    throw ParseError("wire: field \"" + key + "\" must be at most " +
                     std::to_string(max) + ", got " + std::to_string(count));
  }
  return count;
}

double get_double(const Object& object, const std::string& key,
                  double fallback) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  if (it->second.kind != Value::Kind::number) {
    throw ParseError("wire: field \"" + key + "\" must be a number");
  }
  return it->second.number;
}

bool get_bool(const Object& object, const std::string& key, bool fallback) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  if (it->second.kind != Value::Kind::boolean) {
    throw ParseError("wire: field \"" + key + "\" must be a boolean");
  }
  return it->second.boolean;
}

}  // namespace orbis::svc::wire
