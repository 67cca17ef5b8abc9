// The one text-input path.  Every text file the library reads — edge
// lists, .1k/.2k/.3k files, checkpoints — is a ByteSource that
// LineReader splits into lines, and every line's fields are read by
// FieldCursor.  A file_source reads through the fault seam
// (io/fault_injection.hpp) and the retry policy (io/retry.hpp).  A
// failed read throws orbis::IoError and never reads as the end of the
// input, so a failing file cannot parse as a shorter one.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "io/retry.hpp"

namespace orbis::io {

/// Bytes per read of a LineReader (and of DkCache's entry copies).
inline constexpr std::size_t kReadBufferBytes = std::size_t{1} << 20;

/// Fills a prefix of `buffer` with the input's bytes from `offset` on
/// and returns how many it wrote: 0 only at the end of the input.
using ByteSource =
    std::function<std::size_t(std::span<char> buffer, std::uint64_t offset)>;

/// The bytes of the file at `path`, opened now.  open(2) and each
/// read(2) go through the fault seam and retry transient failures under
/// `retry`; errors name the path, and a failed read its offset and errno.
ByteSource file_source(const std::string& path, RetryPolicy retry = {});

/// A ByteSource over `in`, which must outlive it.
ByteSource stream_source(std::istream& in);

/// Pulls the lines of a ByteSource, reading it `buffer_bytes` at a time:
/// memory is one buffer plus the longest line, whatever the input size.
class LineReader {
 public:
  explicit LineReader(ByteSource source,
                      std::size_t buffer_bytes = kReadBufferBytes);

  /// Sets `line` to the next line without its '\n', valid until the
  /// next call; a last line without '\n' counts.  False at the end.
  bool next(std::string_view& line) {
    const std::size_t newline = window_.find('\n');
    if (newline == std::string_view::npos) return next_spanning(line);
    line = window_.substr(0, newline);
    window_.remove_prefix(newline + 1);
    ++line_number_;
    return true;
  }

  /// 1-based number of the line last returned.
  std::size_t line_number() const noexcept { return line_number_; }

 private:
  bool next_spanning(std::string_view& line);  // refills the buffer

  ByteSource source_;
  std::size_t buffer_bytes_;
  std::unique_ptr<char[]> buffer_;
  std::string_view window_;  // unread bytes of the buffer
  std::string spanning_;     // a line joined across reads
  std::uint64_t offset_ = 0;
  std::size_t line_number_ = 0;
};

/// Reads a line's fields left to right.  Blanks (space, tab, CR)
/// separate fields.  A number is a whole field in std::from_chars
/// decimal: no '+', and '-' only for i64.  A read that finds no field of
/// its kind returns 0 (or an empty word) and fails the cursor for good,
/// so a record's fields are read first and checked once.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) noexcept
      : cursor_(line.data()), end_(line.data() + line.size()) {}

  std::uint64_t u64() noexcept { return number<std::uint64_t>(); }
  std::int64_t i64() noexcept { return number<std::int64_t>(); }
  std::string_view word() noexcept {
    skip_blanks();
    const char* start = cursor_;
    while (cursor_ != end_ && !is_blank(*cursor_)) ++cursor_;
    ok_ = ok_ && cursor_ != start;
    return ok_ ? std::string_view(start, cursor_ - start) : std::string_view();
  }

  bool ok() const noexcept { return ok_; }  // no read failed
  bool at_end() noexcept {                  // only blanks are left
    skip_blanks();
    return cursor_ == end_;
  }
  bool done() noexcept { return ok_ && at_end(); }  // a complete record

 private:
  static bool is_blank(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\r';
  }
  void skip_blanks() noexcept {
    while (cursor_ != end_ && is_blank(*cursor_)) ++cursor_;
  }
  template <typename Int>
  Int number() noexcept {
    skip_blanks();
    Int value = 0;
    const auto [next, ec] = std::from_chars(cursor_, end_, value);
    ok_ = ok_ && ec == std::errc() && (next == end_ || is_blank(*next));
    if (ok_) cursor_ = next;
    return ok_ ? value : 0;
  }

  const char* cursor_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace orbis::io
