#include "io/line_reader.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>

#include "io/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace orbis::io {

namespace {

std::string errno_text(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

/// Owns one open descriptor; the ByteSource copies share it.
struct File {
  File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
};

}  // namespace

ByteSource file_source(const std::string& path, RetryPolicy retry) {
  const auto file = std::make_shared<File>();
  file->fd = retry_transient(retry, [&]() -> int {
    int err = 0;
    if (!fault::should_fail(fault::Point::open_read, err)) {
      const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd >= 0) return fd;
      err = errno;
    }
    throw IoError("cannot open file: " + path + ": " + errno_text(err), err);
  });
  return [file, path, retry](std::span<char> buffer, std::uint64_t offset) {
    return retry_transient(retry, [&]() -> std::size_t {
      int err = 0;
      if (!fault::should_fail(fault::Point::read, err)) {
        const ssize_t got = ::read(file->fd, buffer.data(), buffer.size());
        if (got >= 0) {
          static obs::Counter& bytes_read =
              obs::Registry::global().counter("io.bytes_read");
          bytes_read.add(static_cast<std::uint64_t>(got));
          return static_cast<std::size_t>(got);
        }
        err = errno;
      }
      throw IoError("read failed at byte offset " + std::to_string(offset) +
                        " of " + path + ": " + errno_text(err),
                    err);
    });
  };
}

ByteSource stream_source(std::istream& in) {
  return [&in](std::span<char> buffer, std::uint64_t offset) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    // A short read is the end of the input only while `in` is not bad.
    if (in.bad()) {
      throw IoError("read failed at byte offset " + std::to_string(offset) +
                    " of a stream (stream badbit set; underlying I/O error)");
    }
    return static_cast<std::size_t>(in.gcount());
  };
}

LineReader::LineReader(ByteSource source, std::size_t buffer_bytes)
    : source_(std::move(source)),
      buffer_bytes_(buffer_bytes),
      buffer_(std::make_unique_for_overwrite<char[]>(buffer_bytes)) {
  util::expects(buffer_bytes > 0, "LineReader: buffer_bytes must be positive");
}

bool LineReader::next_spanning(std::string_view& line) {
  spanning_.assign(window_);  // the head of a line that spans reads
  for (;;) {
    window_ = {};
    const std::size_t got = source_({buffer_.get(), buffer_bytes_}, offset_);
    if (got == 0) {  // the end; a last line without '\n' still counts
      if (spanning_.empty()) return false;
      break;
    }
    offset_ += got;
    window_ = std::string_view(buffer_.get(), got);
    const std::size_t newline = window_.find('\n');
    spanning_.append(window_.substr(0, newline));
    if (newline != std::string_view::npos) {
      window_.remove_prefix(newline + 1);
      break;
    }
  }
  line = spanning_;
  ++line_number_;
  return true;
}

}  // namespace orbis::io
