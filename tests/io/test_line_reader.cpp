// The one line reader and field cursor (io/line_reader.hpp): lines that
// span reads, a last line without '\n', read failures that never read
// as the end, and the strict field grammar every text format shares.
#include "io/line_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace orbis::io {
namespace {

std::vector<std::string> all_lines(LineReader lines) {
  std::vector<std::string> out;
  std::string_view line;
  while (lines.next(line)) out.emplace_back(line);
  return out;
}

TEST(LineReader, JoinsLinesAcrossReadsAndKeepsAnUnterminatedLastLine) {
  const std::string text = "ab\n\nlonger than the buffer\r\nx\ntail";
  const std::vector<std::string> expected = {
      "ab", "", "longer than the buffer\r", "x", "tail"};
  for (const std::size_t buffer : {1, 3, 64}) {
    std::istringstream in(text);
    EXPECT_EQ(all_lines(LineReader(stream_source(in), buffer)), expected)
        << "buffer " << buffer;
  }
  std::istringstream empty("");
  EXPECT_TRUE(all_lines(LineReader(stream_source(empty))).empty());
}

TEST(LineReader, CountsLinesAndPropagatesAFailedRead) {
  int reads = 0;
  LineReader lines(
      [&reads](std::span<char> buffer, std::uint64_t) -> std::size_t {
        if (++reads > 1) throw IoError("read failed");
        buffer[0] = 'a';
        buffer[1] = '\n';
        return 2;
      },
      8);
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "a");
  EXPECT_EQ(lines.line_number(), 1u);
  EXPECT_THROW(lines.next(line), IoError);
}

TEST(FieldCursor, ReadsWholeFieldsAndFailsForGood) {
  FieldCursor fields(" w\t12 -7 18446744073709551615 \r");
  EXPECT_EQ(fields.word(), "w");
  EXPECT_EQ(fields.u64(), 12u);
  EXPECT_EQ(fields.i64(), -7);
  EXPECT_EQ(fields.u64(), 18446744073709551615ull);
  EXPECT_TRUE(fields.done());

  for (const char* bad : {"+1", "-1", "12x", "x", "", "18446744073709551616"}) {
    FieldCursor cursor(bad);
    EXPECT_EQ(cursor.u64(), 0u) << bad;
    EXPECT_FALSE(cursor.ok()) << bad;
    EXPECT_EQ(cursor.u64(), 0u) << bad;  // a failed cursor stays failed
    EXPECT_FALSE(cursor.done()) << bad;
  }
  FieldCursor trailing("1 2 3");
  trailing.u64();
  trailing.u64();
  EXPECT_TRUE(trailing.ok());
  EXPECT_FALSE(trailing.at_end());
  EXPECT_FALSE(trailing.done());
}

}  // namespace
}  // namespace orbis::io
