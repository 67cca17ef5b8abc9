#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace orbis::util {
namespace {

/// Parser with the test suite's declared value flags (--seeds, --temp);
/// any other --flag is boolean.
ArgParser make_parser(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return ArgParser(static_cast<int>(args.size()), args.data(),
                   {"--seeds", "--temp"});
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto parser = make_parser({"--seeds", "7"});
  EXPECT_EQ(parser.get_int("--seeds", 1), 7);
}

TEST(ArgParser, EqualsSeparatedValue) {
  const auto parser = make_parser({"--seeds=9"});
  EXPECT_EQ(parser.get_int("--seeds", 1), 9);
}

TEST(ArgParser, DefaultWhenAbsent) {
  const auto parser = make_parser({});
  EXPECT_EQ(parser.get_int("--seeds", 5), 5);
  EXPECT_DOUBLE_EQ(parser.get_double("--temp", 1.5), 1.5);
  EXPECT_EQ(parser.get_string("--name", "x"), "x");
}

TEST(ArgParser, BareFlag) {
  const auto parser = make_parser({"--fast", "--seeds", "3"});
  EXPECT_TRUE(parser.has_flag("--fast"));
  EXPECT_FALSE(parser.has_flag("--slow"));
  EXPECT_EQ(parser.get_int("--seeds", 1), 3);
}

TEST(ArgParser, DoubleParsing) {
  const auto parser = make_parser({"--temp", "0.25"});
  EXPECT_DOUBLE_EQ(parser.get_double("--temp", 0.0), 0.25);
}

TEST(ArgParser, MalformedNumberThrows) {
  const auto parser = make_parser({"--seeds", "abc"});
  EXPECT_THROW(parser.get_int("--seeds", 1), std::invalid_argument);
}

TEST(ArgParser, PositionalArguments) {
  const auto parser = make_parser({"input.txt", "--seeds", "2", "out.txt"});
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "out.txt");
}

TEST(ArgParser, ProgramName) {
  const auto parser = make_parser({});
  EXPECT_EQ(parser.program_name(), "prog");
}

// --- Regressions for the declared-value-flag protocol -----------------

TEST(ArgParser, BooleanFlagDoesNotSwallowPositional) {
  // The historical shape-guessing parser bound "input.txt" as --fast's
  // value, losing the positional (`orbis_tool extract --gcc graph out`).
  const auto parser = make_parser({"--fast", "input.txt", "out.txt"});
  EXPECT_TRUE(parser.has_flag("--fast"));
  EXPECT_EQ(parser.get_string("--fast", ""), "");
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "out.txt");
}

TEST(ArgParser, BooleanFlagInterleavedEveryPosition) {
  for (const auto& argv : std::vector<std::vector<const char*>>{
           {"--fast", "a", "b"}, {"a", "--fast", "b"}, {"a", "b", "--fast"}}) {
    const auto parser = make_parser(argv);
    EXPECT_TRUE(parser.has_flag("--fast"));
    ASSERT_EQ(parser.positional().size(), 2u);
    EXPECT_EQ(parser.positional()[0], "a");
    EXPECT_EQ(parser.positional()[1], "b");
  }
}

TEST(ArgParser, UndeclaredFlagWithEqualsStillBindsValue) {
  // `=` is explicit intent, declared or not.
  const auto parser = make_parser({"--fast=yes"});
  EXPECT_EQ(parser.get_string("--fast", ""), "yes");
}

TEST(ArgParser, UnknownFlagIsNeitherDeclaredNorBoolean) {
  const auto parser = make_parser({"--seeds", "3", "--fast", "--sede=4"});
  EXPECT_EQ(parser.unknown_flag({"--fast"}), "--sede");
  EXPECT_EQ(parser.unknown_flag({"--fast", "--sede"}), "");
  EXPECT_EQ(make_parser({"--temp", "1"}).unknown_flag({}), "");
}

TEST(ArgParser, ValueFlagAtEndOfLineIsBare) {
  const auto parser = make_parser({"--seeds"});
  EXPECT_TRUE(parser.has_flag("--seeds"));
  EXPECT_EQ(parser.get_int("--seeds", 4), 4);  // no value -> fallback
}

TEST(ArgParser, ValueFlagBeforeAnotherFlagStaysBare) {
  const auto parser = make_parser({"--seeds", "--fast"});
  EXPECT_TRUE(parser.has_flag("--seeds"));
  EXPECT_TRUE(parser.has_flag("--fast"));
  EXPECT_EQ(parser.get_int("--seeds", 4), 4);
}

TEST(ArgParser, IntRejectsTrailingGarbage) {
  const auto parser = make_parser({"--seeds", "10x"});
  EXPECT_THROW(parser.get_int("--seeds", 1), std::invalid_argument);
}

TEST(ArgParser, DoubleRejectsTrailingGarbage) {
  const auto parser = make_parser({"--temp", "0.5oops"});
  EXPECT_THROW(parser.get_double("--temp", 1.0), std::invalid_argument);
}

TEST(ArgParser, StrictParsingStillAcceptsWellFormedNumbers) {
  const auto parser = make_parser({"--seeds", "-12", "--temp", "2.5e-3"});
  EXPECT_EQ(parser.get_int("--seeds", 1), -12);
  EXPECT_DOUBLE_EQ(parser.get_double("--temp", 0.0), 2.5e-3);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"Metric", "A", "B"});
  table.add_row({"kbar", "6.29", "2.1"});
  table.add_row({"r", "-0.24", "-0.22"});
  const auto rendered = table.str();
  EXPECT_NE(rendered.find("Metric"), std::string::npos);
  EXPECT_NE(rendered.find("-0.24"), std::string::npos);
  // All lines equal width (header, rule, two rows).
  std::size_t newline_count = 0;
  for (const char c : rendered) newline_count += (c == '\n');
  EXPECT_EQ(newline_count, 4u);
}

TEST(TextTable, WrongCellCountThrows) {
  TextTable table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(-0.236, 2), "-0.24");
  EXPECT_EQ(TextTable::fmt_int(435546699ull), "435,546,699");
  EXPECT_EQ(TextTable::fmt_int(146ull), "146");
  EXPECT_EQ(TextTable::fmt_int(1000ull), "1,000");
  EXPECT_EQ(TextTable::fmt_sig(0.004123, 2), "0.0041");
  EXPECT_EQ(TextTable::fmt_sig(1.997, 4), "1.997");
  EXPECT_EQ(TextTable::fmt_sig(0.0, 3), "0");
}

}  // namespace
}  // namespace orbis::util
