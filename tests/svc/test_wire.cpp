// The service wire format (src/svc/wire.hpp): flat-object parsing,
// escape handling, the typed accessors, and the malformed-line error
// contract (ParseError with a position, never a silent default).
#include <gtest/gtest.h>

#include <string>

#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "util/errors.hpp"

namespace orbis::svc::wire {
namespace {

TEST(Wire, ParsesFlatObjectOfEveryScalarKind) {
  const Object object = parse_flat_object(
      R"({"op":"extract","d":3,"ratio":0.5,"trusted":true,"note":null})");
  EXPECT_EQ(require_string(object, "op"), "extract");
  EXPECT_EQ(get_int(object, "d", 0), 3);
  EXPECT_DOUBLE_EQ(get_double(object, "ratio", 0.0), 0.5);
  EXPECT_TRUE(get_bool(object, "trusted", false));
  EXPECT_EQ(object.at("note").kind, Value::Kind::null);
}

TEST(Wire, EmptyObjectAndWhitespaceTolerance) {
  EXPECT_TRUE(parse_flat_object("  { }  ").empty());
  const Object object = parse_flat_object("\t{ \"a\" : 1 , \"b\" : \"x\" }");
  EXPECT_EQ(get_int(object, "a", 0), 1);
  EXPECT_EQ(get_string(object, "b", ""), "x");
}

TEST(Wire, DecodesStringEscapes) {
  const Object object = parse_flat_object(
      R"({"path":"a\tb\n\"q\"\\z","unicode":"\u0041\u00e9"})");
  EXPECT_EQ(get_string(object, "path", ""), "a\tb\n\"q\"\\z");
  EXPECT_EQ(get_string(object, "unicode", ""), "A\xC3\xA9");
}

TEST(Wire, NegativeAndExponentNumbers) {
  const Object object =
      parse_flat_object(R"({"a":-7,"b":1e3,"c":2.5e-2})");
  EXPECT_EQ(get_int(object, "a", 0), -7);
  EXPECT_DOUBLE_EQ(get_double(object, "b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(get_double(object, "c", 0.0), 0.025);
}

TEST(Wire, RejectsMalformedLines) {
  EXPECT_THROW(parse_flat_object(""), ParseError);
  EXPECT_THROW(parse_flat_object("not json"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a":1)"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a" 1})"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a":})"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a":"unterminated)"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a":1} trailing)"), ParseError);
}

TEST(Wire, RejectsNestedContainersExplicitly) {
  // Flatness is a protocol rule, not a parser limitation to stumble on.
  EXPECT_THROW(parse_flat_object(R"({"a":{"b":1}})"), ParseError);
  EXPECT_THROW(parse_flat_object(R"({"a":[1,2]})"), ParseError);
}

TEST(Wire, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_flat_object(R"({"a":1,"a":2})"), ParseError);
}

TEST(Wire, TypedAccessorsEnforceKinds) {
  const Object object = parse_flat_object(R"({"d":"three","n":5})");
  EXPECT_THROW(get_int(object, "d", 0), ParseError);
  EXPECT_THROW(get_string(object, "n", ""), ParseError);
  EXPECT_THROW(get_bool(object, "n", false), ParseError);
  EXPECT_THROW(require_string(object, "missing"), ParseError);
  // Absent keys fall back; present-but-wrong-type always throws.
  EXPECT_EQ(get_int(object, "absent", 42), 42);
}

TEST(Wire, CountsRejectNegativeAndOutOfRangeNumbers) {
  const Object object =
      parse_flat_object(R"({"n":5,"neg":-1,"huge":1e30,"tiny":-1e30})");
  EXPECT_EQ(get_count(object, "n", 0), 5u);
  EXPECT_EQ(get_count(object, "absent", 7), 7u);
  EXPECT_THROW(get_count(object, "neg", 0), ParseError);
  // Past the int64 range the conversion would be undefined.
  EXPECT_THROW(get_int(object, "huge", 0), ParseError);
  EXPECT_THROW(get_int(object, "tiny", 0), ParseError);
  EXPECT_THROW(get_count(object, "huge", 0), ParseError);
}

TEST(Wire, IntegersRejectFractionsNamingTheField) {
  // A cast would truncate 2.9 to 2 and 0.5 to 0, silently.
  const Object object = parse_flat_object(
      R"({"d":2.9,"chains":0.5,"job":1.9,"neg":-0.5,"whole":4.0,"e":2e3})");
  for (const std::string key : {"d", "chains", "job", "neg"}) {
    try {
      get_int(object, key, 0);
      FAIL() << key << ": expected ParseError";
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("\"" + key + "\""),
                std::string::npos)
          << error.what();
    }
    EXPECT_THROW(get_count(object, key, 0), ParseError) << key;
  }
  // An integral value is an integer however it is spelled.
  EXPECT_EQ(get_int(object, "whole", 0), 4);
  EXPECT_EQ(get_count(object, "e", 0), 2000u);
}

TEST(Wire, CountsRejectValuesPastTheirBoundNamingFieldAndBound) {
  // 2^62 fits the int64 check, so only the bound stands between it and
  // a generate job that runs until cancelled.
  const Object object = parse_flat_object(
      R"({"attempts":4611686018427387904,"at_cap":1099511627776})");
  EXPECT_EQ(get_count(object, "at_cap", 0, kMaxAttempts), kMaxAttempts);
  EXPECT_EQ(get_count(object, "absent", 7, kMaxAttempts), 7u);
  try {
    get_count(object, "attempts", 0, kMaxAttempts);
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("field \"attempts\" must be at most " +
                        std::to_string(kMaxAttempts) +
                        ", got 4611686018427387904"),
              std::string::npos)
        << error.what();
  }
}

TEST(Wire, ErrorsNameAColumn) {
  try {
    parse_flat_object(R"({"a":1,})");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("column"), std::string::npos);
  }
}

}  // namespace
}  // namespace orbis::svc::wire
