#include "util/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sega {
namespace {

TEST(JsonTest, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_EQ(Json(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Json(3.5).as_number(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(JsonTest, ObjectBuilding) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"]["nested"] = "x";
  EXPECT_TRUE(j.contains("a"));
  EXPECT_TRUE(j.at("b").is_object());
  EXPECT_EQ(j.at("b").at("nested").as_string(), "x");
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonTest, ArrayBuilding) {
  Json j = Json::array();
  j.push_back(1);
  j.push_back("two");
  j.push_back(Json::object());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.at(0).as_int(), 1);
  EXPECT_EQ(j.at(1).as_string(), "two");
  EXPECT_TRUE(j.at(2).is_object());
}

TEST(JsonTest, DumpCompact) {
  Json j = Json::object();
  j["n"] = 32;
  j["name"] = "MUL-CIM";
  EXPECT_EQ(j.dump(), R"({"n":32,"name":"MUL-CIM"})");
}

TEST(JsonTest, DumpEscapesStrings) {
  Json j = Json("line\n\"quoted\"\\");
  EXPECT_EQ(j.dump(), R"("line\n\"quoted\"\\")");
}

TEST(JsonTest, DumpIntegersWithoutDecimals) {
  EXPECT_EQ(Json(64).dump(), "64");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(65536).dump(), "65536");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_EQ(Json::parse("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(Json::parse("\"s\"")->as_string(), "s");
}

TEST(JsonTest, ParseNested) {
  auto j = Json::parse(R"({"a":[1,2,{"b":null}],"c":"x"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->at("a").size(), 3u);
  EXPECT_TRUE(j->at("a").at(2).at("b").is_null());
  EXPECT_EQ(j->at("c").as_string(), "x");
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto j = Json::parse("  {\n\t\"k\" :  [ 1 , 2 ]\n}  ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->at("k").size(), 2u);
}

TEST(JsonTest, ParseRejectsMalformed) {
  std::string err;
  EXPECT_FALSE(Json::parse("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto j = Json::parse(R"("Aé")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "A\xC3\xA9");
}

TEST(JsonTest, RoundTripCompact) {
  const std::string src =
      R"({"arch":"FP-CIM","objectives":[0.085,1.2,-20.2],"valid":true})";
  auto j = Json::parse(src);
  ASSERT_TRUE(j.has_value());
  auto j2 = Json::parse(j->dump());
  ASSERT_TRUE(j2.has_value());
  EXPECT_TRUE(*j == *j2);
}

TEST(JsonTest, RoundTripPretty) {
  Json j = Json::object();
  j["list"] = Json::array();
  j["list"].push_back(1.5);
  j["list"].push_back("two");
  j["obj"]["deep"] = true;
  auto parsed = Json::parse(j.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == j);
}

TEST(JsonTest, NumberPrecisionRoundTrips) {
  const double vals[] = {0.079, 1e-15, 123456789.123, 2.0 / 3.0};
  for (double v : vals) {
    auto j = Json::parse(Json(v).dump());
    ASSERT_TRUE(j.has_value());
    EXPECT_DOUBLE_EQ(j->as_number(), v);
  }
}

// ---------------------------------------------------------------------------
// Number codec.  The reference oracle is the formatter the <charconv> one
// replaced, kept verbatim: integral |d| < 1e15 through "%.0f", otherwise the
// first "%.{P}g", P = 1..16, that std::stod reads back to d, else "%.17g".
// It throws std::out_of_range where a short candidate underflows or
// overflows inside std::stod (5e-324, DBL_MIN, DBL_MAX); there it has no
// answer to compare with.

std::string reference_number(double d) {
  if (d == std::floor(d) && std::fabs(d) < 1e15) return strfmt("%.0f", d);
  std::string s = strfmt("%.17g", d);
  for (int prec = 1; prec <= 16; ++prec) {
    std::string cand = strfmt("%.*g", prec, d);
    if (std::stod(cand) == d) return cand;
  }
  return s;
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// The seeded corpus the formatter is checked on: >= 10^6 finite doubles
/// from the families where a shortest-form search can go wrong.
std::vector<double> number_corpus() {
  std::vector<double> out;
  Rng rng(0xC0DEC);
  // Raw bit patterns: every exponent, including subnormals.
  for (int i = 0; i < 300000; ++i) {
    const double d = from_bits(rng.next_u64());
    if (std::isfinite(d)) out.push_back(d);
  }
  // Every decade from 1e-300 to 1e300: the power itself and random
  // mantissas within it.
  for (int e = -300; e <= 300; ++e) {
    const double decade = std::stod(strfmt("1e%d", e));
    out.push_back(decade);
    for (int i = 0; i < 250; ++i) {
      out.push_back(decade * (1 + 9 * rng.uniform()));
    }
  }
  // Decimals of 15, 16 and 17 significant digits, where the shortest
  // round-trip form sits at or just below the %.17g fallback.
  for (int i = 0; i < 150000; ++i) {
    const int digits = static_cast<int>(rng.uniform_int(15, 17));
    std::string text = std::to_string(rng.uniform_int(1, 9)) + ".";
    for (int j = 1; j < digits; ++j) {
      text += static_cast<char>('0' + rng.uniform_int(0, 9));
    }
    text += strfmt("e%d", static_cast<int>(rng.uniform_int(-30, 30)));
    out.push_back(std::stod(text));
  }
  // Integers and half-integers near +-1e15, the integer path's bound.
  for (int i = -20000; i <= 20000; ++i) {
    out.push_back(1e15 + i);
    out.push_back(-1e15 - i * 0.5);
  }
  // Powers of two and their neighbours: their rounding intervals are
  // asymmetric (the gap below is half the gap above).
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double d : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      if (std::isfinite(d) && d != 0) {
        out.push_back(d);
        out.push_back(-d);
      }
    }
  }
  // Metric-shaped values: sums, products and quotients of short decimals
  // (the memo's breakdown maps are built this way).
  while (out.size() < 1000000) {
    const double a = static_cast<double>(rng.uniform_int(1, 100000)) / 10;
    const double b = static_cast<double>(rng.uniform_int(1, 100000)) / 100;
    out.push_back(a + b);
    out.push_back(a * b);
    out.push_back(a / b);
  }
  for (const double d : {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
                         DBL_EPSILON, DBL_TRUE_MIN, -DBL_TRUE_MIN}) {
    out.push_back(d);
  }
  return out;
}

TEST(JsonNumberTest, FormatMatchesTheReferenceLoopAndParsesBackBitExactly) {
  const std::vector<double> corpus = number_corpus();
  ASSERT_GE(corpus.size(), 1000000u);
  // The reference loop costs 5-30 us a value, so the corpus is checked in
  // chunks across a pool; each chunk collects its own failures.
  constexpr std::size_t kChunk = 10000;
  std::vector<std::vector<std::string>> failures(
      (corpus.size() + kChunk - 1) / kChunk);
  ThreadPool pool;
  pool.parallel_for(failures.size(), [&](std::size_t chunk) {
    const std::size_t end = std::min(corpus.size(), (chunk + 1) * kChunk);
    for (std::size_t i = chunk * kChunk; i < end; ++i) {
      const double d = corpus[i];
      const std::string got = Json(d).dump();
      std::optional<std::string> want;
      try {
        want = reference_number(d);
      } catch (const std::out_of_range&) {
        // No reference answer; the round trip below is still checked.
      }
      const auto back = Json::parse(got);
      if ((want && got != *want) || !back ||
          bits_of(back->as_number()) != bits_of(d)) {
        failures[chunk].push_back(
            strfmt("%a: got %s, want %s", d, got.c_str(),
                   want ? want->c_str() : "(reference throws)"));
      }
    }
  });
  std::size_t count = 0;
  for (const auto& chunk : failures) {
    for (const auto& line : chunk) {
      if (++count <= 10) ADD_FAILURE() << line;
    }
  }
  EXPECT_EQ(count, 0u) << "of " << corpus.size();
}

TEST(JsonNumberTest, TheReferenceLoopThrowsWhereTheNewFormatterDoesNot) {
  // The failures the rewrite fixes: today's loop cannot dump the smallest
  // subnormal or DBL_MIN (a short candidate underflows inside std::stod).
  EXPECT_THROW(reference_number(DBL_TRUE_MIN), std::out_of_range);
  EXPECT_THROW(reference_number(DBL_MIN), std::out_of_range);
  EXPECT_EQ(Json(DBL_TRUE_MIN).dump(), "5e-324");
  EXPECT_EQ(Json(DBL_MIN).dump(), "2.2250738585072014e-308");
  EXPECT_EQ(Json(DBL_MAX).dump(), "1.7976931348623157e+308");
}

TEST(JsonNumberTest, PinnedFormsIncludingNegativeZero) {
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(-999999999999999.0).dump(), "-999999999999999");
  EXPECT_EQ(Json(1e15).dump(), "1e+15");
  EXPECT_EQ(Json(9007199254740992.0).dump(), "9007199254740992");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1e-5).dump(), "1e-05");
  EXPECT_EQ(Json(0.1 + 0.2).dump(), "0.30000000000000004");
  const auto neg_zero = Json::parse("-0");
  ASSERT_TRUE(neg_zero.has_value());
  EXPECT_TRUE(std::signbit(neg_zero->as_number()));
}

TEST(JsonNumberTest, NonFiniteValuesKeepTheirPrintfForms) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "inf");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "-inf");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(),
            strfmt("%.17g", std::numeric_limits<double>::quiet_NaN()));
}

TEST(JsonNumberTest, ParserEdgeCasesArePinned) {
  // Accepted spans, with today's values: a leading '+', a bare trailing
  // '.', a bare leading '.', a dangling exponent marker, and a zero with an
  // exponent far below the range.
  const std::pair<const char*, double> accepted[] = {
      {"+1", 1.0}, {"5.", 5.0}, {".5", 0.5}, {"1e", 1.0}, {"0e-999", 0.0},
      {"1e+", 1.0}, {"-2.5E3", -2500.0}};
  for (const auto& [text, value] : accepted) {
    const auto j = Json::parse(text);
    ASSERT_TRUE(j.has_value()) << text;
    EXPECT_EQ(bits_of(j->as_number()), bits_of(value)) << text;
  }
  // Rejected, with today's diagnostics.
  const std::pair<const char*, const char*> rejected[] = {
      {"-", "expected number"},        {"+", "expected number"},
      {"1e999", "number out of range"}, {"-1e999", "number out of range"},
      {"1e-400", "number out of range"}, {".e1", "number out of range"}};
  for (const auto& [text, message] : rejected) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(message), std::string::npos) << text << ": " << error;
  }
}

TEST(JsonNumberTest, SubnormalLiteralsParse) {
  // The one intended parser change: a subnormal literal was a range error
  // (std::stod reports ERANGE for it) and is now its value.
  const auto tiny = Json::parse("5e-324");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->as_number(), DBL_TRUE_MIN);
  const auto sub = Json::parse("[1e-310]");
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->at(0).as_number(), 1e-310);
}

TEST(JsonTest, OutOfRangeNumberIsAParseErrorNotAnException) {
  // A corrupted file can carry numerals no double holds (duplicated digit
  // runs); parse() must diagnose, never throw out of the API.
  std::string error;
  EXPECT_FALSE(Json::parse("1e999999", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse(std::string(5000, '9'), &error).has_value());
  EXPECT_FALSE(Json::parse("{\"x\": 1e999999}", &error).has_value());
}

TEST(JsonTest, LineChecksumStampsAndVerifies) {
  Json line = Json::object();
  line["cell"]["wstore"] = 4096;
  line["cell"]["metric"] = 0.123456789012345;
  EXPECT_FALSE(check_line_checksum(line));  // unstamped
  stamp_line_checksum(&line);
  EXPECT_TRUE(check_line_checksum(line));

  // Stamping is stable and ignores the stamp itself.
  const std::uint32_t sum = json_line_checksum(line);
  stamp_line_checksum(&line);
  EXPECT_EQ(json_line_checksum(line), sum);
  EXPECT_TRUE(check_line_checksum(line));

  // The checksum survives a serialization round trip...
  auto parsed = Json::parse(line.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(check_line_checksum(*parsed));

  // ...and any value change invalidates it, even one that keeps the JSON
  // shape (the flipped-digit case structural validation cannot catch).
  std::string text = line.dump();
  const auto pos = text.find("0.123456789012345");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 3] = '9';
  auto tampered = Json::parse(text);
  ASSERT_TRUE(tampered.has_value());
  EXPECT_FALSE(check_line_checksum(*tampered));

  // Non-objects and wrong-typed stamps fail closed.
  EXPECT_FALSE(check_line_checksum(Json(3.0)));
  Json bad = Json::object();
  bad["c"] = "not a number";
  EXPECT_FALSE(check_line_checksum(bad));
}

// ---------------------------------------------------------------------------
// Attack-surface tests.  The parser is the first thing an always-on daemon
// runs against every untrusted request line (serve/protocol.h); hostile
// input must yield a clean per-parse error — never a throw, a crash, or
// unbounded stack growth.

TEST(JsonAttackTest, DepthLimitGuardsRecursion) {
  // Exactly at the documented limit (128 nested containers) still parses...
  const std::string at_limit =
      std::string(128, '[') + std::string(128, ']');
  EXPECT_TRUE(Json::parse(at_limit).has_value());

  // ...one past it is a clean diagnostic, not deeper recursion.
  std::string error;
  const std::string past_limit =
      std::string(129, '[') + std::string(129, ']');
  EXPECT_FALSE(Json::parse(past_limit, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);

  // A hostile megabyte of '[' must fail fast instead of overflowing the
  // stack; mixed object/array nesting counts against the same budget.
  EXPECT_FALSE(Json::parse(std::string(1 << 20, '[')).has_value());
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"a\":[";
  EXPECT_FALSE(Json::parse(mixed).has_value());
}

TEST(JsonAttackTest, EveryTruncationOfAValidRequestIsAnError) {
  // The kill-mid-send signature: no strict prefix of a request object is
  // itself valid, and each must diagnose cleanly.
  const std::string full =
      R"({"id":1,"cmd":"run","argv":["explore","--wstore","64"]})";
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::string error;
    EXPECT_FALSE(Json::parse(full.substr(0, len), &error).has_value())
        << "prefix of length " << len << " parsed";
    EXPECT_FALSE(error.empty()) << "no diagnostic at length " << len;
  }
}

TEST(JsonAttackTest, RandomBytesNeverThrow) {
  // Arbitrary binary garbage — including non-UTF-8 bytes, NULs, and control
  // characters — must come back as a value or an error, never an exception.
  Rng rng(0xD1A0u);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    const int n = static_cast<int>(rng.uniform_int(1, 64));
    for (int i = 0; i < n; ++i) {
      payload.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::string error;
    EXPECT_NO_THROW({ (void)Json::parse(payload, &error); });
  }
}

TEST(JsonAttackTest, MutatedRequestLinesParseOrFailCleanly) {
  // Seeded byte-level corruptions of a legitimate request line: every
  // mutation either parses (rare — e.g. a benign digit flip) or errors with
  // a diagnostic; a surviving parse must also survive a dump round trip.
  const std::string base =
      R"({"id":42,"cmd":"run","argv":["sweep","--wstores","64,128"]})";
  Rng rng(0x5E47Eu);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string mutated = test::random_mutation(base, rng);
    std::string error;
    std::optional<Json> parsed;
    EXPECT_NO_THROW({ parsed = Json::parse(mutated, &error); });
    if (parsed.has_value()) {
      EXPECT_TRUE(Json::parse(parsed->dump()).has_value());
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(JsonAttackTest, RawBytesInStringsRoundTripWithoutCrashing) {
  // Strings carrying non-UTF-8 byte sequences (a client bug, or hostility)
  // must not break dump(): the daemon echoes ids verbatim into responses.
  std::string hostile = "{\"id\":\"\xFF\xFE\x80 bad\",\"cmd\":\"ping\"}";
  std::optional<Json> parsed;
  EXPECT_NO_THROW({ parsed = Json::parse(hostile); });
  if (parsed.has_value()) {
    EXPECT_NO_THROW({ (void)parsed->dump(); });
  }
}

}  // namespace
}  // namespace sega
