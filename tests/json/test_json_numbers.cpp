// Number conversion against the printf/strtod oracle (number_oracle.hpp):
// format_double must write the oracle's bytes and Json::parse must read
// the oracle's bits, over seeded bit patterns, every decade of the double
// range, subnormals, powers of two and the edges of the integer branch.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "number_oracle.hpp"

namespace {

using gs::json::format_double;
using gs::json::Json;
using gs::json::ParseError;
using gs::json::testing::format_double_oracle;
using gs::json::testing::parse_number_oracle;

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// Significant digits of a %g text (leading zeros of a fraction excluded).
int significant_digits(const std::string& s) {
  int n = 0;
  bool leading = true;
  for (const char c : s) {
    if (c == 'e') break;
    if (c < '0' || c > '9') continue;
    if (leading && c == '0') continue;
    leading = false;
    ++n;
  }
  return n;
}

/// Writes `v` both ways and reads the text back both ways; returns the
/// number of mismatches (0 or 1) and records the first few.
int check_one(double v, std::vector<std::string>& failures) {
  const std::string want = format_double_oracle(v);
  const std::string got = format_double(v);
  const double read = Json::parse(got).as_double();
  if (got == want && bits(read) == bits(parse_number_oracle(got))) return 0;
  if (failures.size() < 10) {
    char hex[40];
    std::snprintf(hex, sizeof(hex), "%a", v);
    failures.push_back(std::string(hex) + ": oracle '" + want + "', got '" +
                       got + "'");
  }
  return 1;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += s + "\n";
  return out;
}

TEST(JsonNumbers, FormatMatchesOracleOnSeededBitPatterns) {
  std::mt19937_64 rng(20240601);
  std::vector<std::string> failures;
  int bad = 0, checked = 0;
  while (checked < 1000000) {
    const double v = from_bits(rng());
    if (!std::isfinite(v)) continue;
    bad += check_one(v, failures);
    ++checked;
  }
  EXPECT_EQ(bad, 0) << join(failures);
}

TEST(JsonNumbers, FormatMatchesOracleOnEveryDecade) {
  std::vector<std::string> failures;
  int bad = 0;
  const double mantissas[] = {1.0, 1.5, 2.0, 2.5, 3.0, 1.0 / 3.0 * 10,
                              4.9, 5.0, 7.25, 9.0, 9.999999999999999,
                              9.87654321012345678};
  for (int e = -320; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    const double exact = std::strtod(("1e" + std::to_string(e)).c_str(),
                                     nullptr);
    for (const double m : mantissas) {
      for (const double v : {m * p, m * exact}) {
        if (!std::isfinite(v) || v == 0.0) continue;
        for (const double w : {v, -v, std::nextafter(v, 0.0),
                               std::nextafter(v, HUGE_VAL)})
          if (std::isfinite(w)) bad += check_one(w, failures);
      }
    }
  }
  EXPECT_EQ(bad, 0) << join(failures);
}

TEST(JsonNumbers, FormatMatchesOracleOnPowersOfTwoAndNeighbours) {
  // Powers of two have a lower neighbour half as far away as the upper
  // one, which is where a shortest-digits search can go wrong.
  std::vector<std::string> failures;
  int bad = 0;
  for (int k = -1074; k <= 1023; ++k) {
    const double v = std::ldexp(1.0, k);
    for (const double w :
         {v, -v, std::nextafter(v, 0.0), std::nextafter(v, HUGE_VAL), 3 * v,
          5 * v, 7 * v})
      if (std::isfinite(w)) bad += check_one(w, failures);
  }
  EXPECT_EQ(bad, 0) << join(failures);
}

TEST(JsonNumbers, FormatMatchesOracleOnEdgeValues) {
  const double two53 = 9007199254740992.0;
  const std::vector<double> values = {
      0.0,
      -0.0,
      5e-324,
      -5e-324,
      std::numeric_limits<double>::denorm_min() * 3,
      4e-320,
      1e-310,
      DBL_MIN,
      std::nextafter(DBL_MIN, 0.0),
      std::nextafter(DBL_MIN, 1.0),
      DBL_MAX,
      -DBL_MAX,
      std::nextafter(DBL_MAX, 0.0),
      two53,
      two53 - 1,
      two53 + 2,  // 2^53 + 1 is not a double; + 2 is the next one
      -two53,
      -(two53 - 1),
      -(two53 + 2),
      std::nextafter(two53, 0.0),
      std::nextafter(two53, HUGE_VAL),
      0.1,
      0.1 + 0.2,
      1.0 / 3.0,
      2.0 / 3.0,
      0.5,
      42.0,
      123456789.125,
      1e15 + 0.5,
      6.02214076e23,
  };
  std::vector<std::string> failures;
  int bad = 0;
  bool saw16 = false, saw17 = false;
  for (const double v : values) {
    bad += check_one(v, failures);
    const int d = significant_digits(format_double_oracle(v));
    saw16 = saw16 || d == 16;
    saw17 = saw17 || d == 17;
  }
  EXPECT_EQ(bad, 0) << join(failures);
  EXPECT_TRUE(saw16 && saw17) << "the list must hold 16- and 17-digit values";
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(two53), "9007199254740992");
  EXPECT_EQ(format_double(two53 + 2), "9007199254740994");
  EXPECT_EQ(format_double(1e17 + 16), "1.0000000000000002e+17");
  EXPECT_EQ(format_double(5e-324), "4.94065645841247e-324");
}

// ------------------------------------------------------------- reading

void expect_reads_like_strtod(const std::string& token) {
  const double got = Json::parse(token).as_double();
  const double want = parse_number_oracle(token);
  EXPECT_EQ(bits(got), bits(want)) << token;
}

TEST(JsonNumbers, ParseMatchesStrtodBitForBit) {
  for (const char* t :
       {"0", "-0", "1", "-1", "0.1", "1e5", "1E5", "1e+5", "1e-5", "-2.5E-3",
        "123456789012345678901234567890", "0.30000000000000004",
        "9007199254740993", "1.7976931348623157e308",
        "2.2250738585072011e-308", "2.2250738585072014e-308", "5e-324",
        "4e-320", "2.4703282292062328e-324",
        "1.00000000000000011102230246251565404236316680908203125",
        "0.000000000000000000000000000000000000000001"})
    expect_reads_like_strtod(t);

  // Every text the writer produces for seeded bit patterns.
  std::mt19937_64 rng(77);
  for (int i = 0; i < 100000; ++i) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) expect_reads_like_strtod(format_double(v));
  }
  // Seeded decimal tokens: digit runs, fractions and exponents of both
  // signs, including exponents far past the double range.
  std::uniform_int_distribution<int> len(1, 25), digit(0, 9), ex(-420, 420);
  for (int i = 0; i < 100000; ++i) {
    std::string t = (i & 1) ? "-" : "";
    const int n = len(rng);
    t += static_cast<char>('1' + digit(rng) % 9);
    for (int k = 1; k < n; ++k) t += static_cast<char>('0' + digit(rng));
    if (i % 3 == 0) {
      t += '.';
      for (int k = 0, m = len(rng); k < m; ++k)
        t += static_cast<char>('0' + digit(rng));
    }
    const int e = ex(rng);
    if (i % 4 != 0) {
      t += 'e';
      t += std::to_string(e);
    }
    const double want = parse_number_oracle(t);
    if (!std::isfinite(want)) {
      EXPECT_THROW(Json::parse(t), ParseError) << t;
      continue;
    }
    expect_reads_like_strtod(t);
  }
}

TEST(JsonNumbers, UnderflowReadsAsSignedZeroOverflowFails) {
  const double pos = Json::parse("1e-400").as_double();
  EXPECT_EQ(pos, 0.0);
  EXPECT_FALSE(std::signbit(pos));
  const double neg = Json::parse("-1e-400").as_double();
  EXPECT_EQ(neg, 0.0);
  EXPECT_TRUE(std::signbit(neg));
  EXPECT_EQ(bits(Json::parse("2.4703282292062327e-324").as_double()),
            bits(0.0));

  const double sub = Json::parse("4e-320").as_double();
  EXPECT_GT(sub, 0.0);
  EXPECT_LT(sub, DBL_MIN);
  EXPECT_EQ(bits(sub), bits(std::strtod("4e-320", nullptr)));

  for (const char* t : {"1e999", "-1e999", "1.8e308", "[1,2e400]"}) {
    try {
      Json::parse(t);
      ADD_FAILURE() << t << " parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("number out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
