// Seeded mutation fuzz of Json::parse over the gangd smoke requests
// (tools/smoke_requests.ndjson): byte flips, digit and exponent
// insertions, sign edits and truncation. Every mutant must either throw
// ParseError or parse to a value whose dump() parses back to an equal
// value, with every number token read exactly as strtod reads it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "number_oracle.hpp"

namespace {

using gs::json::Json;
using gs::json::ParseError;
using gs::json::testing::parse_number_oracle;

std::vector<std::string> seed_corpus() {
  std::ifstream in(GS_SMOKE_REQUESTS);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// One random edit of `s`.
std::string mutate(std::string s, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0}
                  : std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  static const char* const kExponents[] = {"e5",   "e-5",   "E+2",  "e308",
                                           "e309", "e-324", "e-400", "e999",
                                           "e",    "e+",    "E-"};
  switch (pick(6)) {
    case 0:  // byte flip
      if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // random byte
      if (!s.empty()) s[pick(s.size())] = static_cast<char>(pick(256));
      break;
    case 2:  // digit insertion
      s.insert(pick(s.size() + 1), 1, static_cast<char>('0' + pick(10)));
      break;
    case 3:  // exponent insertion
      s.insert(pick(s.size() + 1), kExponents[pick(std::size(kExponents))]);
      break;
    case 4: {  // sign edit: drop a sign or insert one
      const std::size_t at = pick(s.size() + 1);
      if (at < s.size() && (s[at] == '-' || s[at] == '+'))
        s.erase(at, 1);
      else
        s.insert(at, 1, pick(2) ? '-' : '+');
      break;
    }
    default:  // truncation
      s.resize(pick(s.size() + 1));
  }
  return s;
}

/// The number tokens of valid JSON text, in document order.
std::vector<std::string> number_tokens(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"') {
      for (++i; text[i] != '"'; ++i)
        if (text[i] == '\\') ++i;
      ++i;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = i;
      while (i < text.size() &&
             std::strchr("+-.eE0123456789", text[i]) != nullptr)
        ++i;
      out.push_back(text.substr(start, i - start));
    } else {
      ++i;
    }
  }
  return out;
}

/// The numbers of a parsed value, in document order.
void numbers_of(const Json& v, std::vector<double>& out) {
  if (v.is_number()) {
    out.push_back(v.as_double());
  } else if (v.is_array()) {
    for (const Json& x : v.as_array()) numbers_of(x, out);
  } else if (v.is_object()) {
    for (const auto& m : v.as_object()) numbers_of(m.value, out);
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

TEST(JsonFuzz, MutatedSmokeRequestsParseOrFailCleanly) {
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_GE(corpus.size(), 5u) << "smoke requests not found";

  std::mt19937_64 rng(0x5eed);
  int parsed = 0, refused = 0;
  for (int i = 0; i < 40000; ++i) {
    std::string input = corpus[i % corpus.size()];
    for (int k = 0, edits = 1 + i % 3; k < edits; ++k)
      input = mutate(std::move(input), rng);

    Json v;
    try {
      v = Json::parse(input);
    } catch (const ParseError&) {
      ++refused;
      continue;
    }
    ++parsed;
    const std::string dumped = v.dump();
    ASSERT_EQ(Json::parse(dumped), v) << "input: " << input;

    const std::vector<std::string> tokens = number_tokens(input);
    std::vector<double> values;
    numbers_of(v, values);
    ASSERT_EQ(tokens.size(), values.size()) << "input: " << input;
    for (std::size_t t = 0; t < tokens.size(); ++t)
      ASSERT_TRUE(same_bits(values[t], parse_number_oracle(tokens[t])))
          << tokens[t] << " in: " << input;
  }
  // Both outcomes must be exercised, or the mutations are too weak (or
  // too strong) to test anything.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(refused, 1000);
}

}  // namespace
