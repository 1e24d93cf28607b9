// The printf/strtod number conversions that src/json used before it moved
// to std::to_chars / std::from_chars, kept as the oracle the number tests
// compare the library against: byte for byte when writing, bit for bit
// when reading.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gs::json::testing {

/// Integral values within 2^53 as "%lld"; otherwise the first of %.15g,
/// %.16g and %.17g that strtod reads back as exactly `v`.
inline std::string format_double_oracle(double v) {
  if (v == std::nearbyint(v) && std::fabs(v) <= 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;  // %.17g always round-trips
  }
  return buf;
}

/// A JSON number token as strtod reads it (underflow gives ±0).
inline double parse_number_oracle(const std::string& token) {
  return std::strtod(token.c_str(), nullptr);
}

}  // namespace gs::json::testing
