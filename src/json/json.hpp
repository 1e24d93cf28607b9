// Dependency-free JSON value, parser, and writer — the wire format of the
// serve/ layer (NDJSON requests and responses) and the substrate of the
// canonical scenario serialization that scenario hashing is built on.
//
// Design constraints, in order:
//  * Parsing untrusted input must never crash the process: strict RFC 8259
//    grammar, a recursion-depth cap, and every failure surfaces as
//    json::ParseError (a gs::Error) with a byte offset.
//  * dump(parse(x)) is canonical: objects preserve insertion order, and
//    each double is written as the first of its %.15g, %.16g and %.17g
//    texts that reads back bit for bit — so equal values always
//    serialize to equal text, which is what makes content hashing on the
//    dump meaningful.
//  * Numbers convert through std::to_chars / std::from_chars, several
//    times faster than printf/strtod: a gangd cache hit is mostly
//    serialization.
//  * Value semantics; no allocator cleverness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace gs::json {

/// Raised on malformed input; what() includes the byte offset.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Json {
 public:
  struct Member;                     // key/value pair; defined below
  using Array = std::vector<Json>;   // incomplete-type use OK since C++17
  using Object = std::vector<Member>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<double>(i)) {}
  Json(std::size_t u) : v_(static_cast<double>(u)) {}
  Json(std::int64_t i) : v_(static_cast<double>(i)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Checked accessors; throw gs::InvalidArgument on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  /// The number, required to be integral and within int64 range.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- object helpers ------------------------------------------------------
  /// Member lookup; nullptr when absent (or when this is not an object).
  const Json* find(const std::string& key) const;
  /// Member lookup; throws gs::InvalidArgument when absent.
  const Json& at(const std::string& key) const;
  /// Insert or overwrite a member, preserving first-insertion order.
  Json& set(const std::string& key, Json value);

  // -- array helper --------------------------------------------------------
  void push_back(Json value);

  /// Deep structural equality (numbers compared bitwise via ==).
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

  /// Compact canonical serialization (no whitespace).
  std::string dump() const;

  /// Strict parse of exactly one JSON value (trailing garbage is an
  /// error). Throws ParseError; never crashes or overflows the stack
  /// (nesting deeper than `max_depth` is rejected).
  static Json parse(std::string_view text, int max_depth = 192);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

struct Json::Member {
  std::string key;
  Json value;
};

/// The first of `v`'s %.15g, %.16g and %.17g texts that reads back as
/// exactly `v` (%.17g always does). Integral values within 2^53 print
/// as integers, without an exponent or fraction. Non-finite values are
/// invalid JSON and throw gs::InvalidArgument.
std::string format_double(double v);

/// FNV-1a 64-bit over arbitrary bytes — the content hash used by the
/// serve layer's scenario cache (stable across platforms and runs).
std::uint64_t fnv1a64(std::string_view bytes);

/// Fixed-width lowercase hex of a 64-bit hash (16 digits).
std::string hash_hex(std::uint64_t h);

}  // namespace gs::json
