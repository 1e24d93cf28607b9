#include "json/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace gs::json {

namespace {

[[noreturn]] void type_error(const char* want, Type got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw InvalidArgument(std::string("JSON value is ") +
                        names[static_cast<int>(got)] + ", expected " + want);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool", type());
  return std::get<bool>(v_);
}

double Json::as_double() const {
  if (!is_number()) type_error("number", type());
  return std::get<double>(v_);
}

std::int64_t Json::as_int() const {
  const double d = as_double();
  const double r = std::nearbyint(d);
  GS_CHECK(r == d && std::fabs(d) <= 9.007199254740992e15,
           "JSON number " + format_double(d) + " is not an integer");
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string", type());
  return std::get<std::string>(v_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("array", type());
  return std::get<Array>(v_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("array", type());
  return std::get<Array>(v_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("object", type());
  return std::get<Object>(v_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("object", type());
  return std::get<Object>(v_);
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& m : std::get<Object>(v_))
    if (m.key == key) return &m.value;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  GS_CHECK(v != nullptr, "missing JSON key '" + key + "'");
  return *v;
}

Json& Json::set(const std::string& key, Json value) {
  Object& obj = as_object();
  for (auto& m : obj) {
    if (m.key == key) {
      m.value = std::move(value);
      return *this;
    }
  }
  obj.push_back(Member{key, std::move(value)});
  return *this;
}

void Json::push_back(Json value) { as_array().push_back(std::move(value)); }

bool operator==(const Json& a, const Json& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return std::get<bool>(a.v_) == std::get<bool>(b.v_);
    case Type::kNumber:
      return std::get<double>(a.v_) == std::get<double>(b.v_);
    case Type::kString:
      return std::get<std::string>(a.v_) == std::get<std::string>(b.v_);
    case Type::kArray: {
      const auto& x = std::get<Json::Array>(a.v_);
      const auto& y = std::get<Json::Array>(b.v_);
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i] != y[i]) return false;
      return true;
    }
    case Type::kObject: {
      const auto& x = std::get<Json::Object>(a.v_);
      const auto& y = std::get<Json::Object>(b.v_);
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i].key != y[i].key || x[i].value != y[i].value) return false;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string format_double(double v) {
  GS_CHECK(std::isfinite(v), "non-finite number cannot be serialized as JSON");
  char buf[40];
  // Integral values within the double-exact range print as integers; this
  // keeps counts and hashes readable and is still bit-exact on re-parse.
  if (v == std::nearbyint(v) && std::fabs(v) <= 9.007199254740992e15) {
    const auto r = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
    return std::string(buf, r.ptr);
  }
  // The text is the first of %.15g, %.16g, %.17g that reads back as `v`.
  // Fewer digits than the shortest round-trip count d never read back, so
  // the search starts at max(15, d). It still checks each candidate below
  // 17 digits: libstdc++'s shortest form of some powers of two (2^-1017,
  // for one) has one digit too few to read back.
  auto r = std::to_chars(buf, buf + sizeof(buf), v,
                         std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p < r.ptr && *p != 'e'; ++p)
    digits += *p >= '0' && *p <= '9';
  for (int prec = std::max(15, digits);; ++prec) {
    r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                      prec);
    if (prec >= 17) break;  // 17 significant digits always read back
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back == v) break;
  }
  return std::string(buf, r.ptr);
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void dump_into(const Json& v, std::string& out) {
  switch (v.type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Type::kNumber:
      out += format_double(v.as_double());
      break;
    case Type::kString:
      append_escaped(out, v.as_string());
      break;
    case Type::kArray: {
      out.push_back('[');
      const auto& arr = v.as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out.push_back(',');
        dump_into(arr[i], out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      const auto& obj = v.as_object();
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i) out.push_back(',');
        append_escaped(out, obj[i].key);
        out.push_back(':');
        dump_into(obj[i].value, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_into(*this, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    skip_ws();
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON parse error at byte " + std::to_string(pos_) +
                     ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  void expect_literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (eof() || take() != *p) fail(std::string("invalid literal; expected '") + lit + "'");
  }

  Json parse_value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        expect_literal("null");
        return Json(nullptr);
      case 't':
        expect_literal("true");
        return Json(true);
      case 'f':
        expect_literal("false");
        return Json(false);
      case '"':
        return Json(parse_string());
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected string object key");
      std::string key = parse_string();
      skip_ws();
      if (take() != ':') fail("expected ':' after object key");
      skip_ws();
      if (out.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      out.set(key, parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid \\u escape digit");
    }
    return v;
  }

  void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = take();
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (eof() || take() != '\\' || eof() || take() != 'u')
              fail("high surrogate not followed by \\u low surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid low surrogate in \\u pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: '0' alone or a nonzero digit run (RFC 8259: no leading
    // zeros).
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit required after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    // The token is valid JSON grammar, which from_chars reads whole.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec != std::errc() || r.ptr != last) {
      // from_chars refuses underflow as well as overflow; an underflow
      // reads as strtod's ±0, as it always has.
      v = std::strtod(std::string(first, last).c_str(), nullptr);
      if (!std::isfinite(v)) fail("number out of range");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

Json Json::parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace gs::json
