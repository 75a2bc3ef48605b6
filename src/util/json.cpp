#include "src/util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace abp::json {

namespace {

[[noreturn]] void wrong_type(const char* wanted, const char* got) {
  throw std::logic_error(std::string("JSON value is ") + got + ", not " + wanted);
}

}  // namespace

Value Value::boolean(bool b) {
  Value v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  if (!std::isfinite(d)) {
    throw std::invalid_argument("non-finite double has no JSON number form");
  }
  Value v;
  v.type_ = Type::Number;
  // Shortest representation that round-trips to the same bits; integral
  // doubles get a ".0" suffix so the token stays unambiguously a double and
  // dump(parse(dump(x))) is byte-stable.
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), d);
  v.scalar_.assign(buf, r.ptr);
  if (v.scalar_.find_first_of(".eE") == std::string::npos) v.scalar_ += ".0";
  return v;
}

Value Value::number(std::int64_t n) {
  Value v;
  v.type_ = Type::Number;
  v.scalar_ = std::to_string(n);
  return v;
}

Value Value::number(std::uint64_t n) {
  Value v;
  v.type_ = Type::Number;
  v.scalar_ = std::to_string(n);
  return v;
}

Value Value::raw_number(std::string token) {
  Value v;
  v.type_ = Type::Number;
  v.scalar_ = std::move(token);
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.type_ = Type::String;
  v.scalar_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.type_ = Type::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::Object;
  return v;
}

const char* Value::type_name() const noexcept {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return "a boolean";
    case Type::Number: return "a number";
    case Type::String: return "a string";
    case Type::Array: return "an array";
    case Type::Object: return "an object";
  }
  return "unknown";
}

bool Value::as_bool() const {
  if (type_ != Type::Bool) wrong_type("a boolean", type_name());
  return bool_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) wrong_type("a string", type_name());
  return scalar_;
}

double Value::as_double() const {
  if (type_ != Type::Number) wrong_type("a number", type_name());
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(scalar_.c_str(), &end);
  if (end != scalar_.c_str() + scalar_.size() || errno == ERANGE) {
    throw std::out_of_range("number out of double range: " + scalar_);
  }
  return d;
}

bool Value::is_integer_token() const {
  if (type_ != Type::Number) return false;
  std::size_t i = scalar_.size() && scalar_[0] == '-' ? 1 : 0;
  if (i == scalar_.size()) return false;
  for (; i < scalar_.size(); ++i) {
    if (scalar_[i] < '0' || scalar_[i] > '9') return false;
  }
  return true;
}

std::int64_t Value::as_int64() const {
  if (type_ != Type::Number) wrong_type("a number", type_name());
  if (!is_integer_token()) {
    throw std::invalid_argument("not an integer: " + scalar_);
  }
  std::int64_t out = 0;
  const auto r = std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (r.ec != std::errc{} || r.ptr != scalar_.data() + scalar_.size()) {
    throw std::out_of_range("integer out of int64 range: " + scalar_);
  }
  return out;
}

std::uint64_t Value::as_uint64() const {
  if (type_ != Type::Number) wrong_type("a number", type_name());
  if (!is_integer_token() || (!scalar_.empty() && scalar_[0] == '-')) {
    throw std::invalid_argument("not a non-negative integer: " + scalar_);
  }
  std::uint64_t out = 0;
  const auto r = std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (r.ec != std::errc{} || r.ptr != scalar_.data() + scalar_.size()) {
    throw std::out_of_range("integer out of uint64 range: " + scalar_);
  }
  return out;
}

const std::string& Value::number_token() const {
  if (type_ != Type::Number) wrong_type("a number", type_name());
  return scalar_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::Array) wrong_type("an array", type_name());
  return items_;
}

std::vector<Value>& Value::items() {
  if (type_ != Type::Array) wrong_type("an array", type_name());
  return items_;
}

const std::vector<Member>& Value::members() const {
  if (type_ != Type::Object) wrong_type("an object", type_name());
  return members_;
}

std::vector<Member>& Value::members() {
  if (type_ != Type::Object) wrong_type("an object", type_name());
  return members_;
}

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members()) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void Value::push_back(Value v) { items().push_back(std::move(v)); }

void Value::set(std::string key, Value v) {
  members().emplace_back(std::move(key), std::move(v));
}

// --- Parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(message, line, col);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c, const char* what) {
    skip_whitespace();
    if (at_end() || peek() != c) fail(std::string("expected ") + what);
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    if (at_end()) fail("unexpected end of document");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // One recursion per level: bound it so a hostile document fails
        // with a position instead of overflowing the stack.
        if (++depth_ > kMaxNestingDepth) {
          fail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value::string(parse_string());
      case 't':
        if (consume_literal("true")) return Value::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{', "'{'");
    Value obj = Value::object();
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      expect(':', "':'");
      obj.set(std::move(key), parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[', "'['");
    Value arr = Value::array();
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: --pos_; fail("unsupported escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (pos_ == digits_start) fail("invalid number");
    // Reject leading zeros ("007") so integer tokens have one canonical form.
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      pos_ = digits_start;
      fail("leading zeros are not allowed");
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      const std::size_t frac_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == frac_start) fail("digits required after decimal point");
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      const std::size_t exp_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == exp_start) fail("digits required in exponent");
    }
    return Value::raw_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects currently open
};

}  // namespace

// --- Writer -----------------------------------------------------------------

namespace {

void write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_value(std::string& out, const Value& v, int depth) {
  const auto indent = [&](int d) { out.append(static_cast<std::size_t>(d) * 2, ' '); };
  switch (v.type()) {
    case Value::Type::Null: out += "null"; return;
    case Value::Type::Bool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::Number: out += v.number_token(); return;
    case Value::Type::String: write_string(out, v.as_string()); return;
    case Value::Type::Array: {
      const auto& items = v.items();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < items.size(); ++i) {
        indent(depth + 1);
        write_value(out, items[i], depth + 1);
        if (i + 1 < items.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += ']';
      return;
    }
    case Value::Type::Object: {
      const auto& members = v.members();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members.size(); ++i) {
        indent(depth + 1);
        write_string(out, members[i].first);
        out += ": ";
        write_value(out, members[i].second, depth + 1);
        if (i + 1 < members.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

std::string read_file(const std::string& path, const char* what) {
  const auto fail = [&](const char* problem) {
    throw std::runtime_error(std::string(what) + " file " + problem + ": " + path);
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string("cannot open ") + what + " file: " + path);
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    const auto n = static_cast<std::size_t>(in.gcount());
    if (n > kMaxDocumentBytes - text.size()) fail("exceeds the 64 MiB document limit");
    text.append(chunk, n);
  }
  if (in.bad()) fail("could not be read");
  return text;
}

std::string dump(const Value& value) {
  std::string out;
  write_value(out, value, 0);
  out += '\n';
  return out;
}

}  // namespace abp::json
