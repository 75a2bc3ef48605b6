// Minimal JSON document model for the declarative scenario layer.
//
// The scenario loader (src/scenario/scenario_io.hpp) needs three things no
// system library on the build image provides together: parse errors with
// line/column positions (so scenario files fail with actionable messages),
// objects that preserve key insertion order (so dumps are byte-stable and
// diffs stay readable), and numbers that survive a load -> dump -> load
// round trip bit-for-bit — including 64-bit seeds above 2^53, which a
// double-only JSON number type would silently corrupt. Numbers therefore
// keep their raw token text: as_double() / as_uint64() / as_int64() parse on
// demand, and the writer emits doubles in shortest-round-trip form
// (std::to_chars), so serializing a parsed document reproduces every value
// exactly.
//
// Deliberately not a general-purpose JSON library: no comments, no NaN/Inf
// tokens (the scenario schema spells infinity as the string "inf"), no
// \u escapes beyond ASCII pass-through, documents up to kMaxDocumentBytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace abp::json {

// Parse failure, with 1-based line/column of the offending character.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, int line, int column)
      : std::runtime_error("JSON parse error at line " + std::to_string(line) +
                           ", column " + std::to_string(column) + ": " + message),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

class Value;
// Object members in insertion order. Duplicate keys are rejected at parse
// time; lookups are linear (scenario objects hold tens of keys, not
// thousands).
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() = default;  // null

  [[nodiscard]] static Value boolean(bool b);
  // Numbers constructed from typed values serialize canonically: integers
  // without exponent/fraction, doubles in shortest form that parses back to
  // the same bits. Non-finite doubles are a logic error (throws
  // std::invalid_argument) — the schema represents infinity as a string.
  [[nodiscard]] static Value number(double v);
  [[nodiscard]] static Value number(std::int64_t v);
  [[nodiscard]] static Value number(std::uint64_t v);
  [[nodiscard]] static Value number(int v) { return number(static_cast<std::int64_t>(v)); }
  // Wraps an already-lexed number token verbatim (the parser's path; keeps
  // 64-bit integers and unusual-but-valid spellings exact). The token must be
  // a valid JSON number — typed accessors re-validate on use.
  [[nodiscard]] static Value raw_number(std::string token);
  [[nodiscard]] static Value string(std::string s);
  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::Object; }
  [[nodiscard]] const char* type_name() const noexcept;

  // Typed accessors. Calling the wrong one throws std::logic_error — callers
  // (the scenario loader) check type() first and raise their own
  // path-addressed errors.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  // Parses the raw number token. as_double accepts any JSON number;
  // as_int64/as_uint64 demand an integer token (no '.', no exponent) within
  // range and throw std::out_of_range / std::invalid_argument otherwise.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  // True when the number token is a plain integer (optional sign, digits).
  [[nodiscard]] bool is_integer_token() const;
  // The raw token text of a number, exactly as parsed or constructed.
  [[nodiscard]] const std::string& number_token() const;

  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] std::vector<Value>& items();
  [[nodiscard]] const std::vector<Member>& members() const;
  [[nodiscard]] std::vector<Member>& members();

  // Object lookup; nullptr when absent (never inserts).
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Appends (array / object). The object form does not check for duplicate
  // keys — builders append each key once by construction.
  void push_back(Value v);
  void set(std::string key, Value v);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  std::string scalar_;  // number token or string payload
  std::vector<Value> items_;
  std::vector<Member> members_;
};

// Deepest array/object nesting parse() accepts. Scenario and profile files
// nest single-digit levels deep; the limit keeps the recursive parser's stack
// bounded on hostile input.
inline constexpr int kMaxNestingDepth = 256;

// Parses one JSON document (trailing whitespace allowed, trailing garbage
// rejected). Throws ParseError, including past kMaxNestingDepth.
[[nodiscard]] Value parse(std::string_view text);

// Largest document file read_file() accepts: 64 MiB. A 256x256 grid with an
// override at every junction dumps to about 40 MiB, and every document a
// dump writes must load back from its file.
inline constexpr std::size_t kMaxDocumentBytes = std::size_t{64} << 20;

// Reads the whole file at `path` in chunks, never allocating the limit up
// front. Throws std::runtime_error naming the `what` file ("scenario",
// "profile") and the path when it cannot be opened or read, or when it holds
// more than kMaxDocumentBytes, so an endless stream such as /dev/zero ends
// in a message instead of std::bad_alloc.
[[nodiscard]] std::string read_file(const std::string& path, const char* what);

// Serializes with 2-space indentation, object keys in insertion order, and a
// trailing newline — the canonical form the scenario round-trip tests pin
// byte-for-byte.
[[nodiscard]] std::string dump(const Value& value);

}  // namespace abp::json
