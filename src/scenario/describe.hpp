// Field descriptions: each config document's fields, written down once.
//
// Every described struct has one `describe(v, x)` listing its keys in
// document order, each with the rule its value must satisfy:
//
//   v.field(key, member)            a number, boolean or string, any value
//   v.field(key, member, rule)      ... that must satisfy `rule`
//   v.field(key, member, tokens)    an enum, spelled by its token table
//   v.time(key, member)             a time that may be the string "inf"
//   v.object(key, member)           a nested described struct
//   v.array(key, list, prototype)   a list; loaded elements start as copies
//                                   of `prototype`
//   v.check(key, ok, problem)       a relation between fields, reported at
//                                   `key` ("" = the enclosing object)
//   v.retired(key, count, version)  a count schema `version` retired: it
//                                   still loads at 1, and is neither dumped
//                                   nor listed
//   v.retired(key, section)         a retired section: its keys still load,
//                                   and it is neither dumped nor listed
//
// The visitors below walk those descriptions: KeyLister (unknown-key
// rejection), Loader (type errors), Validator (rules and checks) and Dumper
// (canonical JSON). Visitors find a nested struct's describe() by
// argument-dependent lookup, so each describe() is declared in this
// namespace (found through the visitor) or in its struct's namespace.
//
// Every error is a ScenarioIoError, "<dotted.path>: <problem>". A Path is a
// chain of stack frames, spelled out only when an error is raised.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/scenario/scenario_io.hpp"
#include "src/util/json.hpp"

namespace abp::scenario::schema {

// Member `key` of `parent`; with a null key, element `index` of `parent`.
// The default Path is the document root.
struct Path {
  const Path* parent = nullptr;
  const char* key = nullptr;
  std::size_t index = 0;

  [[nodiscard]] std::string str() const {
    if (parent == nullptr) return "";
    std::string s = parent->str();
    if (key == nullptr) return s + "[" + std::to_string(index) + "]";
    if (s.empty()) return key;
    return *key == '\0' ? s : s + "." + key;
  }
};

[[noreturn]] inline void fail(const Path& at, const std::string& problem) {
  throw ScenarioIoError(at.str(), problem);
}

// A value rule: values `admits` rejects fail with `problem`. The default rule
// admits everything. NaN fails every rule.
struct Rule {
  bool (*admits)(double) = nullptr;
  const char* problem = "";
};

inline constexpr Rule kPositive{[](double x) { return x > 0.0; }, "must be > 0"};
inline constexpr Rule kNonNegative{[](double x) { return x >= 0.0; }, "must be >= 0"};
inline constexpr Rule kAtLeastOne{[](double x) { return x >= 1.0; }, "must be >= 1"};
inline constexpr Rule kNegative{[](double x) { return x < 0.0; }, "must be < 0"};
inline constexpr Rule kUnitInterval{[](double x) { return x >= 0.0 && x <= 1.0; },
                                    "must be in [0, 1]"};

// One spelling of an enum value; a field's table lists every value.
template <typename E>
struct Token {
  const char* name;
  E value;
};

// --- Reading and writing values ----------------------------------------------

inline void expect(const json::Value& v, bool ok, const char* expected, const Path& at) {
  if (!ok) fail(at, std::string("expected ") + expected + ", got " + v.type_name());
}

inline void read(const json::Value& v, double& x, const Path& at) {
  expect(v, v.is_number(), "a number", at);
  try {
    x = v.as_double();
  } catch (const std::out_of_range&) {
    fail(at, "number out of double range");
  }
}

inline void read(const json::Value& v, int& x, const Path& at) {
  expect(v, v.is_number(), "a number", at);
  if (!v.is_integer_token()) fail(at, "must be an integer");
  std::int64_t n = 0;
  try {
    n = v.as_int64();
  } catch (const std::out_of_range&) {
    fail(at, "integer out of range");
  }
  if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
    fail(at, "integer out of range");
  }
  x = static_cast<int>(n);
}

inline void read(const json::Value& v, std::uint64_t& x, const Path& at) {
  expect(v, v.is_number(), "a number", at);
  if (!v.is_integer_token() || v.number_token()[0] == '-') {
    fail(at, "must be a non-negative integer");
  }
  try {
    x = v.as_uint64();
  } catch (const std::out_of_range&) {
    fail(at, "must fit in 64 bits");
  }
}

inline void read(const json::Value& v, bool& x, const Path& at) {
  expect(v, v.is_bool(), "a boolean", at);
  x = v.as_bool();
}

inline void read(const json::Value& v, std::string& x, const Path& at) {
  expect(v, v.is_string(), "a string", at);
  x = v.as_string();
}

template <typename E, std::size_t N>
void read(const json::Value& v, E& x, const Token<E> (&tokens)[N], const Path& at) {
  expect(v, v.is_string(), "a string", at);
  for (const Token<E>& t : tokens) {
    if (v.as_string() == t.name) {
      x = t.value;
      return;
    }
  }
  std::string expected = "expected one of ";
  for (std::size_t i = 0; i < N; ++i) {
    expected += std::string("\"") + tokens[i].name + "\"";
    if (i + 1 < N) expected += ", ";
  }
  fail(at, expected);
}

inline json::Value to_json(double x) { return json::Value::number(x); }
inline json::Value to_json(int x) { return json::Value::number(x); }
inline json::Value to_json(std::uint64_t x) { return json::Value::number(x); }
inline json::Value to_json(bool x) { return json::Value::boolean(x); }
inline json::Value to_json(const std::string& x) { return json::Value::string(x); }

template <typename E, std::size_t N>
const char* token_name(E x, const Token<E> (&tokens)[N]) {
  for (const Token<E>& t : tokens) {
    if (t.value == x) return t.name;
  }
  return tokens[0].name;
}

// --- Visitors ------------------------------------------------------------------

template <typename T>
void load_object(const json::Value& v, T& x, const Path& at,
                 const json::Value* append = nullptr);
template <typename T>
void validate_object(const T& x, const Path& at);
template <typename T>
[[nodiscard]] json::Value dump_object(const T& x);

// Collects an object's keys, retired ones included.
class KeyLister {
 public:
  template <typename... A>
  void field(const char* key, A&&...) { add(key); }
  template <typename... A>
  void time(const char* key, A&&...) { add(key); }
  template <typename... A>
  void object(const char* key, A&&...) { add(key); }
  template <typename... A>
  void array(const char* key, A&&...) { add(key); }
  template <typename... A>
  void retired(const char* key, A&&...) { add(key); }
  void check(const char*, bool, const char*) {}

  [[nodiscard]] bool has(std::string_view key) const {
    for (std::size_t i = 0; i < count_; ++i) {
      if (key == keys_[i]) return true;
    }
    return false;
  }

 private:
  void add(const char* key) {
    if (count_ == keys_.size()) throw std::logic_error("describe() lists too many keys");
    keys_[count_++] = key;
  }

  std::array<const char*, 32> keys_{};
  std::size_t count_ = 0;
};

template <typename T>
void reject_unknown_keys(const json::Value& obj, T& x, const Path& at) {
  KeyLister keys;
  describe(keys, x);
  for (const json::Member& m : obj.members()) {
    if (!keys.has(m.first)) fail(Path{&at, m.first.c_str()}, "unknown key");
  }
}

// Overlays the members present in one JSON object onto a struct; absent
// members keep their values. Reports type errors only, except that each list
// element is validated as it loads: DemandSchedule checks its segments on
// construction, without paths, so they must be valid before it sees them.
// A list whose JSON array is `append` gains its elements instead of being
// replaced by them.
class Loader {
 public:
  Loader(const json::Value& obj, const Path& at, const json::Value* append)
      : obj_(obj), at_(at), append_(append) {}

  template <typename T>
  void field(const char* key, T& x, Rule = {}) {
    if (const json::Value* f = obj_.find(key)) read(*f, x, Path{&at_, key});
  }
  template <typename E, std::size_t N>
  void field(const char* key, E& x, const Token<E> (&tokens)[N]) {
    if (const json::Value* f = obj_.find(key)) read(*f, x, tokens, Path{&at_, key});
  }
  void time(const char* key, double& x) {
    const json::Value* f = obj_.find(key);
    if (f == nullptr) return;
    if (f->is_string()) {
      if (f->as_string() != "inf") fail(Path{&at_, key}, "expected a number or \"inf\"");
      x = std::numeric_limits<double>::infinity();
      return;
    }
    read(*f, x, Path{&at_, key});
  }
  template <typename T>
  void object(const char* key, T& x) {
    if (const json::Value* f = obj_.find(key)) {
      load_object(*f, x, Path{&at_, key}, append_);
    }
  }
  template <typename T>
  void array(const char* key, std::vector<T>& list, const T& prototype) {
    const json::Value* f = obj_.find(key);
    if (f == nullptr) return;
    const Path at{&at_, key};
    expect(*f, f->is_array(), "an array", at);
    if (f != append_) list.clear();
    for (const json::Value& e : f->items()) {
      const Path item{&at, nullptr, list.size()};
      T x = prototype;
      load_object(e, x, item, append_);
      validate_object(x, item);
      list.push_back(std::move(x));
    }
  }
  void check(const char*, bool, const char*) {}
  // A retired count holds the one value its removed feature leaves.
  void retired(const char* key, int& count, int retired_in) {
    const json::Value* f = obj_.find(key);
    if (f == nullptr) return;
    const Path at{&at_, key};
    read(*f, count, at);
    if (count != 1) {
      fail(at, "must be 1 (retired in schema v" + std::to_string(retired_in) + ")");
    }
  }
  template <typename T>
  void retired(const char* key, T& section) {
    object(key, section);
  }

 private:
  const json::Value& obj_;
  const Path& at_;
  const json::Value* append_;
};

class Validator {
 public:
  explicit Validator(const Path& at) : at_(at) {}

  template <typename T>
  void field(const char* key, const T& x, Rule rule = {}) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (rule.admits != nullptr && !rule.admits(static_cast<double>(x))) {
        fail(Path{&at_, key}, rule.problem);
      }
    }
  }
  template <typename E, std::size_t N>
  void field(const char*, const E&, const Token<E> (&)[N]) {}
  void time(const char*, double) {}
  template <typename T>
  void object(const char* key, const T& x) {
    validate_object(x, Path{&at_, key});
  }
  template <typename T>
  void array(const char* key, const std::vector<T>& list, const T&) {
    const Path at{&at_, key};
    for (std::size_t i = 0; i < list.size(); ++i) {
      validate_object(list[i], Path{&at, nullptr, i});
    }
  }
  void check(const char* key, bool ok, const char* problem) {
    if (!ok) fail(Path{&at_, key}, problem);
  }
  template <typename... A>
  void retired(const char*, A&&...) {}

 private:
  const Path& at_;
};

class Dumper {
 public:
  explicit Dumper(json::Value& out) : out_(out) {}

  template <typename T>
  void field(const char* key, const T& x, Rule = {}) {
    out_.set(key, to_json(x));
  }
  template <typename E, std::size_t N>
  void field(const char* key, const E& x, const Token<E> (&tokens)[N]) {
    out_.set(key, json::Value::string(token_name(x, tokens)));
  }
  void time(const char* key, double x) {
    out_.set(key, std::isinf(x) ? json::Value::string("inf") : json::Value::number(x));
  }
  template <typename T>
  void object(const char* key, const T& x) {
    out_.set(key, dump_object(x));
  }
  template <typename T>
  void array(const char* key, const std::vector<T>& list, const T&) {
    json::Value items = json::Value::array();
    for (const T& x : list) items.push_back(dump_object(x));
    out_.set(key, std::move(items));
  }
  void check(const char*, bool, const char*) {}
  template <typename... A>
  void retired(const char*, A&&...) {}

 private:
  json::Value& out_;
};

template <typename T>
void load_object(const json::Value& v, T& x, const Path& at, const json::Value* append) {
  expect(v, v.is_object(), "an object", at);
  reject_unknown_keys(v, x, at);
  Loader loader(v, at, append);
  describe(loader, x);
}

// describe() takes a mutable reference for every visitor; the validator and
// the dumper only read through it.
template <typename T>
void validate_object(const T& x, const Path& at) {
  Validator validator(at);
  describe(validator, const_cast<T&>(x));
}

template <typename T>
json::Value dump_object(const T& x) {
  json::Value out = json::Value::object();
  Dumper dumper(out);
  describe(dumper, const_cast<T&>(x));
  return out;
}

// Loads a versioned document: an object of known keys whose required integer
// "version" passes `check_version` (which throws) before any other member is
// read. Validation is left to the caller.
template <typename T, typename CheckVersion>
void load_document(const json::Value& doc, T& x, CheckVersion check_version) {
  const Path root;
  if (!doc.is_object()) {
    throw ScenarioIoError("$", std::string("expected an object, got ") + doc.type_name());
  }
  reject_unknown_keys(doc, x, root);
  const json::Value* version = doc.find("version");
  if (version == nullptr) throw ScenarioIoError("version", "required field is missing");
  int v = 0;
  read(*version, v, Path{&root, "version"});
  check_version(v);
  Loader loader(doc, root, nullptr);
  describe(loader, x);
}

}  // namespace abp::scenario::schema
