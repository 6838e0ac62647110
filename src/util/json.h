// Minimal JSON value type with a writer and a recursive-descent parser.
//
// SEGA-DCIM emits machine-readable compilation reports (Pareto fronts, layout
// summaries, experiment records) and reads user specs; a full third-party JSON
// dependency is deliberately avoided to keep the compiler self-contained.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sega {

/// A dynamically-typed JSON value (null / bool / number / string / array /
/// object).  Numbers are stored as double, which is lossless for the integer
/// ranges this library serializes (< 2^53).
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int i) : type_(Type::Number), num_(i) {}
  Json(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : type_(Type::Number), num_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; precondition: matching type.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  /// Object access.  operator[] inserts a null member when missing (and
  /// converts a fresh null value to an object, mirroring common JSON APIs).
  Json& operator[](const std::string& key);
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  const std::map<std::string, Json>& items() const;
  const std::vector<Json>& elements() const;

  /// Serialize.  @p indent < 0 means compact single-line output.  Numbers
  /// are written by the rule in docs/FORMATS.md: an integral |x| < 1e15 as
  /// a plain integer, any other finite x as its shortest round-trip %.{P}g.
  std::string dump(int indent = -1) const;

  /// Parse; returns std::nullopt (and fills *error if given) on malformed
  /// input.  Containers may nest at most 128 levels — deeper input is a
  /// parse error, never unbounded recursion (the parser also reads
  /// untrusted request lines in the `sega_dcim serve` daemon).
  static std::optional<Json> parse(const std::string& text,
                                   std::string* error = nullptr);

  bool operator==(const Json& other) const;

 private:
  friend std::uint32_t json_line_checksum(const Json& line);

  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

// --- JSONL line integrity -------------------------------------------------
//
// The persisted JSONL formats (sweep checkpoints, cost memos) protect each
// data line with a self-checksum under the reserved key "c": FNV-1a over the
// compact dump of the line *without* that key.  Object keys dump in sorted
// order, so the payload serialization is canonical and the checksum is
// stable across writers.  A line whose bytes were corrupted in place — even
// into different-but-parseable JSON (a flipped digit inside a metric) — no
// longer matches and is treated as corrupt instead of becoming a value.

/// FNV-1a (32-bit) checksum of @p line's compact dump, excluding its
/// top-level "c" member.  Precondition: line is an object.
std::uint32_t json_line_checksum(const Json& line);

/// Stamp line["c"] with json_line_checksum(line).
void stamp_line_checksum(Json* line);

/// True iff @p line is an object whose "c" member is a number equal to the
/// checksum of the rest.  A missing, wrong-typed, or mismatched "c" is a
/// verification failure (readers treat the line as corrupt).
bool check_line_checksum(const Json& line);

}  // namespace sega
