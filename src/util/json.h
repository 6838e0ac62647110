// Minimal JSON value type with a writer and a recursive-descent parser.
//
// SEGA-DCIM emits machine-readable compilation reports (Pareto fronts, layout
// summaries, experiment records) and reads user specs; a full third-party JSON
// dependency is deliberately avoided to keep the compiler self-contained.
//
// The number and string codec under dump() and parse() is public too: the
// cost memo writes and reads its entry lines as text through it
// (cost/cost_cache.cpp), in exactly Json's forms, without building a Json.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

// --- Number and string codec ---------------------------------------------

/// Append the JSON text of @p d (docs/FORMATS.md, "Numbers"): an integral
/// |d| < 1e15 as a plain integer (negative zero as "-0"); any other finite
/// d as the shortest %.{P}g, P <= 17, that parses back to the same binary64;
/// a non-finite d in its %.17g form ("inf", "nan"), which no reader takes.
void append_number(std::string& out, double d);

/// Append @p s as a quoted JSON string: '"', '\\' and control characters
/// escaped, every other byte copied as is.
void escape_into(std::string& out, std::string_view s);

/// Outcome of scan_number.
enum class NumberScan { kOk, kNoDigits, kOutOfRange };

/// Scan the longest prefix of [first, last) that Json::parse's number
/// grammar takes — an optional '-' or '+', digits, an optional fraction, an
/// optional exponent — and read it into *value.  *end is set past the
/// scanned span on every outcome; *value only on kOk.  kNoDigits: the span
/// holds no digit (a bare sign, `inf`, `nan`); kOutOfRange: std::from_chars
/// rejects the span (".e1"), it overflows, or a nonzero literal underflows
/// to zero.  The grammar is lax ("+1", "5.", "1e" are numbers); a reader
/// that wants one canonical form compares the span with append_number's
/// text of *value.
NumberScan scan_number(const char* first, const char* last, const char** end,
                       double* value);

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
