#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <system_error>

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

bool Json::as_bool() const {
  SEGA_EXPECTS(is_bool());
  return bool_;
}

double Json::as_number() const {
  SEGA_EXPECTS(is_number());
  return num_;
}

std::int64_t Json::as_int() const {
  SEGA_EXPECTS(is_number());
  return static_cast<std::int64_t>(std::llround(num_));
}

const std::string& Json::as_string() const {
  SEGA_EXPECTS(is_string());
  return str_;
}

void Json::push_back(Json v) {
  SEGA_EXPECTS(is_array() || is_null());
  type_ = Type::Array;
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  SEGA_EXPECTS(is_array() && i < arr_.size());
  return arr_[i];
}

Json& Json::operator[](const std::string& key) {
  SEGA_EXPECTS(is_object() || is_null());
  type_ = Type::Object;
  return obj_[key];
}

bool Json::contains(const std::string& key) const {
  return is_object() && obj_.count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  SEGA_EXPECTS(contains(key));
  return obj_.at(key);
}

const std::map<std::string, Json>& Json::items() const {
  SEGA_EXPECTS(is_object());
  return obj_;
}

const std::vector<Json>& Json::elements() const {
  SEGA_EXPECTS(is_array());
  return arr_;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return num_ == other.num_;
    case Type::String: return str_ == other.str_;
    case Type::Array: return arr_ == other.arr_;
    case Type::Object: return obj_ == other.obj_;
  }
  return false;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Append the JSON text of @p d (docs/FORMATS.md, "Numbers"): an integral
/// |d| < 1e15 as a plain integer (negative zero as "-0"); any other finite
/// d as the shortest %.{P}g, P <= 17, that parses back to the same binary64.
/// No P below the digit count D of the shortest round-trip form can round
/// trip, so the search starts at D; it continues past D because the
/// correctly rounded D-digit string need not be the round-trip one (the
/// rounding interval of a power of two is asymmetric).
void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += strfmt("%.17g", d);
    return;
  }
  char buf[32];
  char* const first = buf;
  char* const last = buf + sizeof buf;
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    if (d == 0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    char* const text =
        std::to_chars(first, last, static_cast<std::int64_t>(d)).ptr;
    out.append(first, text);
    return;
  }
  char* const shortest =
      std::to_chars(first, last, d, std::chars_format::scientific).ptr;
  const auto digits = static_cast<int>(
      std::count_if(first, std::find(first, shortest, 'e'),
                    [](char c) { return c >= '0' && c <= '9'; }));
  for (int precision = digits; precision < 17; ++precision) {
    char* const text =
        std::to_chars(first, last, d, std::chars_format::general, precision)
            .ptr;
    double back = 0;
    if (std::from_chars(first, text, back).ec == std::errc() && back == d) {
      out.append(first, text);
      return;
    }
  }
  char* const text =
      std::to_chars(first, last, d, std::chars_format::general, 17).ptr;
  out.append(first, text);
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
  const std::string closing_pad = pretty ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";

  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String: escape_into(out, str_); break;
    case Type::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += pad;
        arr_[i].dump_impl(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += nl;
      }
      out += closing_pad;
      out += ']';
      break;
    }
    case Type::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : obj_) {
        out += pad;
        escape_into(out, k);
        out += colon;
        v.dump_impl(out, indent, depth + 1);
        if (++i < obj_.size()) out += ',';
        out += nl;
      }
      out += closing_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  // Nesting bound for the recursive-descent value parser.  Parsing is one
  // stack frame per level, so without a cap a hostile payload of a few
  // hundred kilobytes of "[[[[..." overflows the parser's stack — undefined
  // behavior an always-on daemon reading untrusted request lines cannot
  // afford.  Every format this library produces nests a handful of levels;
  // 128 is orders of magnitude of headroom while keeping worst-case stack
  // use trivially small.
  static constexpr int kMaxDepth = 128;

  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after top-level value");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& msg) {
    if (error_ && error_->empty()) {
      *error_ = strfmt("JSON parse error at offset %zu: %s", pos_, msg.c_str());
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxDepth) {
        fail("nesting too deep");
        return std::nullopt;
      }
      ++depth_;
      auto v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::optional<Json> parse_object() {
    SEGA_ASSERT(consume('{'));
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      obj[key->as_string()] = std::move(*val);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    SEGA_ASSERT(consume('['));
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad hex digit in \\u escape");
                return std::nullopt;
              }
            }
            // Encode as UTF-8 (basic multilingual plane only — sufficient for
            // report payloads this library produces).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json(false);
    }
    fail("expected boolean");
    return std::nullopt;
  }

  std::optional<Json> parse_null() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json(nullptr);
    }
    fail("expected null");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool any = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      eat_digits();
    }
    if (!any) {
      fail("expected number");
      return std::nullopt;
    }
    // from_chars reads the scanned span in place, the way strtod would past
    // the sign it does not take ('+'), and ignores a dangling exponent
    // marker ("1e" is 1).  A span it rejects (".e1"), overflow, and a
    // nonzero literal that underflows to zero (a corrupted file whose digits
    // were duplicated) are parse errors, never exceptions out of parse().
    const char* first = text_.data() + start;
    if (*first == '+') ++first;
    double value = 0;
    if (std::from_chars(first, text_.data() + pos_, value).ec != std::errc()) {
      fail("number out of range");
      return std::nullopt;
    }
    return Json(value);
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  if (error) error->clear();
  return Parser(text, error).run();
}

// --- JSONL line integrity -------------------------------------------------

std::uint32_t json_line_checksum(const Json& line) {
  SEGA_EXPECTS(line.is_object());
  // Canonical payload: the compact dump of the object minus its top-level
  // "c" member, serialized member-by-member into one buffer (same bytes as
  // dumping a copy without "c" — keys iterate in sorted order and members
  // dump compact — but with no deep copy of the line).
  std::string text = "{";
  bool first = true;
  for (const auto& [key, value] : line.items()) {
    if (key == "c") continue;
    if (!first) text += ',';
    first = false;
    escape_into(text, key);
    text += ':';
    value.dump_impl(text, -1, 0);
  }
  text += '}';
  return fnv1a32(text);
}

void stamp_line_checksum(Json* line) {
  SEGA_EXPECTS(line != nullptr);
  (*line)["c"] = static_cast<std::int64_t>(json_line_checksum(*line));
}

bool check_line_checksum(const Json& line) {
  if (!line.is_object() || !line.contains("c") || !line.at("c").is_number()) {
    return false;
  }
  return line.at("c").as_int() ==
         static_cast<std::int64_t>(json_line_checksum(line));
}

}  // namespace sega
