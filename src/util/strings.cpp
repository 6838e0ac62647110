#include "util/strings.h"

#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <type_traits>

#include "util/assert.h"

namespace sega {

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  SEGA_ASSERT(needed >= 0);
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string si_format(double value, const char* unit, int precision) {
  struct Prefix {
    double scale;
    const char* name;
  };
  static constexpr Prefix kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},   {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  if (value == 0.0) return strfmt("0 %s", unit);
  const double mag = std::fabs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale) {
      return strfmt("%.*f %s%s", precision, value / p.scale, p.name, unit);
    }
  }
  return strfmt("%.*e %s", precision, value, unit);
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool is_verilog_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_'))
    return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$'))
      return false;
  }
  return true;
}

std::string to_verilog_identifier(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 1);
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  SEGA_ENSURES(is_verilog_identifier(out));
  return out;
}

std::string to_upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

template <typename T>
bool parse_number_strict(const std::string& text, T* out) {
  const char* const last = text.data() + text.size();
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

template bool parse_number_strict(const std::string&, int*);
template bool parse_number_strict(const std::string&, std::int64_t*);
template bool parse_number_strict(const std::string&, std::uint64_t*);
template bool parse_number_strict(const std::string&, double*);

std::string shard_file_path(const std::string& base, int index, int count) {
  return strfmt("%s.shard-%d-of-%d", base.c_str(), index, count);
}

bool write_file_atomic(const std::string& path, const char* what,
                       const std::function<bool(std::ostream&)>& writer,
                       std::string* error) {
  const std::string tmp =
      strfmt("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = strfmt("cannot write %s '%s'", what, tmp.c_str());
    return false;
  }
  const bool written = writer(out);
  out.close();  // flushes; a failed flush or close sets failbit
  std::error_code ec;
  if (written && out) {
    std::filesystem::rename(tmp, path, ec);
    if (!ec) return true;
  }
  std::error_code cleanup_ec;
  std::filesystem::remove(tmp, cleanup_ec);
  if (error && written) {
    *error = !out ? strfmt("write to %s '%s' failed", what, tmp.c_str())
                  : strfmt("cannot rename %s '%s' into place: %s", what,
                           path.c_str(), ec.message().c_str());
  }
  return false;
}

std::string heartbeat_file_path(const std::string& checkpoint) {
  return checkpoint + ".hb";
}

std::uint32_t fnv1a32(const std::string& bytes) {
  std::uint32_t hash = 2166136261u;  // FNV-1a offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 16777619u;  // FNV prime
  }
  return hash;
}

}  // namespace sega
