// String formatting helpers (engineering-unit pretty printing, joining,
// identifier mangling for generated RTL).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sega {

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Format a value with an SI engineering prefix, e.g. 1.25e-9 s -> "1.25 ns".
/// @p unit is appended after the prefix.
std::string si_format(double value, const char* unit, int precision = 3);

/// Join @p parts with @p sep.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True iff @p s is a legal Verilog simple identifier.
bool is_verilog_identifier(const std::string& s);

/// Mangle an arbitrary string into a legal Verilog identifier.
std::string to_verilog_identifier(const std::string& s);

/// Upper-case ASCII copy.
std::string to_upper(std::string s);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

/// Trim ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Split on a delimiter character; empty fields preserved.
std::vector<std::string> split(const std::string& s, char delim);

/// True iff @p s starts with @p prefix.
bool starts_with(const std::string& s, const std::string& prefix);

/// Parse all of @p text as one decimal number into *out: digits with an
/// optional leading '-' (none for unsigned T) and, for double, an optional
/// fraction and exponent.  Rejects everything else — an empty string,
/// whitespace, a leading '+', trailing text ("16x", "2e3" for an integer),
/// hex, a value out of T's range, and for double `nan`, `inf` and a nonzero
/// literal that underflows to zero — leaving *out untouched.  The one
/// parser behind every numeric CLI flag and environment knob.
/// Instantiated for int, std::int64_t, std::uint64_t and double.
template <typename T>
bool parse_number_strict(const std::string& text, T* out);

/// `<base>.shard-<index>-of-<count>`: the per-worker file naming scheme of
/// the sharded sweep (checkpoint shards and cost-memo shards share it).
/// Requires count >= 1 and 0 <= index < count.
std::string shard_file_path(const std::string& base, int index, int count);

/// Replace the file at @p path atomically: @p writer streams the new
/// content into the per-process temp file `<path>.tmp.<pid>`, which is then
/// renamed over @p path, so readers (and a crash) see the old file or the
/// new one whole, never a torn mix, and concurrent writers in different
/// processes never share a temp file.  On any failure the temp file is
/// removed, @p path keeps its old bytes and false is returned: when
/// @p writer returns false it has reported its own failure; otherwise
/// *error (if non-null) names the step that failed, @p what naming the
/// file ("cost cache").  The one write-temp-then-rename in the repo.
bool write_file_atomic(const std::string& path, const char* what,
                       const std::function<bool(std::ostream&)>& writer,
                       std::string* error);

/// `<checkpoint>.hb`: the heartbeat file a sweep worker appends liveness
/// lines to (one per K completed cells); the orchestrate supervisor watches
/// it to detect stalled workers (docs/FORMATS.md).
std::string heartbeat_file_path(const std::string& checkpoint);

/// FNV-1a (32-bit) of @p bytes — the one content hash behind the JSONL
/// line checksums, the calibration artifact digest and serve's memo delta
/// file names.  Its values are persisted in those formats: never change it.
/// The hash is its own state, so fnv1a32(b, fnv1a32(a)) is the hash of the
/// bytes of a followed by those of b.
std::uint32_t fnv1a32(std::string_view bytes,
                      std::uint32_t hash = 2166136261u /* offset basis */);

}  // namespace sega
