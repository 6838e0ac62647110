#include "cost/cost_cache.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cost/calibrate.h"
#include "cost/layout_cost.h"
#include "tech/techlib_parser.h"
#include "util/assert.h"
#include "util/strings.h"

namespace sega {

CostCache::CostCache(const Technology& tech, EvalConditions cond)
    : owned_(std::make_unique<AnalyticCostModel>(tech, cond)),
      model_(owned_.get()) {}

CostCache::CostCache(std::unique_ptr<const CostModel> model)
    : owned_(std::move(model)), model_(owned_.get()) {
  SEGA_EXPECTS(model_ != nullptr);
}

CostCache::CostCache(const CostModel& model) : model_(&model) {}

CostCache::Key CostCache::key_of(const DesignPoint& dp) {
  return Key(static_cast<int>(dp.arch), static_cast<int>(dp.precision.kind),
             dp.precision.int_bits, dp.precision.exp_bits,
             dp.precision.mant_bits, dp.n, dp.h, dp.l, dp.k,
             dp.signed_weights, dp.pipelined_tree);
}

std::size_t CostCache::shard_index_of(const Key& key) {
  // Cheap mix of the geometry coordinates; precision/arch vary little within
  // one run, so (n, h, l, k) carry the entropy.
  const auto n = static_cast<std::uint64_t>(std::get<5>(key));
  const auto h = static_cast<std::uint64_t>(std::get<6>(key));
  const auto l = static_cast<std::uint64_t>(std::get<7>(key));
  const auto k = static_cast<std::uint64_t>(std::get<8>(key));
  const std::uint64_t mixed =
      (n * 0x9E3779B97F4A7C15ull) ^ (h * 0xC2B2AE3D27D4EB4Full) ^
      (l * 0x165667B19E3779F9ull) ^ k;
  return mixed % kShards;
}

CostCache::Shard& CostCache::shard_of(const Key& key) const {
  return shards_[shard_index_of(key)];
}

MacroMetrics CostCache::evaluate(const DesignPoint& dp) const {
  MacroMetrics metrics;
  evaluate_batch(Span<const DesignPoint>(&dp, 1), Span<MacroMetrics>(&metrics, 1));
  return metrics;
}

void CostCache::evaluate_batch(Span<const DesignPoint> points,
                               Span<MacroMetrics> out) const {
  SEGA_EXPECTS(points.size() == out.size());
  if (points.empty()) return;

  // Phase 1 — classify under the shard locks.  An absent key is claimed with
  // a pending marker, so exactly one caller process-wide evaluates it; a key
  // pending on another caller (or earlier in this very batch) is parked for
  // phase 4.
  std::vector<Key> keys(points.size());
  std::vector<std::size_t> miss;
  std::vector<std::size_t> parked;
  std::uint64_t hit_count = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    keys[i] = key_of(points[i]);
    Shard& shard = shard_of(keys[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.table.try_emplace(keys[i]);
    if (inserted) {
      miss.push_back(i);
    } else if (it->second.ready) {
      out[i] = it->second.metrics;
      ++hit_count;
    } else {
      parked.push_back(i);
    }
  }

  // Phase 2 — evaluate the cold remainder as one batch through the model.
  // If the model throws (a caller-provided implementation, or allocation
  // failure), the claims are unwound and waiters woken before rethrowing —
  // an abandoned pending marker would deadlock every later lookup of that
  // key.  Woken waiters observe the vanished entry and re-claim it
  // themselves (see phase 4), so the cache stays usable after the error.
  if (!miss.empty()) {
    std::vector<MacroMetrics> fresh(miss.size());
    try {
      std::vector<DesignPoint> cold;
      cold.reserve(miss.size());
      for (const std::size_t i : miss) cold.push_back(points[i]);
      model_->evaluate_batch(Span<const DesignPoint>(cold),
                             Span<MacroMetrics>(fresh));
    } catch (...) {
      for (const std::size_t i : miss) {
        Shard& shard = shard_of(keys[i]);
        {
          std::lock_guard<std::mutex> lock(shard.mu);
          const auto it = shard.table.find(keys[i]);
          if (it != shard.table.end() && !it->second.ready) {
            shard.table.erase(it);
          }
        }
        shard.cv.notify_all();
      }
      throw;
    }

    // Phase 3 — publish and wake parked requesters.
    for (std::size_t j = 0; j < miss.size(); ++j) {
      const std::size_t i = miss[j];
      out[i] = fresh[j];
      Shard& shard = shard_of(keys[i]);
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        Entry& entry = shard.table[keys[i]];
        entry.metrics = std::move(fresh[j]);
        entry.ready = true;
      }
      shard.cv.notify_all();
    }
    misses_.fetch_add(miss.size(), std::memory_order_relaxed);
  }

  // Phase 4 — collect keys another caller is computing.  Markers claimed by
  // this batch are already published (phase 3 runs first), so waiting here
  // is only ever on other threads' in-flight evaluations.  A key that
  // vanishes while parked means its claimer's model call threw: take over
  // the claim and evaluate it here (counted as a miss — it reaches the
  // model exactly once).
  for (const std::size_t i : parked) {
    Shard& shard = shard_of(keys[i]);
    std::unique_lock<std::mutex> lock(shard.mu);
    bool claimed = false;
    for (;;) {
      const auto it = shard.table.find(keys[i]);
      if (it == shard.table.end()) {
        shard.table.try_emplace(keys[i]);
        claimed = true;
        break;
      }
      if (it->second.ready) {
        out[i] = it->second.metrics;
        ++hit_count;
        break;
      }
      shard.cv.wait(lock);
    }
    if (!claimed) continue;
    lock.unlock();
    MacroMetrics metrics;
    try {
      metrics = model_->evaluate(points[i]);
    } catch (...) {
      {
        std::lock_guard<std::mutex> relock(shard.mu);
        const auto it = shard.table.find(keys[i]);
        if (it != shard.table.end() && !it->second.ready) {
          shard.table.erase(it);
        }
      }
      shard.cv.notify_all();
      throw;
    }
    out[i] = metrics;
    {
      std::lock_guard<std::mutex> relock(shard.mu);
      Entry& entry = shard.table[keys[i]];
      entry.metrics = std::move(metrics);
      entry.ready = true;
    }
    shard.cv.notify_all();
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (hit_count > 0) hits_.fetch_add(hit_count, std::memory_order_relaxed);
}

std::size_t CostCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.table) {
      if (entry.ready) ++total;
    }
  }
  return total;
}

void CostCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.table.clear();
  }
  hits_.store(0);
  misses_.store(0);
}

// ------------------------------------------------------------ persistence
//
// The memo codec.  An entry line is written as text straight from the table
// and read back by a scanner for that one form; neither side builds a Json.
// The line is Json's compact dump of the entry object — members in sorted
// key order, numbers and strings by util/json.h's codec:
//
//   {"ab":{...},"c":<n>,"eb":{...},"g":[8 ints],"k":[9 ints,2 bools],
//    "m":[13 doubles,1 int]}
//
// so "c", FNV-1a over the line without its `"c":<n>,`, is the checksum
// docs/FORMATS.md defines for every JSONL data line: FNV-1a over the
// canonical dump of the rest.

namespace {

constexpr const char* kMemoMarker = "sega_cost_memo";

/// The doubles of an entry's "m" array, in order; cycles_per_input follows
/// them as the last element.  append_memo_entry and parse_memo_entry both
/// walk this one table, so writer and reader cannot disagree on the order.
constexpr double MacroMetrics::*kMetricFields[] = {
    &MacroMetrics::area_gates,          &MacroMetrics::delay_gates,
    &MacroMetrics::energy_gates,        &MacroMetrics::area_um2,
    &MacroMetrics::area_mm2,            &MacroMetrics::delay_ns,
    &MacroMetrics::freq_ghz,            &MacroMetrics::energy_per_cycle_fj,
    &MacroMetrics::power_w,             &MacroMetrics::energy_per_mvm_nj,
    &MacroMetrics::throughput_tops,     &MacroMetrics::tops_per_w,
    &MacroMetrics::tops_per_mm2};

/// An integer as Json writes it: the number form of its double.
void append_integer(std::string& out, std::int64_t value) {
  append_number(out, static_cast<double>(value));
}

/// A key field as Json writes it: a bool as its literal, an integer as
/// append_integer does.
template <typename Field>
void append_key_field(std::string& out, Field field) {
  if constexpr (std::is_same_v<Field, bool>) {
    out += field ? "true" : "false";
  } else {
    append_integer(out, field);
  }
}

void append_breakdown(std::string& out,
                      const std::map<std::string, double>& breakdown) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : breakdown) {
    if (!first) out += ',';
    first = false;
    escape_into(out, name);
    out += ':';
    append_number(out, value);
  }
  out += '}';
}

/// Reads an entry line left to right in exactly the form append_memo_entry
/// writes: each call consumes one expected piece or fails, and any failure
/// makes the line corrupt.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line)
      : pos_(line.data()), end_(line.data() + line.size()) {}

  const char* pos() const { return pos_; }
  bool done() const { return pos_ == end_; }

  bool literal(char c) {
    if (pos_ == end_ || *pos_ != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view text) {
    if (static_cast<std::size_t>(end_ - pos_) < text.size() ||
        std::memcmp(pos_, text.data(), text.size()) != 0) {
      return false;
    }
    pos_ += text.size();
    return true;
  }

  /// A number in Json::parse's grammar whose text is append_number's form
  /// of its own value — the only form the writer emits ("8192.0", "1e3"
  /// and "+1" are corrupt here).
  bool number(double* value) {
    const char* end = pos_;
    if (scan_number(pos_, end_, &end, value) != NumberScan::kOk) return false;
    canonical_.clear();
    append_number(canonical_, *value);
    if (std::string_view(pos_, static_cast<std::size_t>(end - pos_)) !=
        canonical_) {
      return false;
    }
    pos_ = end;
    return true;
  }

  /// An integer as append_integer writes one: the number form of an
  /// integral double in int64 range, never "-0".
  bool integer(std::int64_t* value) {
    double d = 0;
    if (!number(&d) || !(d >= -0x1p63 && d < 0x1p63)) return false;
    *value = static_cast<std::int64_t>(d);
    return d == static_cast<double>(*value) && !(d == 0 && std::signbit(d));
  }

  /// @p count comma-separated integers.
  bool integers(std::int64_t* values, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if ((i > 0 && !literal(',')) || !integer(&values[i])) return false;
    }
    return true;
  }

  bool boolean(bool* value) {
    *value = literal("true");
    return *value || literal("false");
  }

  /// A breakdown name: a quoted string with no escape sequence and no
  /// control character.  escape_into writes any other name with escapes,
  /// which this reader does not take.
  bool name(std::string_view* value) {
    if (!literal('"')) return false;
    const char* const first = pos_;
    while (pos_ != end_ && *pos_ != '"') {
      if (*pos_ == '\\' || static_cast<unsigned char>(*pos_) < 0x20) {
        return false;
      }
      ++pos_;
    }
    if (pos_ == end_) return false;
    *value = std::string_view(first, static_cast<std::size_t>(pos_ - first));
    ++pos_;
    return true;
  }

 private:
  const char* pos_;
  const char* end_;
  std::string canonical_;  ///< number()'s scratch, reused across calls
};

/// A breakdown map, names strictly increasing: the order std::map writes.
bool read_breakdown(LineScanner& in, std::map<std::string, double>* out) {
  if (!in.literal('{')) return false;
  if (in.literal('}')) return true;
  std::string_view previous;
  bool first = true;
  do {
    std::string_view name;
    double value = 0;
    if (!in.name(&name) || (!first && name <= previous) || !in.literal(':') ||
        !in.number(&value)) {
      return false;
    }
    out->emplace_hint(out->end(), name, value);
    previous = name;
    first = false;
  } while (in.literal(','));
  return in.literal('}');
}

}  // namespace

void CostCache::append_memo_entry(std::string& out, const Key& key,
                                  const MacroMetrics& m) {
  const std::size_t start = out.size();
  out += "{\"ab\":";
  append_breakdown(out, m.area_breakdown);
  const std::size_t stamp = out.size();
  out += ",\"eb\":";
  append_breakdown(out, m.energy_breakdown);
  out += ",\"g\":[";
  for (std::size_t i = 0; i < m.gates.counts.size(); ++i) {
    if (i > 0) out += ',';
    append_integer(out, m.gates.counts[i]);
  }
  out += "],\"k\":[";
  std::apply(
      [&out](const auto&... field) {
        const char* separator = "";
        ((out += std::exchange(separator, ","),
          append_key_field(out, field)),
         ...);
      },
      key);
  out += "],\"m\":[";
  for (const auto field : kMetricFields) {
    append_number(out, m.*field);
    out += ',';
  }
  append_integer(out, m.cycles_per_input);
  out += "]}";
  // The payload is complete: checksum it and splice "c" in where it sorts.
  std::string checksum = ",\"c\":";
  append_integer(checksum, fnv1a32(std::string_view(out).substr(start)));
  out.insert(stamp, checksum);
  out += '\n';
}

bool CostCache::parse_memo_entry(std::string_view line, Key* key,
                                 MacroMetrics* m) {
  LineScanner in(line);
  if (!in.literal("{\"ab\":") || !read_breakdown(in, &m->area_breakdown)) {
    return false;
  }
  const char* const stamp = in.pos();
  std::int64_t checksum = 0;
  if (!in.literal(",\"c\":") || !in.integer(&checksum)) return false;
  const char* const rest = in.pos();
  std::int64_t fields[9];
  bool flags[2];
  if (!in.literal(",\"eb\":") || !read_breakdown(in, &m->energy_breakdown) ||
      !in.literal(",\"g\":[") ||
      !in.integers(m->gates.counts.data(), m->gates.counts.size()) ||
      !in.literal("],\"k\":[") || !in.integers(fields, 9) ||
      !in.literal(',') || !in.boolean(&flags[0]) || !in.literal(',') ||
      !in.boolean(&flags[1]) || !in.literal("],\"m\":[")) {
    return false;
  }
  for (const auto field : kMetricFields) {
    if (!in.number(&(m->*field)) || !in.literal(',')) return false;
  }
  if (!in.integer(&m->cycles_per_input) || !in.literal("]}") || !in.done()) {
    return false;
  }
  const std::string_view head(line.data(),
                              static_cast<std::size_t>(stamp - line.data()));
  const std::string_view tail(
      rest, static_cast<std::size_t>(line.data() + line.size() - rest));
  if (checksum != fnv1a32(tail, fnv1a32(head))) return false;
  *key = Key(static_cast<int>(fields[0]), static_cast<int>(fields[1]),
             static_cast<int>(fields[2]), static_cast<int>(fields[3]),
             static_cast<int>(fields[4]), fields[5], fields[6], fields[7],
             fields[8], flags[0], flags[1]);
  return true;
}

bool CostCache::read_memo(const std::string& path,
                          const HeaderVetter& vet_header,
                          const EntrySink& on_entry,
                          std::size_t* corrupt_lines, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  std::ifstream in(path);
  if (!in) return fail(strfmt("cannot read cost cache '%s'", path.c_str()));
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    if (!have_header) {
      const auto parsed = Json::parse(line);
      if (!parsed || !parsed->is_object() || !parsed->contains(kMemoMarker)) {
        break;
      }
      const std::string refusal = vet_header(*parsed, line);
      if (!refusal.empty()) return fail(refusal);
      have_header = true;
      continue;
    }
    // Entry lines: tolerate truncated/corrupt lines (external corruption or
    // a partially copied file) by skipping them — a bad line must never
    // become a metric.  The checksum catches corruption that *stays*
    // parseable (a flipped digit inside a metric), not just structural
    // damage.
    Key key;
    MacroMetrics m;
    if (!parse_memo_entry(line, &key, &m)) {
      ++*corrupt_lines;
      continue;
    }
    on_entry(key, std::move(m), line);
  }
  if (!have_header) {
    return fail(strfmt("cost cache '%s' has a missing or malformed header",
                       path.c_str()));
  }
  return true;
}

bool CostCache::compact_memo_files(const std::vector<std::string>& sources,
                                   const std::string& out_path,
                                   std::string* error, CompactStats* stats) {
  CompactStats local_stats;
  CompactStats& st = stats ? *stats : local_stats;
  st = CompactStats{};

  // Fold every source line-at-a-time, in priority order (base memo before
  // deltas, matching load()'s existing-entries-win merge): every header
  // must equal the first source's, and the first line of each key wins.
  // The winners are kept as their line text in save()'s canonical order
  // (shard bucket, then key), so the output copies them verbatim.
  std::map<std::pair<std::size_t, Key>, std::string> winners;
  std::string header_text;  // first source's header line, copied verbatim
  std::optional<Json> header_json;
  for (const std::string& path : sources) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const bool read = read_memo(
        path,
        [&](const Json& header, const std::string& text) {
          if (!header_json) {
            header_json = header;
            header_text = text;
          } else if (!(header == *header_json)) {
            return strfmt(
                "cost cache '%s' was written under a different cost model, "
                "technology, conditions, or model version than the first "
                "source; refusing to merge",
                path.c_str());
          }
          return std::string();
        },
        [&](const Key& key, MacroMetrics&&, const std::string& text) {
          if (!winners.try_emplace(std::make_pair(shard_index_of(key), key),
                                   text)
                   .second) {
            ++st.duplicates;
          }
        },
        &st.corrupt_lines, error);
    if (!read) return false;
    ++st.files_merged;
  }
  if (!header_json) {
    if (error) *error = "memo-compact found none of the given memo files";
    return false;
  }

  // The atomic replace keeps the output whole even when it overwrites one
  // of the sources.
  const bool written = write_file_atomic(
      out_path, "cost cache",
      [&](std::ostream& out) {
        out << header_text << '\n';
        for (const auto& [bucket_key, text] : winners) out << text << '\n';
        return true;
      },
      error);
  if (!written) return false;
  st.entries = winners.size();
  return true;
}

Json CostCache::fingerprint_header() const {
  Json config = Json::object();
  config["techlib"] = write_techlib(model_->tech());
  const EvalConditions& cond = model_->conditions();
  config["supply_v"] = cond.supply_v;
  config["sparsity"] = cond.input_sparsity;
  config["activity"] = cond.activity;
  Json j = Json::object();
  j[kMemoMarker] = 1;
  // The backend identity is part of the fingerprint: an analytic memo and
  // an RTL-measured memo describe different quantities and must never be
  // loaded into each other's caches.
  j["model"] = model_->model_name();
  j["model_version"] = model_->model_version();
  j["config"] = std::move(config);
  // Calibration is model identity too: memos computed under a calibration
  // artifact carry its version+digest, uncalibrated memos carry no key at
  // all (keeping pre-calibration memo files byte-identical and loadable).
  // load()'s exact-header match then rejects both cross-contamination
  // directions for free.
  if (const auto cal = model_->calibration()) {
    j["calibration"] = cal->fingerprint();
  }
  // The layout/interconnect stage follows the same only-when-enabled rule:
  // layout-off memos carry no key (pre-existing files stay byte-identical),
  // layout-on memos carry the stage's formula version, and the exact-header
  // match rejects cross-loads in both directions.
  if (model_->layout_enabled()) {
    j["layout"] = kLayoutCostVersion;
  }
  return j;
}

bool CostCache::save(const std::string& path, std::string* error) const {
  return save_impl(path, error, /*delta_only=*/false);
}

bool CostCache::save_delta(const std::string& path, std::string* error) const {
  return save_impl(path, error, /*delta_only=*/true);
}

bool CostCache::save_impl(const std::string& path, std::string* error,
                          bool delta_only) const {
  // Snapshot under the shard locks (in shard/key order, so identical
  // contents serialize identically).
  std::string text = fingerprint_header().dump();
  text += '\n';
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.table) {
      if (!entry.ready) continue;
      if (delta_only && entry.imported) continue;
      append_memo_entry(text, key, entry.metrics);
    }
  }

  // Concurrent savers of one shared cache file each write their own temp;
  // the last completed rename wins whole.
  return write_file_atomic(
      path, "cost cache",
      [&](std::ostream& out) {
        out << text;
        return true;
      },
      error);
}

bool CostCache::load(const std::string& path, std::string* error,
                     bool mark_imported) {
  const Json expected = fingerprint_header();
  std::size_t corrupt_lines = 0;
  return read_memo(
      path,
      [&](const Json& header, const std::string&) {
        // The header must identify a memo for exactly this model: same
        // formulas (version), same technology, same conditions.
        if (header == expected) return std::string();
        return strfmt(
            "cost cache '%s' was written for a different cost model, "
            "technology, conditions, or model version; delete it or fix "
            "the spec",
            path.c_str());
      },
      [&](const Key& key, MacroMetrics&& m, const std::string&) {
        // Merge: existing entries win (for a matching fingerprint the
        // values are identical anyway — the model is pure), and keep their
        // imported flag — provenance is first-load-wins.  With the sweep's
        // load order (base memo first, own shard second) an entry present
        // in both files stays imported and is deduped out of the next
        // save_delta(): the base already persists it.
        Shard& shard = shard_of(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto [it, inserted] = shard.table.try_emplace(key);
        if (inserted || !it->second.ready) {
          it->second.metrics = std::move(m);
          it->second.ready = true;
          it->second.imported = mark_imported;
        }
      },
      &corrupt_lines, error);
}

bool CostCache::load_existing(const std::vector<std::string>& paths,
                              std::string* error, std::size_t imported) {
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::error_code ec;
    if (!std::filesystem::exists(paths[i], ec)) continue;
    if (!load(paths[i], error, /*mark_imported=*/i < imported)) return false;
  }
  return true;
}

}  // namespace sega
