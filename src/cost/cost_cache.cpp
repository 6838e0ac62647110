#include "cost/cost_cache.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
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

namespace {

constexpr const char* kMemoMarker = "sega_cost_memo";

/// Serialize one table entry: the key fields positionally, the gate census,
/// the scalar metrics positionally, and the breakdown maps.  Doubles dump as
/// the shortest %.{P}g that reads back bit-exactly (util/json.cpp).
Json entry_line(
    const std::tuple<int, int, int, int, int, std::int64_t, std::int64_t,
                     std::int64_t, std::int64_t, bool, bool>& key,
    const MacroMetrics& m) {
  Json j = Json::object();
  Json k = Json::array();
  k.push_back(std::get<0>(key));
  k.push_back(std::get<1>(key));
  k.push_back(std::get<2>(key));
  k.push_back(std::get<3>(key));
  k.push_back(std::get<4>(key));
  k.push_back(std::get<5>(key));
  k.push_back(std::get<6>(key));
  k.push_back(std::get<7>(key));
  k.push_back(std::get<8>(key));
  k.push_back(std::get<9>(key));
  k.push_back(std::get<10>(key));
  j["k"] = std::move(k);
  Json g = Json::array();
  for (const std::int64_t count : m.gates.counts) g.push_back(count);
  j["g"] = std::move(g);
  Json v = Json::array();
  v.push_back(m.area_gates);
  v.push_back(m.delay_gates);
  v.push_back(m.energy_gates);
  v.push_back(m.area_um2);
  v.push_back(m.area_mm2);
  v.push_back(m.delay_ns);
  v.push_back(m.freq_ghz);
  v.push_back(m.energy_per_cycle_fj);
  v.push_back(m.power_w);
  v.push_back(m.energy_per_mvm_nj);
  v.push_back(m.throughput_tops);
  v.push_back(m.tops_per_w);
  v.push_back(m.tops_per_mm2);
  v.push_back(m.cycles_per_input);
  j["m"] = std::move(v);
  Json ab = Json::object();
  for (const auto& [name, value] : m.area_breakdown) ab[name] = value;
  j["ab"] = std::move(ab);
  Json eb = Json::object();
  for (const auto& [name, value] : m.energy_breakdown) eb[name] = value;
  j["eb"] = std::move(eb);
  // Line self-checksum: in-place corruption of any byte of the entry —
  // including a flipped digit that still parses — fails verification on
  // load and the line is skipped, never trusted.
  stamp_line_checksum(&j);
  return j;
}

bool json_array_of_numbers(const Json& j, std::size_t size) {
  if (!j.is_array() || j.size() != size) return false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    if (!j.at(i).is_number()) return false;
  }
  return true;
}

bool parse_breakdown(const Json& j, std::map<std::string, double>* out) {
  if (!j.is_object()) return false;
  for (const auto& [name, value] : j.items()) {
    if (!value.is_number()) return false;
    (*out)[name] = value.as_number();
  }
  return true;
}

}  // namespace

bool CostCache::parse_memo_entry(const Json& parsed, Key* key,
                                 MacroMetrics* metrics) {
  if (!parsed.is_object() || !check_line_checksum(parsed) ||
      !parsed.contains("k") || !parsed.contains("g") ||
      !parsed.contains("m") || !parsed.contains("ab") ||
      !parsed.contains("eb")) {
    return false;
  }
  const Json& k = parsed.at("k");
  const Json& g = parsed.at("g");
  const Json& v = parsed.at("m");
  if (!k.is_array() || k.size() != 11 || !json_array_of_numbers(g, 8) ||
      !json_array_of_numbers(v, 14)) {
    return false;
  }
  for (std::size_t i = 0; i < 9; ++i) {
    if (!k.at(i).is_number()) return false;
  }
  if (!k.at(9).is_bool() || !k.at(10).is_bool()) return false;

  *key = Key(static_cast<int>(k.at(0).as_int()),
             static_cast<int>(k.at(1).as_int()),
             static_cast<int>(k.at(2).as_int()),
             static_cast<int>(k.at(3).as_int()),
             static_cast<int>(k.at(4).as_int()), k.at(5).as_int(),
             k.at(6).as_int(), k.at(7).as_int(), k.at(8).as_int(),
             k.at(9).as_bool(), k.at(10).as_bool());
  // The breakdown maps are validated even when the caller wants keys only —
  // a line compact_memo_files passes through must be a line load() accepts.
  MacroMetrics local;
  MacroMetrics& m = metrics ? *metrics : local;
  for (std::size_t i = 0; i < m.gates.counts.size(); ++i) {
    m.gates.counts[i] = g.at(i).as_int();
  }
  m.area_gates = v.at(0).as_number();
  m.delay_gates = v.at(1).as_number();
  m.energy_gates = v.at(2).as_number();
  m.area_um2 = v.at(3).as_number();
  m.area_mm2 = v.at(4).as_number();
  m.delay_ns = v.at(5).as_number();
  m.freq_ghz = v.at(6).as_number();
  m.energy_per_cycle_fj = v.at(7).as_number();
  m.power_w = v.at(8).as_number();
  m.energy_per_mvm_nj = v.at(9).as_number();
  m.throughput_tops = v.at(10).as_number();
  m.tops_per_w = v.at(11).as_number();
  m.tops_per_mm2 = v.at(12).as_number();
  m.cycles_per_input = v.at(13).as_int();
  return parse_breakdown(parsed.at("ab"), &m.area_breakdown) &&
         parse_breakdown(parsed.at("eb"), &m.energy_breakdown);
}

bool CostCache::compact_memo_files(const std::vector<std::string>& sources,
                                   const std::string& out_path,
                                   std::string* error, CompactStats* stats) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  CompactStats local_stats;
  CompactStats& st = stats ? *stats : local_stats;
  st = CompactStats{};

  // Pass 1 — fold every source line-at-a-time: verify headers against the
  // first file's, record each valid entry's key and byte extent, first
  // occurrence wins (sources are in priority order: base memo before
  // deltas, matching load()'s existing-entries-win merge).  Only keys and
  // extents are held — never metrics — so memory scales with the entry
  // *count*, not the file sizes.
  struct LineRef {
    std::size_t file;
    std::uint64_t offset;
    std::uint32_t length;
  };
  std::map<std::pair<std::size_t, Key>, LineRef> order;
  std::vector<std::unique_ptr<std::ifstream>> files;
  std::string header_text;  // first source's header line, copied verbatim
  std::optional<Json> header_json;
  for (const std::string& path : sources) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*in) return fail(strfmt("cannot read cost cache '%s'", path.c_str()));
    const std::size_t file_idx = files.size();
    bool have_header = false;
    std::string line;
    for (;;) {
      const auto offset = static_cast<std::uint64_t>(in->tellg());
      if (!std::getline(*in, line)) break;
      if (trim(line).empty()) continue;
      const auto parsed = Json::parse(line);
      if (!have_header) {
        if (!parsed || !parsed->is_object() || !parsed->contains(kMemoMarker)) {
          return fail(strfmt("cost cache '%s' has a missing or malformed "
                             "header",
                             path.c_str()));
        }
        if (!header_json) {
          header_json = *parsed;
          header_text = line;
        } else if (!(*parsed == *header_json)) {
          return fail(strfmt(
              "cost cache '%s' was written under a different cost model, "
              "technology, conditions, or model version than the first "
              "source; refusing to merge",
              path.c_str()));
        }
        have_header = true;
        continue;
      }
      Key key;
      if (!parsed || !parse_memo_entry(*parsed, &key, nullptr)) {
        ++st.corrupt_lines;
        continue;
      }
      const bool inserted =
          order
              .try_emplace(std::make_pair(shard_index_of(key), key),
                           LineRef{file_idx, offset,
                                   static_cast<std::uint32_t>(line.size())})
              .second;
      if (!inserted) ++st.duplicates;
    }
    if (!have_header) {
      return fail(strfmt("cost cache '%s' has a missing or malformed header",
                         path.c_str()));
    }
    in->clear();  // getline drove the stream to EOF; seeks below must work
    files.push_back(std::move(in));
    ++st.files_merged;
  }
  if (!header_json) {
    return fail("memo-compact found none of the given memo files");
  }

  // Pass 2 — stream the winners out in save()'s canonical order (shard
  // bucket, then key), copying the original line bytes; writing to a
  // per-PID temp then renaming keeps the output atomic even when it
  // overwrites one of the sources.
  const std::string tmp =
      strfmt("%s.tmp.%d", out_path.c_str(), static_cast<int>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail(strfmt("cannot write cost cache '%s'", tmp.c_str()));
    out << header_text << '\n';
    std::string buf;
    for (const auto& [bucket_key, ref] : order) {
      std::ifstream& f = *files[ref.file];
      f.seekg(static_cast<std::streamoff>(ref.offset));
      buf.resize(ref.length);
      f.read(buf.data(), static_cast<std::streamsize>(ref.length));
      if (!f) {
        out.close();
        std::error_code cleanup_ec;
        std::filesystem::remove(tmp, cleanup_ec);
        return fail("memo-compact: re-reading a source line failed "
                    "(file changed mid-compact?)");
      }
      out << buf << '\n';
    }
    out.flush();
    if (!out) {
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp, cleanup_ec);
      return fail(strfmt("write to cost cache '%s' failed", tmp.c_str()));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, out_path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return fail(strfmt("cannot rename cost cache '%s' into place",
                       out_path.c_str()));
  }
  st.entries = order.size();
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
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  // Snapshot under the shard locks (in shard/key order, so identical
  // contents serialize identically).
  std::string text = fingerprint_header().dump();
  text += '\n';
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.table) {
      if (!entry.ready) continue;
      if (delta_only && entry.imported) continue;
      text += entry_line(key, entry.metrics).dump();
      text += '\n';
    }
  }

  // Write-temp-then-rename: the file under the real name is always either
  // the previous complete memo or the new complete memo, never a torn write.
  // The temp name is per-process so concurrent savers of a shared cache file
  // cannot interleave into one temp and rename a torn mix into place (last
  // completed rename wins whole).
  const std::string tmp =
      strfmt("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return fail(strfmt("cannot write cost cache '%s'", tmp.c_str()));
    f << text;
    f.flush();
    if (!f) return fail(strfmt("write to cost cache '%s' failed", tmp.c_str()));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return fail(strfmt("cannot rename cost cache '%s' into place",
                       path.c_str()));
  }
  return true;
}

bool CostCache::load(const std::string& path, std::string* error,
                     bool mark_imported) {
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
    const auto parsed = Json::parse(line);
    if (!have_header) {
      // The header must identify a memo for exactly this model: same
      // formulas (version), same technology, same conditions.
      if (!parsed || !parsed->is_object() || !parsed->contains(kMemoMarker)) {
        return fail(strfmt("cost cache '%s' has a missing or malformed header",
                           path.c_str()));
      }
      if (!(*parsed == fingerprint_header())) {
        return fail(strfmt(
            "cost cache '%s' was written for a different cost model, "
            "technology, conditions, or model version; delete it or fix "
            "the spec",
            path.c_str()));
      }
      have_header = true;
      continue;
    }
    // Entry lines: tolerate truncated/corrupt lines (external corruption or
    // a partially copied file) by skipping them — a bad line must never
    // become a metric.  The checksum catches corruption that *stays*
    // parseable (a flipped digit inside a metric), not just structural
    // damage.
    if (!parsed) continue;
    Key key;
    MacroMetrics m;
    if (!parse_memo_entry(*parsed, &key, &m)) continue;

    // Merge: existing entries win (for a matching fingerprint the values are
    // identical anyway — the model is pure), and keep their imported flag —
    // provenance is first-load-wins.  With the sweep's load order (base
    // memo first, own shard second) an entry present in both files stays
    // imported and is deduped out of the next save_delta(): the base
    // already persists it.
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.table.try_emplace(key);
    if (inserted || !it->second.ready) {
      it->second.metrics = std::move(m);
      it->second.ready = true;
      it->second.imported = mark_imported;
    }
  }
  if (!have_header) {
    return fail(strfmt("cost cache '%s' has a missing or malformed header",
                       path.c_str()));
  }
  return true;
}

bool CostCache::load_shards(const std::string& base, int count,
                            std::string* error, int* merged) {
  SEGA_EXPECTS(count >= 1);
  if (merged) *merged = 0;
  for (int i = 0; i < count; ++i) {
    const std::string path = shard_file_path(base, i, count);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    if (!load(path, error)) return false;
    if (merged) ++*merged;
  }
  return true;
}

}  // namespace sega
