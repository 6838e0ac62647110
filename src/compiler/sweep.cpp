#include "compiler/sweep.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "cost/calibrate.h"
#include "cost/cost_cache.h"
#include "tech/techlib_parser.h"
#include "util/assert.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sega {

namespace {

// ------------------------------------------------------------- spec JSON

std::optional<SweepSpec> spec_fail(const std::string& msg,
                                   std::string* error) {
  if (error) *error = msg;
  return std::nullopt;
}

/// The result-affecting grid, space and DSE fields — the shared core of
/// to_json() and the checkpoint config fingerprint, which each add the
/// evaluation config in their own form (EvalConfig::write_keys /
/// write_identity), so the two can never drift.  Excludes threads, the
/// shard, the heartbeat cadence and the file paths (none of them changes
/// any cell's result — the shard only selects which cells a process
/// computes, and shard files must share the unsharded fingerprint so a
/// merge can vouch they belong to the same sweep).
Json grid_json(const SweepSpec& spec) {
  Json j = Json::object();
  Json ws = Json::array();
  for (const std::int64_t w : spec.wstores) ws.push_back(w);
  j["wstores"] = std::move(ws);
  Json ps = Json::array();
  for (const Precision& p : spec.precisions) ps.push_back(p.name);
  j["precisions"] = std::move(ps);
  j["max_l"] = spec.limits.max_l;
  j["max_h"] = spec.limits.max_h;
  j["max_n"] = spec.limits.max_n;
  j["min_n_over_bw"] = spec.limits.min_n_over_bw;
  j["population"] = spec.dse.population;
  j["generations"] = spec.dse.generations;
  j["crossover_prob"] = spec.dse.crossover_prob;
  j["mutation_prob"] = spec.dse.mutation_prob;
  j["seed"] = static_cast<std::int64_t>(spec.dse.seed);
  return j;
}

}  // namespace

std::optional<SweepSpec> SweepSpec::from_json(const Json& json,
                                              std::string* error) {
  if (!json.is_object()) return spec_fail("sweep spec must be a JSON object",
                                          error);
  SweepSpec spec;
  for (const auto& [key, value] : json.items()) {
    const SpecKey shared = parse_shared_spec_key(key, value, &spec.eval,
                                                 &spec.limits, &spec.dse,
                                                 error);
    if (shared == SpecKey::kInvalid) return std::nullopt;
    if (shared == SpecKey::kParsed) continue;
    if (key == "wstores") {
      if (!value.is_array() || value.size() == 0) {
        return spec_fail("wstores must be a non-empty array", error);
      }
      spec.wstores.clear();
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (!value.at(i).is_number() || value.at(i).as_int() < 1) {
          return spec_fail("wstores entries must be positive integers", error);
        }
        spec.wstores.push_back(value.at(i).as_int());
      }
    } else if (key == "precisions") {
      if (!value.is_array() || value.size() == 0) {
        return spec_fail("precisions must be a non-empty array", error);
      }
      spec.precisions.clear();
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (!value.at(i).is_string()) {
          return spec_fail("precisions entries must be strings", error);
        }
        const auto p = precision_from_name(value.at(i).as_string());
        if (!p) {
          return spec_fail(strfmt("unknown precision '%s'",
                                  value.at(i).as_string().c_str()),
                           error);
        }
        spec.precisions.push_back(*p);
      }
    } else if (key == "checkpoint" || key == "cache_file") {
      if (!value.is_string()) {
        return spec_fail(strfmt("%s must be a string path", key.c_str()),
                         error);
      }
      (key == "checkpoint" ? spec.checkpoint : spec.cache_file) =
          value.as_string();
    } else if (key == "min_n_over_bw" || key == "crossover_prob" ||
               key == "mutation_prob" || key == "shard_index" ||
               key == "shard_count" || key == "heartbeat_every") {
      if (!check_spec_number(key, value, error)) return std::nullopt;
      const double v = value.as_number();
      const std::int64_t n = value.as_int();
      if (key == "min_n_over_bw") {
        if (n < 1) return spec_fail("min_n_over_bw must be >= 1", error);
        spec.limits.min_n_over_bw = n;
      } else if (key == "crossover_prob" || key == "mutation_prob") {
        if (v < 0 || v > 1) {
          return spec_fail(strfmt("%s must be in [0, 1]", key.c_str()),
                           error);
        }
        (key == "crossover_prob" ? spec.dse.crossover_prob
                                 : spec.dse.mutation_prob) = v;
      } else if (key == "shard_index") {
        if (n < 0) return spec_fail("shard_index must be >= 0", error);
        spec.shard.index = static_cast<int>(n);
      } else if (key == "shard_count") {
        if (n < 1) return spec_fail("shard_count must be >= 1", error);
        spec.shard.count = static_cast<int>(n);
      } else {
        if (n < 0) return spec_fail("heartbeat_every must be >= 0", error);
        spec.heartbeat_every = static_cast<int>(n);
      }
    } else {
      return spec_fail(strfmt("unknown sweep spec key '%s'", key.c_str()),
                       error);
    }
  }
  // Cross-field: the index only has meaning relative to the count, so it is
  // validated after both keys have been seen (in either order).
  if (spec.shard.index >= spec.shard.count) {
    return spec_fail("shard_index must be < shard_count", error);
  }
  return spec;
}

Json SweepSpec::to_json() const {
  Json j = grid_json(*this);
  eval.write_keys(&j);
  j["threads"] = dse.threads;
  if (heartbeat_every > 0) j["heartbeat_every"] = heartbeat_every;
  if (shard.active()) {
    j["shard_index"] = shard.index;
    j["shard_count"] = shard.count;
  }
  if (!checkpoint.empty()) j["checkpoint"] = checkpoint;
  if (!cache_file.empty()) j["cache_file"] = cache_file;
  return j;
}

namespace {

// ----------------------------------------------------------- checkpoint

/// Everything that changes cell results: the grid/space/DSE fields, the
/// evaluation identity (with the calibration artifact's version + digest,
/// never its path), and the full technology (serialized techlib — name,
/// unit scales, and every cell cost), so resuming under a different --tech
/// is caught.  Thread count and the checkpoint path itself are deliberately
/// excluded: resuming with different parallelism is legitimate (and yields
/// byte-identical output).
Json config_fingerprint(const SweepSpec& spec, const Technology& tech,
                        const Calibration* cal) {
  Json j = grid_json(spec);
  spec.eval.write_identity(&j, cal);
  j["techlib"] = write_techlib(tech);
  return j;
}

/// Shard checkpoint headers carry the worker's shard identity *next to* the
/// config (never inside it — the fingerprint must be identical across the
/// shard set and the unsharded equivalent, so a merge can verify all files
/// belong to the same sweep).  Unsharded headers carry no shard fields.
Json header_line(const SweepSpec& spec, const Technology& tech,
                 const Calibration* cal) {
  Json j = Json::object();
  j["sega_sweep_checkpoint"] = 1;
  j["config"] = config_fingerprint(spec, tech, cal);
  if (spec.shard.active()) {
    j["shard_index"] = spec.shard.index;
    j["shard_count"] = spec.shard.count;
  }
  return j;
}

/// The shard identity recorded in a checkpoint header: {0, 1} for an
/// unsharded header (no shard fields), nullopt when the fields are present
/// but malformed or inconsistent.
std::optional<ShardSpec> header_shard(const Json& header) {
  ShardSpec shard;
  const bool has_index = header.contains("shard_index");
  const bool has_count = header.contains("shard_count");
  if (!has_index && !has_count) return shard;
  if (!has_index || !has_count || !header.at("shard_index").is_number() ||
      !header.at("shard_count").is_number()) {
    return std::nullopt;
  }
  shard.index = static_cast<int>(header.at("shard_index").as_int());
  shard.count = static_cast<int>(header.at("shard_count").as_int());
  if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
    return std::nullopt;
  }
  return shard;
}

/// The file run_sweep actually reads/appends: the base path itself for an
/// unsharded sweep, the worker's own shard file otherwise.
std::string effective_path(const std::string& base, const ShardSpec& shard) {
  if (base.empty() || !shard.active()) return base;
  return shard_file_path(base, shard.index, shard.count);
}

/// One position of the fixed grid order (Wstore-major, precisions in spec
/// order) — the fold order, the output order, the checkpoint key space, and
/// the stable cell-id space the shard partition is defined over.
struct GridCell {
  std::int64_t wstore;
  Precision precision;
};

std::vector<GridCell> build_grid(const SweepSpec& spec) {
  std::vector<GridCell> grid;
  grid.reserve(spec.wstores.size() * spec.precisions.size());
  for (const std::int64_t wstore : spec.wstores) {
    for (const Precision& precision : spec.precisions) {
      grid.push_back(GridCell{wstore, precision});
    }
  }
  return grid;
}

/// Structural validity of a parsed checkpoint header line.
bool checkpoint_header_valid(const std::optional<Json>& header) {
  return header && header->is_object() &&
         header->contains("sega_sweep_checkpoint") &&
         header->contains("config");
}

/// Verdict on a parsed checkpoint header line against the spec's config
/// fingerprint and an expected shard identity.  Every checkpoint reader —
/// resume, merge, summary — goes through this one check, so the acceptance
/// rules cannot drift between them.
enum class HeaderCheck { kOk, kMalformed, kConfigMismatch, kShardMismatch };

HeaderCheck check_header(const std::optional<Json>& header,
                         const SweepSpec& spec, const Technology& tech,
                         const Calibration* cal, const ShardSpec& expected) {
  if (!checkpoint_header_valid(header)) return HeaderCheck::kMalformed;
  if (!(header->at("config") == config_fingerprint(spec, tech, cal))) {
    return HeaderCheck::kConfigMismatch;
  }
  const auto shard = header_shard(*header);
  if (!shard || shard->index != expected.index ||
      shard->count != expected.count) {
    return HeaderCheck::kShardMismatch;
  }
  return HeaderCheck::kOk;
}

/// One completed cell as a checkpoint line.  The knee metrics are NOT
/// stored: evaluate_macro is a pure function of the design point, so resume
/// re-derives them through the shared cache — bit-identical by construction
/// and immune to serialization rounding.
Json cell_line(const SweepCell& cell, bool empty) {
  Json c = Json::object();
  c["wstore"] = cell.wstore;
  c["precision"] = cell.precision.name;
  c["front_size"] = static_cast<std::int64_t>(empty ? 0 : cell.front_size);
  if (!empty) {
    c["evaluations"] = cell.evaluations;
    Json k = Json::object();
    k["arch"] = arch_kind_name(cell.knee.point.arch);
    k["n"] = cell.knee.point.n;
    k["h"] = cell.knee.point.h;
    k["l"] = cell.knee.point.l;
    k["k"] = cell.knee.point.k;
    k["signed_weights"] = cell.knee.point.signed_weights;
    k["pipelined_tree"] = cell.knee.point.pipelined_tree;
    c["knee"] = std::move(k);
  }
  Json j = Json::object();
  j["cell"] = std::move(c);
  // Line self-checksum: a corrupted-in-place cell line — even one that
  // still parses with plausible values (a mutated knee coordinate) — fails
  // verification and is recomputed instead of silently becoming a result.
  stamp_line_checksum(&j);
  return j;
}

/// Typed lookups that tolerate corrupt lines instead of tripping the Json
/// precondition aborts.
bool get_int(const Json& obj, const char* key, std::int64_t* out) {
  if (!obj.contains(key) || !obj.at(key).is_number()) return false;
  *out = obj.at(key).as_int();
  return true;
}

bool get_bool(const Json& obj, const char* key, bool* out) {
  if (!obj.contains(key) || !obj.at(key).is_bool()) return false;
  *out = obj.at(key).as_bool();
  return true;
}

/// A cell recovered from the checkpoint; empty == true means the cell was
/// completed but produced no front (excluded from the fold, not recomputed).
struct RecoveredCell {
  bool empty = false;
  SweepCell cell;
};

/// Parse one checkpoint cell line into @p out — structural recovery only;
/// the caller re-derives the knee metrics through the cost model (resume)
/// or skips them entirely (--resume-summary).  Returns false (recompute the
/// cell) on any structural or semantic mismatch — a checkpoint may be
/// truncated or hand-edited, and a corrupt line must never become a result.
bool recover_cell(const Json& line, const SweepSpec& spec,
                  RecoveredCell* out) {
  if (!line.is_object() || !line.contains("cell")) return false;
  // Integrity first: the structural/semantic checks below catch damage that
  // changes shape; the checksum catches damage that doesn't (a flipped
  // digit inside a still-valid knee).
  if (!check_line_checksum(line)) return false;
  const Json& c = line.at("cell");
  if (!c.is_object()) return false;
  std::int64_t wstore = 0;
  std::int64_t front_size = 0;
  if (!get_int(c, "wstore", &wstore) ||
      !get_int(c, "front_size", &front_size) || wstore < 1 ||
      front_size < 0) {
    return false;
  }
  if (!c.contains("precision") || !c.at("precision").is_string()) return false;
  const auto precision = precision_from_name(c.at("precision").as_string());
  if (!precision) return false;

  out->cell = SweepCell{};
  out->cell.wstore = wstore;
  out->cell.precision = *precision;
  if (front_size == 0) {
    out->empty = true;
    return true;
  }
  out->empty = false;
  out->cell.front_size = static_cast<std::size_t>(front_size);
  if (!get_int(c, "evaluations", &out->cell.evaluations) ||
      out->cell.evaluations < 1) {
    return false;
  }
  if (!c.contains("knee") || !c.at("knee").is_object()) return false;
  const Json& k = c.at("knee");
  DesignPoint dp;
  dp.precision = *precision;
  dp.arch = arch_for(*precision);
  if (!k.contains("arch") || !k.at("arch").is_string() ||
      k.at("arch").as_string() != arch_kind_name(dp.arch)) {
    return false;
  }
  if (!get_int(k, "n", &dp.n) || !get_int(k, "h", &dp.h) ||
      !get_int(k, "l", &dp.l) || !get_int(k, "k", &dp.k) ||
      !get_bool(k, "signed_weights", &dp.signed_weights) ||
      !get_bool(k, "pipelined_tree", &dp.pipelined_tree)) {
    return false;
  }
  // The recovered knee must be a structurally valid member of this cell's
  // design space (also the precondition of evaluate_macro).
  if (!validate_design(dp, wstore, spec.limits).ok) return false;
  out->cell.knee.point = dp;
  return true;
}

SweepResult checkpoint_fail(const std::string& msg, std::string* error) {
  if (error) {
    *error = msg;
    return {};
  }
  std::fprintf(stderr, "[sega] %s\n", msg.c_str());
  std::abort();
}

/// Stream a checkpoint's non-empty lines.  The first is handed to
/// @p on_header (nullopt when unparseable); its return decides whether the
/// cell lines are read at all.  Every later line goes to @p on_line
/// (nullopt when unparseable).  Both resume and --resume-summary read
/// checkpoints through this one walker, so the line protocol cannot drift
/// between them.  Returns false only when the file cannot be opened;
/// *saw_header reports whether any content line existed (a file killed
/// before the header flush has none).
bool walk_checkpoint(
    const std::string& path, bool* saw_header,
    const std::function<bool(const std::optional<Json>&)>& on_header,
    const std::function<void(const std::optional<Json>&)>& on_line) {
  *saw_header = false;
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const auto parsed = Json::parse(line);
    if (!*saw_header) {
      *saw_header = true;
      if (!on_header(parsed)) return true;
      continue;
    }
    on_line(parsed);
  }
  return true;
}

// ------------------------------------------------------- fault injection
//
// SEGA_SWEEP_FAULT=<kill|stall>-after:<k>[:prob=<p>][:seed=<s>][:attempts=<n>]
//
// First-class crash testing for the supervised sweep: after its k-th
// completed cell (this run, recovered cells excluded) the worker persists
// its progress snapshot (heartbeat, memo delta) and then either
// _Exit(86)s (kill) or sleeps forever holding the checkpoint mutex (stall —
// wedging every worker thread, the pathology the orchestrator's stall
// timeout exists for).  Whether the fault *arms* at all is a deterministic
// function of (seed, shard index, attempt ordinal): the attempt ordinal
// comes from SEGA_SWEEP_ATTEMPT (set by the orchestrator per retry,
// default 0), and the fault arms iff attempt < attempts and
// hash01(seed, shard, attempt) < prob — so a chaos test can kill exactly
// the first attempt of chosen shards and let every retry run clean.
// A malformed SEGA_SWEEP_FAULT is a hard error: a chaos harness that
// silently ran fault-free would pass while testing nothing.

struct FaultSpec {
  enum class Kind { kNone, kKill, kStall };
  Kind kind = Kind::kNone;
  std::int64_t after = 0;     ///< fire after this many completed cells
  double prob = 1.0;          ///< arming probability per (shard, attempt)
  std::uint64_t seed = 0;     ///< arming hash seed
  std::int64_t attempts = 1;  ///< arm only attempt ordinals in [0, attempts)
};

bool parse_fault_spec(const std::string& text, FaultSpec* out,
                      std::string* err) {
  const auto fail = [&](const std::string& m) {
    if (err) *err = "SEGA_SWEEP_FAULT: " + m;
    return false;
  };
  const auto parts = split(text, ':');
  if (parts.size() < 2) {
    return fail("expected "
                "'<kill|stall>-after:<k>[:prob=<p>][:seed=<s>]"
                "[:attempts=<n>]'");
  }
  if (parts[0] == "kill-after") {
    out->kind = FaultSpec::Kind::kKill;
  } else if (parts[0] == "stall-after") {
    out->kind = FaultSpec::Kind::kStall;
  } else {
    return fail(strfmt("unknown fault kind '%s' (want kill-after or "
                       "stall-after)",
                       parts[0].c_str()));
  }
  if (!parse_number_strict(parts[1], &out->after) || out->after < 1) {
    return fail(strfmt("'%s' is not a positive cell count", parts[1].c_str()));
  }
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    if (eq == std::string::npos) {
      return fail(strfmt("malformed option '%s' (want key=value)",
                         parts[i].c_str()));
    }
    const std::string key = parts[i].substr(0, eq);
    const std::string val = parts[i].substr(eq + 1);
    if (key == "prob") {
      if (!parse_number_strict(val, &out->prob) ||
          !(out->prob >= 0 && out->prob <= 1)) {
        return fail(strfmt("prob '%s' is not in [0, 1]", val.c_str()));
      }
    } else if (key == "seed") {
      if (!parse_number_strict(val, &out->seed)) {
        return fail(strfmt("seed '%s' is not a non-negative integer",
                           val.c_str()));
      }
    } else if (key == "attempts") {
      if (!parse_number_strict(val, &out->attempts) || out->attempts < 1) {
        return fail(strfmt("attempts '%s' is not a positive integer",
                           val.c_str()));
      }
    } else {
      return fail(strfmt("unknown option '%s'", key.c_str()));
    }
  }
  return true;
}

/// Deterministic hash of (seed, shard, attempt) into [0, 1) — splitmix64
/// finalizer, the same construction the DSE seeding uses.  Fault arming
/// must be a pure function of these three so a chaos run is reproducible.
double fault_hash01(std::uint64_t seed, int shard_index, std::int64_t attempt) {
  std::uint64_t x = seed;
  x ^= 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(shard_index) + 1);
  x ^= 0xC2B2AE3D27D4EB4Full * (static_cast<std::uint64_t>(attempt) + 1);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

SweepResult run_sweep(const Compiler& compiler, const SweepSpec& spec,
                      std::string* error) {
  SEGA_EXPECTS(!spec.wstores.empty() && !spec.precisions.empty());
  SEGA_EXPECTS(spec.shard.count >= 1 && spec.shard.index >= 0 &&
               spec.shard.index < spec.shard.count);
  if (error) error->clear();

  // One memoizing cache across the whole grid: cells at the same Wstore (and
  // neighbouring ones — the genome space overlaps heavily) revisit the same
  // design points, and checkpoint recovery re-derives knee metrics from it.
  // The evaluation config resolves before any checkpoint or memo is
  // touched: its identity is part of both fingerprints.  A host-provided
  // shared cache (SweepSpec::shared_cache — the serve daemon's warm
  // cross-client cache) replaces the run-local one; its owner manages
  // persistence, so the memo load/save below is skipped with it.
  std::unique_ptr<CostCache> owned_cache;
  if (spec.shared_cache == nullptr) {
    std::string eval_error;
    auto model = spec.eval.make_model(compiler.technology(), &eval_error);
    if (!model) return checkpoint_fail(eval_error, error);
    owned_cache = std::make_unique<CostCache>(std::move(model));
  }
  CostCache& cache = spec.shared_cache ? *spec.shared_cache : *owned_cache;
  const std::shared_ptr<const Calibration> calibration = cache.calibration();

  const std::vector<GridCell> grid = build_grid(spec);

  // A sharded worker reads/writes only its own per-worker files.
  const std::string ckpt_path = effective_path(spec.checkpoint, spec.shard);
  const std::string memo_path = effective_path(spec.cache_file, spec.shard);

  if (spec.heartbeat_every > 0 && ckpt_path.empty()) {
    return checkpoint_fail(
        "heartbeat_every requires a checkpoint (the heartbeat file sits "
        "next to it)",
        error);
  }

  // Fault injection is parsed up front so a malformed spec fails before any
  // work — a chaos harness must never silently run fault-free.
  FaultSpec fault;
  bool fault_armed = false;
  if (const char* env = std::getenv("SEGA_SWEEP_FAULT"); env && *env) {
    std::string fault_error;
    if (!parse_fault_spec(env, &fault, &fault_error)) {
      return checkpoint_fail(fault_error, error);
    }
    std::int64_t attempt = 0;
    if (const char* a = std::getenv("SEGA_SWEEP_ATTEMPT"); a && *a) {
      parse_number_strict(a, &attempt);
    }
    fault_armed =
        attempt < fault.attempts &&
        fault_hash01(fault.seed, spec.shard.index, attempt) < fault.prob;
  }

  // --- persistent memo load ---
  // Sharded workers seed from the unified base memo (a previously merged
  // run; marked imported so the shard save below writes only this worker's
  // delta, not a full base copy per shard) and then their own shard (a
  // resumed worker; part of the delta).  Unsharded runs load the base only.
  // Merge-on-load keeps whichever entry arrived first — for a matching
  // fingerprint they are identical anyway.
  if (!spec.cache_file.empty() && spec.shared_cache == nullptr) {
    std::vector<std::string> memo_sources = {spec.cache_file};
    if (memo_path != spec.cache_file) memo_sources.push_back(memo_path);
    for (const std::string& path : memo_sources) {
      std::error_code ec;
      if (!std::filesystem::exists(path, ec)) continue;
      std::string cache_error;
      const bool is_base = spec.shard.active() && path == spec.cache_file;
      if (!cache.load(path, &cache_error, /*mark_imported=*/is_base)) {
        return checkpoint_fail(cache_error, error);
      }
    }
  }

  // --- checkpoint load ---
  using CellKey = std::pair<std::int64_t, std::string>;
  std::map<CellKey, RecoveredCell> recovered;
  std::unique_ptr<std::ofstream> ckpt;
  std::mutex ckpt_mu;
  if (!ckpt_path.empty()) {
    bool have_header = false;
    std::error_code ec;
    if (std::filesystem::exists(ckpt_path, ec)) {
      // The header must match this sweep's configuration exactly — and, for
      // a sharded worker, this worker's exact shard identity; a checkpoint
      // from a different sweep or a different slice of the grid must never
      // be mixed in.  Cell lines tolerate truncation/corruption (a killed
      // writer may leave a partial tail) by simply recomputing those cells.
      HeaderCheck verdict = HeaderCheck::kOk;
      const bool readable = walk_checkpoint(
          ckpt_path, &have_header,
          [&](const std::optional<Json>& header) {
            verdict = check_header(header, spec, compiler.technology(),
                                   calibration.get(), spec.shard);
            return verdict == HeaderCheck::kOk;
          },
          [&](const std::optional<Json>& line) {
            RecoveredCell rc;
            if (!line || !recover_cell(*line, spec, &rc)) return;
            // Metrics are never stored in the checkpoint: re-derive them
            // through the pure cost model so recovery is bit-exact and
            // immune to serialization rounding.
            if (!rc.empty) {
              rc.cell.knee.metrics = cache.evaluate(rc.cell.knee.point);
            }
            recovered[CellKey{rc.cell.wstore, rc.cell.precision.name}] =
                std::move(rc);
          });
      if (!readable) {
        return checkpoint_fail(
            strfmt("cannot read checkpoint '%s'", ckpt_path.c_str()), error);
      }
      if (verdict == HeaderCheck::kMalformed) {
        return checkpoint_fail(
            strfmt("checkpoint '%s' has a missing or malformed header",
                   ckpt_path.c_str()),
            error);
      }
      if (verdict == HeaderCheck::kConfigMismatch) {
        return checkpoint_fail(
            strfmt("checkpoint '%s' was written for a different sweep "
                   "configuration; delete it or fix the spec",
                   ckpt_path.c_str()),
            error);
      }
      if (verdict == HeaderCheck::kShardMismatch) {
        return checkpoint_fail(
            strfmt("checkpoint '%s' was written for a different shard of "
                   "this sweep (expected shard %d/%d); delete it or fix "
                   "--shard",
                   ckpt_path.c_str(), spec.shard.index, spec.shard.count),
            error);
      }
      // No content lines at all (a run killed before the header flush, or a
      // pre-created empty file): treat as fresh and write the header below.
    }
    // A killed writer can leave a partial final line without a newline;
    // appending straight after it would merge the next cell into garbage.
    bool needs_leading_newline = false;
    if (have_header) {
      std::ifstream tail(ckpt_path, std::ios::binary);
      tail.seekg(0, std::ios::end);
      if (tail.tellg() > 0) {
        tail.seekg(-1, std::ios::end);
        needs_leading_newline = tail.get() != '\n';
      }
    }
    ckpt = std::make_unique<std::ofstream>(ckpt_path, std::ios::app);
    if (!*ckpt) {
      return checkpoint_fail(
          strfmt("cannot open checkpoint '%s' for append", ckpt_path.c_str()),
          error);
    }
    if (needs_leading_newline) *ckpt << '\n';
    if (!have_header) {
      *ckpt << header_line(spec, compiler.technology(), calibration.get())
                   .dump()
            << '\n';
      ckpt->flush();
    }
  }

  // --- schedule the remaining cells onto the pool ---
  // `mine` is this worker's slice of the grid in ascending cell-id order
  // (the whole grid when unsharded); only those cells are recovered,
  // computed, and folded here.
  std::vector<std::size_t> mine;
  std::vector<std::size_t> todo;  // owned cells not covered by recovery
  std::vector<RecoveredCell> slots(grid.size());
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    if (!spec.shard.owns(gi)) continue;
    mine.push_back(gi);
    const auto it = recovered.find(
        CellKey{grid[gi].wstore, grid[gi].precision.name});
    if (it != recovered.end()) {
      slots[gi] = it->second;
    } else {
      todo.push_back(gi);
    }
  }

  // --- liveness / crash-durability plumbing ---
  // persist_memo is the one memo writer (heartbeat snapshots, the fault
  // hook, and the end-of-run save all go through it).  Non-fatal: the grid
  // is the primary product; a failed memo write only costs re-evaluation.
  const auto persist_memo = [&]() {
    if (memo_path.empty() || spec.shared_cache != nullptr) return;
    std::string cache_error;
    const bool saved = spec.shard.active()
                           ? cache.save_delta(memo_path, &cache_error)
                           : cache.save(memo_path, &cache_error);
    if (!saved) {
      std::fprintf(stderr, "[sega] warning: %s (sweep results unaffected)\n",
                   cache_error.c_str());
    }
  };
  std::ofstream hb;
  // Owned cells recovered or completed by this run.
  std::size_t done_owned = mine.size() - todo.size();
  if (spec.heartbeat_every > 0) {
    hb.open(heartbeat_file_path(ckpt_path), std::ios::app);
    if (!hb) {
      return checkpoint_fail(
          strfmt("cannot open heartbeat file '%s' for append",
                 heartbeat_file_path(ckpt_path).c_str()),
          error);
    }
  }
  // One progress snapshot: heartbeat line (supervisor liveness) and memo
  // delta (evaluations survive a kill).  Caller holds ckpt_mu when worker
  // threads are live.
  const auto snapshot = [&]() {
    if (hb.is_open()) {
      Json line = Json::object();
      line["done"] = static_cast<std::int64_t>(done_owned);
      line["pid"] = static_cast<std::int64_t>(::getpid());
      line["total"] = static_cast<std::int64_t>(mine.size());
      hb << line.dump() << '\n';
      hb.flush();
    }
    persist_memo();
  };
  if (spec.heartbeat_every > 0) {
    // Starting snapshot: the supervisor sees a live worker before the first
    // (possibly long) cell completes.
    snapshot();
  }
  std::atomic<long long> completions{0};
  // Fires the armed fault once the counter reaches the threshold — after
  // persisting a snapshot, so a killed worker's retry resumes from its
  // checkpoint/memo instead of recomputing.  Called with ckpt_mu held when
  // a checkpoint is active; the stall deliberately never releases it,
  // wedging every worker thread behind the checkpoint append.
  const auto maybe_fire_fault = [&](long long completed) {
    if (!fault_armed || completed != fault.after) return;
    snapshot();
    if (fault.kind == FaultSpec::Kind::kKill) {
      std::fprintf(stderr,
                   "[sega] fault injection: kill-after:%lld firing (shard "
                   "%d/%d)\n",
                   static_cast<long long>(fault.after), spec.shard.index,
                   spec.shard.count);
      std::_Exit(86);
    }
    std::fprintf(stderr,
                 "[sega] fault injection: stall-after:%lld firing (shard "
                 "%d/%d)\n",
                 static_cast<long long>(fault.after), spec.shard.index,
                 spec.shard.count);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  };

  // Longest-first: the pending cells are sorted by descending predicted
  // cost — Wstore x input width x weight width, the dominant factors of a
  // cell's design-space size and per-point cost — and handed to
  // parallel_for, whose shared counter gives each free thread the most
  // expensive cell left.  The FP32/128K corner starts immediately and the
  // cheap tail fills in behind it.  Scheduling order is a latency lever
  // only: every result lands in its fixed grid slot and the fold below
  // always walks grid order, so outputs are byte-identical under any
  // schedule, thread count, or shard split.
  std::stable_sort(todo.begin(), todo.end(),
                   [&grid](std::size_t a, std::size_t b) {
                     const auto predicted = [&grid](std::size_t gi) {
                       return grid[gi].wstore *
                              grid[gi].precision.input_bits() *
                              grid[gi].precision.weight_bits();
                     };
                     return predicted(a) > predicted(b);
                   });

  std::unique_ptr<ThreadPool> owned;
  if (spec.dse.threads > 0) {
    owned = std::make_unique<ThreadPool>(spec.dse.threads);
  }
  ThreadPool& pool = owned ? *owned : ThreadPool::global();
  pool.parallel_for(todo.size(), [&](std::size_t ti) {
    const std::size_t gi = todo[ti];
    CompilerSpec cs;
    cs.wstore = grid[gi].wstore;
    cs.precision = grid[gi].precision;
    cs.eval = spec.eval;  // informational: evaluation goes through the cache
    cs.dse = spec.dse;
    cs.dse.threads = 0;  // inherit this task's thread (no nested pools)
    cs.limits = spec.limits;
    cs.distill = DistillPolicy::kKnee;
    cs.generate_rtl = false;
    cs.generate_layout = false;
    const CompilerResult run = compiler.run(cs, &cache);

    RecoveredCell& slot = slots[gi];
    slot.cell.wstore = grid[gi].wstore;
    slot.cell.precision = grid[gi].precision;
    if (run.pareto_front.empty()) {
      slot.empty = true;
    } else {
      slot.empty = false;
      slot.cell.front_size = run.pareto_front.size();
      slot.cell.evaluations = run.dse_stats.evaluations;
      slot.cell.knee = run.selected.front().design;
    }
    if (ckpt) {
      // Streamed so a kill at any point loses at most the in-flight line;
      // completion order varies with scheduling, but resume keys cells by
      // (wstore, precision), not by file position.  The progress hook fires
      // under the same lock, so stream order matches append order.
      const Json record = cell_line(slot.cell, slot.empty);
      const std::string line = record.dump();
      std::lock_guard<std::mutex> lock(ckpt_mu);
      *ckpt << line << '\n';
      ckpt->flush();
      if (spec.progress) spec.progress(record);
      ++done_owned;
      const long long completed = ++completions;
      if (spec.heartbeat_every > 0 &&
          completed % spec.heartbeat_every == 0) {
        snapshot();
      }
      maybe_fire_fault(completed);
    } else {
      // No checkpoint, no snapshot to persist — but the fault must still
      // fire on schedule (only one thread ever sees the threshold value).
      if (spec.progress) {
        const Json record = cell_line(slot.cell, slot.empty);
        std::lock_guard<std::mutex> lock(ckpt_mu);
        spec.progress(record);
      }
      maybe_fire_fault(++completions);
    }
  });

  // --- persistent memo save ---
  // A sharded worker saves only its own shard file — workers never contend
  // on one memo; merge_sweep_shards fans the shards into the base memo.
  // Non-fatal: the grid is already computed, and discarding a finished
  // sweep's results over an auxiliary-output I/O error (full disk,
  // read-only cache path) would destroy the primary product.  The next run
  // simply re-pays the evaluations.  (Loading a bad memo stays a hard
  // error — that would corrupt results; failing to write one cannot.)
  //
  // The completion snapshot also leaves a final heartbeat line.
  snapshot();

  // --- fold in fixed grid order ---
  // Always grid order (Wstore-major, precisions in spec order), never
  // completion order: the schedule above is free to finish cells in any
  // order, but the output walks the slots in their fixed positions.
  SweepResult result;
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();
  for (const std::size_t gi : mine) {
    if (slots[gi].empty) continue;
    result.cells.push_back(std::move(slots[gi].cell));
  }
  return result;
}

SweepResult merge_sweep_shards(const Compiler& compiler, const SweepSpec& spec,
                               int shard_count, std::string* error) {
  SEGA_EXPECTS(!spec.wstores.empty() && !spec.precisions.empty());
  SEGA_EXPECTS(shard_count >= 1);
  if (error) error->clear();
  if (spec.checkpoint.empty()) {
    return checkpoint_fail(
        "sweep-merge needs a checkpoint base path (spec key 'checkpoint' or "
        "--checkpoint)",
        error);
  }
  std::string eval_error;
  auto model = spec.eval.make_model(compiler.technology(), &eval_error);
  if (!model) return checkpoint_fail(eval_error, error);
  const std::shared_ptr<const Calibration> calibration = model->calibration();

  // The same fixed grid (and cell-id space) the workers partitioned.
  const std::vector<GridCell> grid = build_grid(spec);
  using CellKey = std::pair<std::int64_t, std::string>;
  std::map<CellKey, std::size_t> cell_id;
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    cell_id[CellKey{grid[gi].wstore, grid[gi].precision.name}] = gi;
  }

  // --- read every shard checkpoint ---
  // Each shard file must carry this spec's config fingerprint AND identify
  // itself as exactly shard s of shard_count — a file from a different
  // sweep, or from a differently sized shard set, must never be merged.
  std::vector<RecoveredCell> slots(grid.size());
  std::vector<char> covered(grid.size(), 0);
  std::vector<int> missing;
  std::size_t stale_lines = 0;
  std::size_t corrupt_lines = 0;
  for (int s = 0; s < shard_count; ++s) {
    const ShardSpec shard{s, shard_count};
    const std::string path = effective_path(spec.checkpoint, shard);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      missing.push_back(s);
      continue;
    }
    bool have_header = false;
    HeaderCheck verdict = HeaderCheck::kOk;
    const bool readable = walk_checkpoint(
        path, &have_header,
        [&](const std::optional<Json>& header) {
          verdict = check_header(header, spec, compiler.technology(),
                                 calibration.get(), shard);
          return verdict == HeaderCheck::kOk;
        },
        [&](const std::optional<Json>& line) {
          if (!line) {
            ++corrupt_lines;
            return;
          }
          RecoveredCell rc;
          if (!recover_cell(*line, spec, &rc)) {
            ++corrupt_lines;
            return;
          }
          const auto it = cell_id.find(
              CellKey{rc.cell.wstore, rc.cell.precision.name});
          // Cells outside the grid — or outside this shard's slice — are
          // stale lines from some older file; they never become results.
          if (it == cell_id.end() || !shard.owns(it->second)) {
            ++stale_lines;
            return;
          }
          if (covered[it->second]) return;  // duplicate line, first wins
          covered[it->second] = 1;
          slots[it->second] = std::move(rc);
        });
    if (!readable) {
      return checkpoint_fail(
          strfmt("cannot read shard checkpoint '%s'", path.c_str()), error);
    }
    if (verdict == HeaderCheck::kMalformed || !have_header) {
      return checkpoint_fail(
          strfmt("shard checkpoint '%s' has a missing or malformed header",
                 path.c_str()),
          error);
    }
    if (verdict == HeaderCheck::kConfigMismatch) {
      return checkpoint_fail(
          strfmt("shard checkpoint '%s' was written for a different sweep "
                 "configuration; it cannot be merged under this spec",
                 path.c_str()),
          error);
    }
    if (verdict == HeaderCheck::kShardMismatch) {
      return checkpoint_fail(
          strfmt("shard checkpoint '%s' does not identify itself as shard "
                 "%d/%d — shard-set mismatch; merge with the shard count "
                 "the workers actually ran with",
                 path.c_str(), s, shard_count),
          error);
    }
  }

  // --- completeness ---
  // A missing shard or an uncovered cell makes the merge impossible; the
  // error carries the --resume-summary coverage report so the operator can
  // see exactly which slice to (re)run.
  std::size_t done = 0;
  for (std::size_t gi = 0; gi < grid.size(); ++gi) done += covered[gi] ? 1 : 0;
  if (!missing.empty() || done != grid.size()) {
    CheckpointSummary summary;
    summary.config_match = true;
    summary.cells_total = grid.size();
    summary.cells_done = done;
    summary.stale_lines = stale_lines;
    summary.corrupt_lines = corrupt_lines;
    std::map<std::string, std::size_t> done_by_precision;
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      if (covered[gi]) ++done_by_precision[grid[gi].precision.name];
    }
    for (const Precision& precision : spec.precisions) {
      CheckpointPrecisionCoverage cov;
      cov.precision = precision.name;
      cov.done = done_by_precision[precision.name];
      cov.total = spec.wstores.size();
      summary.per_precision.push_back(std::move(cov));
    }
    std::string msg = strfmt("sweep-merge: shard set under '%s' is incomplete",
                             spec.checkpoint.c_str());
    if (!missing.empty()) {
      msg += "; missing shard file(s):";
      for (const int s : missing) {
        // The same naming the existence check used: the bare base path for
        // a 1-way "set", the shard file otherwise.
        msg += strfmt(
            " %s",
            effective_path(spec.checkpoint, ShardSpec{s, shard_count}).c_str());
      }
    }
    msg += "\n" + summary.render(spec.checkpoint);
    return checkpoint_fail(msg, error);
  }

  // --- memo fan-in + bit-exact metric re-derivation ---
  // Knee metrics are never stored in checkpoints; they are re-derived here
  // through the pure cost model (the spec's backend — the fingerprint check
  // above guarantees the shards were computed under it), so the merged
  // result is exactly what a single-process run would have produced.  The
  // workers' memo shards make this free when a cache file is in play.
  CostCache cache(std::move(model));
  if (!spec.cache_file.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(spec.cache_file, ec)) {
      std::string cache_error;
      if (!cache.load(spec.cache_file, &cache_error)) {
        return checkpoint_fail(cache_error, error);
      }
    }
    std::string cache_error;
    if (!cache.load_shards(spec.cache_file, shard_count, &cache_error)) {
      return checkpoint_fail(cache_error, error);
    }
  }
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    if (slots[gi].empty) continue;
    slots[gi].cell.knee.metrics = cache.evaluate(slots[gi].cell.knee.point);
  }

  // --- unified checkpoint rewrite (atomic, grid order, no shard identity) —
  // a later unsharded `sweep` resumes from it as if one process had run the
  // whole grid.  Shard files are left in place: the merge is idempotent and
  // re-runnable.
  SweepSpec unsharded = spec;
  unsharded.shard = ShardSpec{};
  std::string text =
      header_line(unsharded, compiler.technology(), calibration.get()).dump();
  text += '\n';
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    text += cell_line(slots[gi].cell, slots[gi].empty).dump();
    text += '\n';
  }
  std::string write_error;
  if (!write_file_atomic(
          spec.checkpoint, "unified checkpoint",
          [&](std::ostream& out) {
            out << text;
            return true;
          },
          &write_error)) {
    return checkpoint_fail(write_error, error);
  }
  // --- unified memo save (warn-only, like run_sweep's save) ---
  if (!spec.cache_file.empty()) {
    std::string cache_error;
    if (!cache.save(spec.cache_file, &cache_error)) {
      std::fprintf(stderr, "[sega] warning: %s (merge results unaffected)\n",
                   cache_error.c_str());
    }
  }

  // --- fold in fixed grid order ---
  SweepResult result;
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    if (slots[gi].empty) continue;
    result.cells.push_back(std::move(slots[gi].cell));
  }
  return result;
}

std::string CheckpointSummary::render(const std::string& path) const {
  const double pct = cells_total == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(cells_done) /
                               static_cast<double>(cells_total);
  std::string out = strfmt("checkpoint %s\n", path.c_str());
  out += strfmt("  config match : %s\n", config_match ? "yes" : "NO");
  out += strfmt("  coverage     : %zu/%zu cells complete (%.1f%%)\n",
                cells_done, cells_total, pct);
  for (const auto& cov : per_precision) {
    out += strfmt("    %-8s %zu/%zu\n", cov.precision.c_str(), cov.done,
                  cov.total);
  }
  if (stale_lines > 0) {
    out += strfmt("  stale lines  : %zu (cells outside this grid)\n",
                  stale_lines);
  }
  if (corrupt_lines > 0) {
    out += strfmt("  corrupt lines: %zu (will be recomputed on resume)\n",
                  corrupt_lines);
  }
  if (!config_match) {
    out += "  NOTE: resuming with this spec will fail — the checkpoint was "
           "written for a different sweep configuration\n";
  }
  return out;
}

std::optional<CheckpointSummary> summarize_checkpoint(const Compiler& compiler,
                                                      const SweepSpec& spec,
                                                      std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<CheckpointSummary> {
    if (error) *error = msg;
    return std::nullopt;
  };
  if (error) error->clear();
  if (spec.checkpoint.empty()) {
    return fail("no checkpoint path in the sweep spec");
  }
  std::string eval_error;
  const auto model = spec.eval.make_model(compiler.technology(), &eval_error);
  if (!model) return fail(eval_error);
  const std::shared_ptr<const Calibration> calibration = model->calibration();
  // For a sharded spec the summary covers this worker's slice of the grid
  // (its own shard file, its own cells) — the merge-time coverage of the
  // whole set is merge_sweep_shards' partial-merge report.
  const std::string path = effective_path(spec.checkpoint, spec.shard);

  CheckpointSummary summary;
  std::map<std::string, std::size_t> done_by_precision;
  std::map<std::string, std::size_t> total_by_precision;
  std::set<std::pair<std::int64_t, std::string>> grid_keys, seen;
  const std::vector<GridCell> grid = build_grid(spec);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    if (!spec.shard.owns(gi)) continue;
    grid_keys.emplace(grid[gi].wstore, grid[gi].precision.name);
    ++total_by_precision[grid[gi].precision.name];
    ++summary.cells_total;
  }

  bool have_header = false;
  bool malformed_header = false;
  const bool readable = walk_checkpoint(
      path, &have_header,
      [&](const std::optional<Json>& header) {
        const HeaderCheck verdict =
            check_header(header, spec, compiler.technology(),
                         calibration.get(), spec.shard);
        if (verdict == HeaderCheck::kMalformed) {
          malformed_header = true;
          return false;
        }
        // A mismatch is reported, not an error — the point of the summary
        // is to tell the user what the file holds.  "Match" means resumable
        // by this spec: same config fingerprint AND same shard identity.
        summary.config_match = verdict == HeaderCheck::kOk;
        return true;
      },
      [&](const std::optional<Json>& line) {
        if (!line) {
          ++summary.corrupt_lines;
          return;
        }
        RecoveredCell rc;
        if (!recover_cell(*line, spec, &rc)) {
          ++summary.corrupt_lines;
          return;
        }
        const std::pair<std::int64_t, std::string> key{
            rc.cell.wstore, rc.cell.precision.name};
        if (grid_keys.count(key) == 0) {
          ++summary.stale_lines;
          return;
        }
        if (!seen.insert(key).second) return;  // duplicate line, count once
        ++summary.cells_done;
        ++done_by_precision[rc.cell.precision.name];
      });
  if (!readable) {
    return fail(strfmt("cannot read checkpoint '%s'", path.c_str()));
  }
  if (!have_header || malformed_header) {
    return fail(strfmt("checkpoint '%s' has a missing or malformed header",
                       path.c_str()));
  }
  for (const Precision& precision : spec.precisions) {
    CheckpointPrecisionCoverage cov;
    cov.precision = precision.name;
    cov.done = done_by_precision[precision.name];
    cov.total = total_by_precision[precision.name];
    summary.per_precision.push_back(std::move(cov));
  }
  return summary;
}

Json SweepResult::to_json() const {
  Json j = Json::array();
  for (const auto& cell : cells) {
    Json c = Json::object();
    c["wstore"] = cell.wstore;
    c["precision"] = cell.precision.name;
    c["front_size"] = static_cast<std::int64_t>(cell.front_size);
    c["evaluations"] = cell.evaluations;
    c["knee_design"] = cell.knee.point.to_string();
    c["area_mm2"] = cell.knee.metrics.area_mm2;
    c["delay_ns"] = cell.knee.metrics.delay_ns;
    c["energy_per_mvm_nj"] = cell.knee.metrics.energy_per_mvm_nj;
    c["throughput_tops"] = cell.knee.metrics.throughput_tops;
    c["tops_per_w"] = cell.knee.metrics.tops_per_w;
    c["tops_per_mm2"] = cell.knee.metrics.tops_per_mm2;
    j.push_back(std::move(c));
  }
  return j;
}

std::string SweepResult::to_csv() const {
  std::string out =
      "wstore,precision,front_size,evaluations,n,h,l,k,area_mm2,delay_ns,"
      "energy_per_mvm_nj,throughput_tops,tops_per_w,tops_per_mm2\n";
  for (const auto& cell : cells) {
    out += strfmt("%lld,%s,%zu,%lld,%lld,%lld,%lld,%lld,%.6g,%.6g,%.6g,%.6g,"
                  "%.6g,%.6g\n",
                  static_cast<long long>(cell.wstore),
                  cell.precision.name.c_str(), cell.front_size,
                  static_cast<long long>(cell.evaluations),
                  static_cast<long long>(cell.knee.point.n),
                  static_cast<long long>(cell.knee.point.h),
                  static_cast<long long>(cell.knee.point.l),
                  static_cast<long long>(cell.knee.point.k),
                  cell.knee.metrics.area_mm2, cell.knee.metrics.delay_ns,
                  cell.knee.metrics.energy_per_mvm_nj,
                  cell.knee.metrics.throughput_tops,
                  cell.knee.metrics.tops_per_w,
                  cell.knee.metrics.tops_per_mm2);
  }
  return out;
}

}  // namespace sega
