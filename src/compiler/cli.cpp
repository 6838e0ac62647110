#include "compiler/cli.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compiler.h"
#include "compiler/orchestrate.h"
#include "compiler/sweep.h"
#include "compiler/validate.h"
#include "cost/cost_cache.h"
#include "serve/server.h"
#include "tech/techlib_parser.h"
#include "util/strings.h"

namespace sega {

namespace {

constexpr const char* kUsage =
    "usage: sega_dcim <command> [options]\n"
    "\n"
    "commands:\n"
    "  compile --spec <spec.json> --out <dir> [--tech <file.techlib>]\n"
    "          [--cache-file <path>] [--cost-model analytic|rtl]\n"
    "          [--calibration <file>] [--layout]\n"
    "  explore --wstore <n> --precision <name> [--sparsity <f>]\n"
    "          [--supply <v>] [--seed <n>] [--population <n>]\n"
    "          [--generations <n>] [--threads <n>] [--tech <file.techlib>]\n"
    "          [--cache-file <path>] [--cost-model analytic|rtl]\n"
    "          [--calibration <file>] [--layout]\n"
    "  sweep   [--spec <sweep.json>] [--out <dir>] [--checkpoint <path>]\n"
    "          [--cache-file <path>] [--resume-summary] [--shard <i/N>]\n"
    "          [--heartbeat-every <k>] [--wstores <n,n,...>]\n"
    "          [--precisions <name,name,...>] [--sparsity <f>]\n"
    "          [--supply <v>] [--seed <n>] [--population <n>]\n"
    "          [--generations <n>] [--threads <n>] [--tech <file.techlib>]\n"
    "          [--cost-model analytic|rtl] [--calibration <file>] [--layout]\n"
    "  orchestrate --workers <N> --checkpoint <path>\n"
    "          [--spec <sweep.json>] [--out <dir>] [--cache-file <path>]\n"
    "          [--max-retries <n>] [--stall-timeout <sec>]\n"
    "          [--poll-interval <sec>] [--backoff <sec>]\n"
    "          [--backoff-max <sec>] [--heartbeat-every <k>]\n"
    "          [--wstores <n,n,...>] [--precisions <name,name,...>]\n"
    "          [--sparsity <f>] [--supply <v>] [--seed <n>]\n"
    "          [--population <n>] [--generations <n>] [--threads <n>]\n"
    "          [--tech <file.techlib>] [--cost-model analytic|rtl]\n"
    "          [--calibration <file>] [--layout]\n"
    "  sweep-merge --checkpoint <path> --shards <N> [--spec <sweep.json>]\n"
    "          [--out <dir>] [--cache-file <path>] [--wstores <n,n,...>]\n"
    "          [--precisions <name,name,...>] [--sparsity <f>]\n"
    "          [--supply <v>] [--seed <n>] [--population <n>]\n"
    "          [--generations <n>] [--threads <n>] [--tech <file.techlib>]\n"
    "          [--cost-model analytic|rtl] [--calibration <file>] [--layout]\n"
    "  validate [--spec <validate.json>] [--out <dir>] [--tolerance <f>]\n"
    "          [--cache-file <path>] [--rtl-cache-file <path>]\n"
    "          [--checkpoint <path>] [--wstores <n,n,...>]\n"
    "          [--precisions <name,name,...>] [--sparsity <f>]\n"
    "          [--supply <v>] [--seed <n>] [--population <n>]\n"
    "          [--generations <n>] [--threads <n>] [--tech <file.techlib>]\n"
    "          [--calibrate <out.cal> | --calibration <file>] [--layout]\n"
    "  memo-compact --cache-file <path> [--shards <N>] [--out <path>]\n"
    "          [--extra <path,path,...>]\n"
    "  serve   [--socket <path>] [--tech <file.techlib>]\n"
    "          [--cache-file <path>] [--response-cache <n>]\n"
    "          [--calibration <file>] [--status] [--stop]\n"
    "  precisions\n"
    "  techlib\n"
    "\n"
    "daemon client options (compile/explore/sweep/validate, handled by the\n"
    "sega_dcim binary before the command runs):\n"
    "  --socket <path>   use the serve daemon at <path> (default:\n"
    "                    $SEGA_SERVE_SOCKET, else /tmp/sega-serve-<uid>.sock)\n"
    "  --no-daemon       never use a daemon; always run in-process\n";

/// Parse --key value pairs; flags named in @p boolean_flags take no value
/// (their presence stores "1").  Returns false on malformed input.
bool parse_flags(const std::vector<std::string>& args, std::size_t start,
                 const std::vector<std::string>& boolean_flags,
                 std::map<std::string, std::string>* flags,
                 std::ostream& err) {
  for (std::size_t i = start; i < args.size();) {
    if (!starts_with(args[i], "--")) {
      err << "malformed option '" << args[i] << "'\n";
      return false;
    }
    const std::string name = args[i].substr(2);
    const bool is_boolean =
        std::find(boolean_flags.begin(), boolean_flags.end(), name) !=
        boolean_flags.end();
    if (is_boolean) {
      (*flags)[name] = "1";
      i += 1;
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "malformed option '" << args[i] << "'\n";
      return false;
    }
    (*flags)[name] = args[i + 1];
    i += 2;
  }
  return true;
}

/// Reject unknown flags (typos must not silently change a run).
bool check_known(const std::map<std::string, std::string>& flags,
                 const std::vector<std::string>& known, std::ostream& err) {
  for (const auto& [key, value] : flags) {
    bool ok = false;
    for (const auto& k : known) {
      if (key == k) ok = true;
    }
    if (!ok) {
      err << "unknown option '--" << key << "'\n";
      return false;
    }
  }
  return true;
}

/// Parse the numeric flag @p name into *out (parse_number_strict: a whole,
/// decimal, finite number); an absent flag keeps *out.  False after the
/// diagnostic.
template <typename T>
bool numeric_flag(const std::map<std::string, std::string>& flags,
                  const char* name, T* out, std::ostream& err) {
  const auto it = flags.find(name);
  if (it == flags.end() || parse_number_strict(it->second, out)) return true;
  err << "bad numeric option value for --" << name << ": '" << it->second
      << "'\n";
  return false;
}

/// Read and parse a --spec JSON file; nullopt after a diagnostic on @p err.
/// The typed Spec::from_json stage stays with the caller — only the
/// file-and-JSON plumbing is shared.
std::optional<Json> load_spec_json(const std::string& path,
                                   std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "cannot open spec '" << path << "'\n";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string jerr;
  auto json = Json::parse(buf.str(), &jerr);
  if (!json) err << jerr << "\n";
  return json;
}

std::optional<Technology> load_technology(
    const std::map<std::string, std::string>& flags, const CliHooks& hooks,
    std::ostream& err) {
  const auto it = flags.find("tech");
  if (hooks.tech != nullptr) {
    // Defense in depth: the daemon's dispatcher already rejects --tech; a
    // per-request technology could not match the resident shared caches.
    if (it != flags.end()) {
      err << "--tech is not available via the daemon (use --no-daemon)\n";
      return std::nullopt;
    }
    return *hooks.tech;
  }
  if (it == flags.end()) return Technology::tsmc28();
  std::ifstream in(it->second);
  if (!in) {
    err << "cannot open techlib '" << it->second << "'\n";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string perr;
  auto tech = parse_techlib(buf.str(), &perr);
  if (!tech) err << perr << "\n";
  return tech;
}

/// Apply the evaluation-config flags (EvalConfig::apply_flags) to @p eval;
/// false after writing the diagnostic.
bool apply_eval_flags(const std::map<std::string, std::string>& flags,
                      EvalConfig* eval, std::ostream& err) {
  std::string flag_error;
  if (eval->apply_flags(flags, &flag_error)) return true;
  err << flag_error << "\n";
  return false;
}

/// The host's shared cache for this evaluation config, when hooks provide
/// one (daemon dispatch); null otherwise.  A non-null cache makes
/// Compiler::run ignore spec.cache_file — the host owns persistence.
CostCache* shared_cache_for(const CliHooks& hooks, const EvalConfig& eval) {
  return hooks.cache_for ? hooks.cache_for(eval) : nullptr;
}

int cmd_compile(const std::map<std::string, std::string>& flags,
                std::ostream& out, std::ostream& err, const CliHooks& hooks) {
  if (!flags.count("spec") || !flags.count("out")) {
    err << "compile requires --spec and --out\n";
    return 2;
  }
  const auto json = load_spec_json(flags.at("spec"), err);
  if (!json) return 2;
  std::string serr;
  const auto spec = CompilerSpec::from_json(*json, &serr);
  if (!spec) {
    err << serr << "\n";
    return 2;
  }
  const auto tech = load_technology(flags, hooks, err);
  if (!tech) return 2;

  CompilerSpec run_spec = *spec;
  if (flags.count("cache-file")) run_spec.cache_file = flags.at("cache-file");
  if (!apply_eval_flags(flags, &run_spec.eval, err)) return 2;

  const Compiler compiler(*tech);
  std::string run_err;
  const CompilerResult result = compiler.run(
      run_spec, shared_cache_for(hooks, run_spec.eval), &run_err);
  if (!run_err.empty()) {
    err << run_err << "\n";
    return 2;
  }

  const std::filesystem::path outdir = flags.at("out");
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    err << "cannot create output directory '" << outdir.string() << "'\n";
    return 2;
  }
  {
    std::ofstream f(outdir / "report.json");
    f << result.report().dump(2) << "\n";
  }
  {
    std::ofstream f(outdir / "front.txt");
    f << result.summary();
  }
  for (std::size_t i = 0; i < result.selected.size(); ++i) {
    const auto& sel = result.selected[i];
    const std::string base = strfmt(
        "design%zu_%s", i,
        to_verilog_identifier(sel.design.point.to_string()).c_str());
    if (!sel.verilog.empty()) {
      std::ofstream f(outdir / (base + ".v"));
      f << sel.verilog;
    }
    if (!sel.def.empty()) {
      std::ofstream f(outdir / (base + ".def"));
      f << sel.def;
    }
  }
  out << result.summary();
  out << strfmt("\nwrote %zu artifact set(s) to %s\n", result.selected.size(),
                outdir.string().c_str());
  return 0;
}

/// The --seed/--population/--generations/--threads flags and their range
/// validation, shared by explore and sweep.  The ranges mirror the explorer
/// preconditions so a bad value is a diagnostic and exit 2, never a
/// contract abort inside a pool worker.
bool parse_dse_flags(const std::map<std::string, std::string>& flags,
                     Nsga2Options* dse, std::ostream& err) {
  if (!numeric_flag(flags, "seed", &dse->seed, err) ||
      !numeric_flag(flags, "population", &dse->population, err) ||
      !numeric_flag(flags, "generations", &dse->generations, err) ||
      !numeric_flag(flags, "threads", &dse->threads, err)) {
    return false;
  }
  if (dse->population < 4 || dse->generations < 1 || dse->threads < 0) {
    err << "option value out of range\n";
    return false;
  }
  return true;
}

int cmd_explore(const std::map<std::string, std::string>& flags,
                std::ostream& out, std::ostream& err, const CliHooks& hooks) {
  if (!flags.count("wstore") || !flags.count("precision")) {
    err << "explore requires --wstore and --precision\n";
    return 2;
  }
  CompilerSpec spec;
  if (!numeric_flag(flags, "wstore", &spec.wstore, err)) return 2;
  const auto precision = precision_from_name(flags.at("precision"));
  if (!precision) {
    err << "unknown precision '" << flags.at("precision") << "'\n";
    return 2;
  }
  spec.precision = *precision;
  if (!parse_dse_flags(flags, &spec.dse, err) ||
      !apply_eval_flags(flags, &spec.eval, err)) {
    return 2;
  }
  if (spec.wstore < 1) {
    err << "option value out of range\n";
    return 2;
  }
  spec.generate_rtl = false;
  spec.generate_layout = false;
  if (flags.count("cache-file")) spec.cache_file = flags.at("cache-file");

  const auto tech = load_technology(flags, hooks, err);
  if (!tech) return 2;
  const Compiler compiler(*tech);
  std::string run_err;
  const CompilerResult result =
      compiler.run(spec, shared_cache_for(hooks, spec.eval), &run_err);
  if (!run_err.empty()) {
    err << run_err << "\n";
    return 2;
  }
  out << result.summary();
  return 0;
}

/// Build a SweepSpec from --spec plus the grid/DSE/path override flags —
/// shared by sweep and sweep-merge (the merge must describe the identical
/// grid or the shard fingerprints won't match).  Returns false after
/// writing a diagnostic.
bool build_sweep_spec(const std::map<std::string, std::string>& flags,
                      SweepSpec* spec, std::ostream& err) {
  if (flags.count("spec")) {
    const auto json = load_spec_json(flags.at("spec"), err);
    if (!json) return false;
    std::string serr;
    const auto parsed = SweepSpec::from_json(*json, &serr);
    if (!parsed) {
      err << serr << "\n";
      return false;
    }
    *spec = *parsed;
  }
  if (flags.count("wstores")) {
    spec->wstores.clear();
    for (const auto& field : split(flags.at("wstores"), ',')) {
      std::int64_t wstore = 0;
      if (!parse_number_strict(trim(field), &wstore)) {
        err << "bad numeric option value for --wstores: '"
            << flags.at("wstores") << "'\n";
        return false;
      }
      if (wstore < 1) {
        err << "option value out of range\n";
        return false;
      }
      spec->wstores.push_back(wstore);
    }
  }
  if (!parse_dse_flags(flags, &spec->dse, err) ||
      !apply_eval_flags(flags, &spec->eval, err)) {
    return false;
  }
  if (flags.count("precisions")) {
    spec->precisions.clear();
    for (const auto& field : split(flags.at("precisions"), ',')) {
      const auto p = precision_from_name(trim(field));
      if (!p) {
        err << "unknown precision '" << trim(field) << "'\n";
        return false;
      }
      spec->precisions.push_back(*p);
    }
    if (spec->precisions.empty()) {
      err << "--precisions must name at least one precision\n";
      return false;
    }
  }
  if (flags.count("checkpoint")) spec->checkpoint = flags.at("checkpoint");
  if (flags.count("cache-file")) spec->cache_file = flags.at("cache-file");
  if (flags.count("heartbeat-every")) {
    if (!numeric_flag(flags, "heartbeat-every", &spec->heartbeat_every,
                      err)) {
      return false;
    }
    if (spec->heartbeat_every < 0) {
      err << "option value out of range\n";
      return false;
    }
    if (spec->heartbeat_every > 0 && spec->checkpoint.empty()) {
      err << "--heartbeat-every requires --checkpoint (the heartbeat file "
             "sits next to it)\n";
      return false;
    }
  }
  if (spec->wstores.empty()) {
    err << "option value out of range\n";
    return false;
  }
  return true;
}

/// Parse `--shard i/N` into spec->shard.  Absent flag leaves the spec's
/// shard (possibly set via the spec file) untouched.
bool parse_shard_flag(const std::map<std::string, std::string>& flags,
                      SweepSpec* spec, std::ostream& err) {
  const auto it = flags.find("shard");
  if (it == flags.end()) return true;
  const auto parts = split(it->second, '/');
  int index = 0;
  int count = 0;
  const bool ok = parts.size() == 2 &&
                  parse_number_strict(trim(parts[0]), &index) &&
                  parse_number_strict(trim(parts[1]), &count);
  if (!ok || count < 1 || index < 0 || index >= count) {
    err << "--shard must be i/N with 0 <= i < N\n";
    return false;
  }
  spec->shard.index = index;
  spec->shard.count = count;
  return true;
}

/// Write sweep.json/sweep.csv under --out (when given) and the CSV to
/// stdout — shared by sweep, orchestrate, and sweep-merge.
int write_sweep_outputs(const SweepResult& result,
                        const std::map<std::string, std::string>& flags,
                        std::ostream& out, std::ostream& err) {
  if (flags.count("out")) {
    const std::filesystem::path outdir = flags.at("out");
    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
      err << "cannot create output directory '" << outdir.string() << "'\n";
      return 2;
    }
    {
      std::ofstream f(outdir / "sweep.json");
      f << result.to_json().dump(2) << "\n";
    }
    {
      std::ofstream f(outdir / "sweep.csv");
      f << result.to_csv();
    }
    err << strfmt("wrote %zu cell(s) to %s/sweep.{csv,json}\n",
                  result.cells.size(), outdir.string().c_str());
  }
  out << result.to_csv();
  return 0;
}

/// The full §IV validation grid (or a subset), run on the parallel sweep
/// engine with optional JSONL checkpoint/resume, optionally as one shard of
/// an N-worker set (--shard).
/// CSV goes to stdout; --out additionally writes sweep.json and sweep.csv.
int cmd_sweep(const std::map<std::string, std::string>& flags,
              std::ostream& out, std::ostream& err, const CliHooks& hooks) {
  SweepSpec spec;
  if (!build_sweep_spec(flags, &spec, err)) return 2;
  if (!parse_shard_flag(flags, &spec, err)) return 2;

  const auto tech = load_technology(flags, hooks, err);
  if (!tech) return 2;
  const Compiler compiler(*tech);

  // Coverage report only — read the checkpoint, run nothing.
  if (flags.count("resume-summary")) {
    std::string sum_err;
    const auto summary = summarize_checkpoint(compiler, spec, &sum_err);
    if (!summary) {
      err << sum_err << "\n";
      return 2;
    }
    const std::string shown =
        spec.shard.active()
            ? shard_file_path(spec.checkpoint, spec.shard.index,
                              spec.shard.count)
            : spec.checkpoint;
    out << summary->render(shown);
    return 0;
  }

  spec.shared_cache = shared_cache_for(hooks, spec.eval);
  spec.progress = hooks.sweep_progress;
  std::string sweep_err;
  const SweepResult result = run_sweep(compiler, spec, &sweep_err);
  if (!sweep_err.empty()) {
    err << sweep_err << "\n";
    return 2;
  }
  return write_sweep_outputs(result, flags, out, err);
}

/// Fan N shard checkpoints (and memo shards) back into one result: unified
/// JSON/CSV byte-identical to an unsharded run, a unified resumable
/// checkpoint, and a unified cost memo.
int cmd_sweep_merge(const std::map<std::string, std::string>& flags,
                    std::ostream& out, std::ostream& err) {
  SweepSpec spec;
  if (!build_sweep_spec(flags, &spec, err)) return 2;
  if (spec.checkpoint.empty()) {
    err << "sweep-merge requires --checkpoint (the shard base path)\n";
    return 2;
  }
  if (!flags.count("shards")) {
    err << "sweep-merge requires --shards <N>\n";
    return 2;
  }
  int shards = 0;
  if (!numeric_flag(flags, "shards", &shards, err)) return 2;
  if (shards < 1) {
    err << "option value out of range\n";
    return 2;
  }

  const auto tech = load_technology(flags, CliHooks{}, err);
  if (!tech) return 2;
  const Compiler compiler(*tech);
  std::string merge_error;
  const SweepResult result =
      merge_sweep_shards(compiler, spec, shards, &merge_error);
  if (!merge_error.empty()) {
    err << merge_error << "\n";
    return 2;
  }
  return write_sweep_outputs(result, flags, out, err);
}

/// Parse a positive-seconds flag into *out; absent flag keeps the default.
bool parse_seconds_flag(const std::map<std::string, std::string>& flags,
                        const char* name, double* out, std::ostream& err) {
  if (!numeric_flag(flags, name, out, err)) return false;
  if (!(*out > 0)) {
    err << "option value out of range\n";
    return false;
  }
  return true;
}

/// Supervised N-worker sweep: fork the fleet, watch heartbeats, SIGKILL
/// stalls, relaunch failures with exponential backoff (resuming from the
/// dead worker's shard checkpoint), and merge the shards on completion.
/// Exit 0 on success, 1 on a supervision/merge failure (report on stderr,
/// orchestrate.json under --out either way), 2 on usage errors.
int cmd_orchestrate(const std::map<std::string, std::string>& flags,
                    std::ostream& out, std::ostream& err) {
  OrchestrateSpec ospec;
  if (!build_sweep_spec(flags, &ospec.sweep, err)) return 2;
  if (!flags.count("workers")) {
    err << "orchestrate requires --workers <N>\n";
    return 2;
  }
  if (!numeric_flag(flags, "workers", &ospec.workers, err) ||
      !numeric_flag(flags, "max-retries", &ospec.max_retries, err)) {
    return 2;
  }
  if (ospec.workers < 1 || ospec.max_retries < 0) {
    err << "option value out of range\n";
    return 2;
  }
  if (!parse_seconds_flag(flags, "stall-timeout", &ospec.stall_timeout_s,
                          err) ||
      !parse_seconds_flag(flags, "poll-interval", &ospec.poll_interval_s,
                          err) ||
      !parse_seconds_flag(flags, "backoff", &ospec.backoff_initial_s, err) ||
      !parse_seconds_flag(flags, "backoff-max", &ospec.backoff_max_s, err)) {
    return 2;
  }
  if (ospec.backoff_max_s < ospec.backoff_initial_s) {
    err << "--backoff-max must be >= --backoff\n";
    return 2;
  }
  if (ospec.sweep.checkpoint.empty()) {
    err << "orchestrate requires --checkpoint (the shard checkpoints are "
           "the crash-recovery state and the merge fan-in)\n";
    return 2;
  }

  const auto tech = load_technology(flags, CliHooks{}, err);
  if (!tech) return 2;
  const Compiler compiler(*tech);
  SweepResult result;
  const OrchestrateReport report = run_orchestrate(compiler, ospec, &result);
  err << report.render();
  if (flags.count("out")) {
    const std::filesystem::path outdir = flags.at("out");
    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
      err << "cannot create output directory '" << outdir.string() << "'\n";
      return 2;
    }
    std::ofstream f(outdir / "orchestrate.json");
    f << report.to_json().dump(2) << "\n";
  }
  if (!report.success) return 1;
  return write_sweep_outputs(result, flags, out, err);
}

/// Rewrite a base memo plus its shard deltas into one deduplicated memo —
/// streamed (no metrics materialized), byte-identical to loading every
/// source into one cache and saving it.
int cmd_memo_compact(const std::map<std::string, std::string>& flags,
                     std::ostream& out, std::ostream& err) {
  if (!flags.count("cache-file")) {
    err << "memo-compact requires --cache-file (the base memo path)\n";
    return 2;
  }
  const std::string base = flags.at("cache-file");
  int shards = 0;
  if (!numeric_flag(flags, "shards", &shards, err)) return 2;
  if (flags.count("shards") && shards < 1) {
    err << "option value out of range\n";
    return 2;
  }
  std::vector<std::string> sources = {base};
  for (int i = 0; i < shards; ++i) {
    sources.push_back(shard_file_path(base, i, shards));
  }
  // --extra folds additional delta files into the compaction — the serve
  // daemon's `<base>.serve-<hash>` memo deltas, or any other save_delta
  // output with a matching fingerprint.
  if (flags.count("extra")) {
    for (const auto& field : split(flags.at("extra"), ',')) {
      const std::string path = trim(field);
      if (!path.empty()) sources.push_back(path);
    }
  }
  const std::string out_path = flags.count("out") ? flags.at("out") : base;
  std::string compact_error;
  CostCache::CompactStats stats;
  if (!CostCache::compact_memo_files(sources, out_path, &compact_error,
                                     &stats)) {
    err << compact_error << "\n";
    return 2;
  }
  out << strfmt(
      "memo-compact: %d file(s) -> %zu entr%s (%zu duplicate(s) dropped, "
      "%zu corrupt line(s) skipped) at %s\n",
      stats.files_merged, stats.entries, stats.entries == 1 ? "y" : "ies",
      stats.duplicates, stats.corrupt_lines, out_path.c_str());
  return 0;
}

/// Analytic-vs-RTL knee cross-validation: DSE the grid with the analytic
/// model, re-measure every knee through the RTL model, report per-metric
/// divergence.  Exit 0 when every knee is within --tolerance, 1 when the
/// tolerance is exceeded, 2 on errors.
int cmd_validate(const std::map<std::string, std::string>& flags,
                 std::ostream& out, std::ostream& err, const CliHooks& hooks) {
  ValidateSpec spec;
  if (flags.count("spec")) {
    const auto json = load_spec_json(flags.at("spec"), err);
    if (!json) return 2;
    std::string serr;
    const auto parsed = ValidateSpec::from_json(*json, &serr);
    if (!parsed) {
      err << serr << "\n";
      return 2;
    }
    spec = *parsed;
  }
  // Grid/DSE/path/evaluation overrides share the sweep flag logic (--spec
  // was already consumed as a *validate* spec above).  --calibration lands
  // in spec.sweep.eval, which run_validate applies to the comparison only.
  std::map<std::string, std::string> grid_flags = flags;
  grid_flags.erase("spec");
  if (!build_sweep_spec(grid_flags, &spec.sweep, err)) return 2;
  if (flags.count("calibrate") && flags.count("calibration")) {
    err << "--calibrate (fit a fresh artifact) and --calibration (compare "
           "under an existing one) are mutually exclusive\n";
    return 2;
  }
  if (!numeric_flag(flags, "tolerance", &spec.tolerance, err)) return 2;
  if (!(spec.tolerance > 0)) {
    err << "option value out of range\n";
    return 2;
  }
  if (flags.count("rtl-cache-file")) {
    spec.rtl_cache_file = flags.at("rtl-cache-file");
  }

  const auto tech = load_technology(flags, hooks, err);
  if (!tech) return 2;
  const Compiler compiler(*tech);
  // validate always DSEs analytically and re-measures through RTL, so it
  // draws on both of the host's shared caches when available.  Both are the
  // *uncalibrated* stacks even under --calibration: the knee DSE always
  // runs uncalibrated (see ValidateSpec) and the RTL side is the
  // measurement itself.
  EvalConfig knee_eval = spec.sweep.eval;
  knee_eval.calibration_file.clear();
  knee_eval.backend = CostModelKind::kAnalytic;
  spec.sweep.shared_cache = shared_cache_for(hooks, knee_eval);
  knee_eval.backend = CostModelKind::kRtl;
  spec.shared_rtl_cache = shared_cache_for(hooks, knee_eval);

  // --calibrate: fit over the measured knees, save the artifact, and report
  // the before/after envelopes; the verdict (and exit code) judges the
  // freshly calibrated comparison.
  if (flags.count("calibrate")) {
    std::string cal_error;
    const auto creport =
        run_validate_calibrate(compiler, spec, flags.at("calibrate"),
                               &cal_error);
    if (!creport) {
      err << cal_error << "\n";
      return 2;
    }
    if (flags.count("out")) {
      const std::filesystem::path outdir = flags.at("out");
      std::error_code ec;
      std::filesystem::create_directories(outdir, ec);
      if (ec) {
        err << "cannot create output directory '" << outdir.string()
            << "'\n";
        return 2;
      }
      {
        std::ofstream f(outdir / "calibrate.json");
        f << creport->to_json().dump(2) << "\n";
      }
      {
        std::ofstream f(outdir / "calibrate.csv");
        f << creport->to_csv();
      }
      err << strfmt("wrote the calibration report to "
                    "%s/calibrate.{csv,json}\n",
                    outdir.string().c_str());
    }
    out << creport->render();
    if (!creport->pass()) {
      err << strfmt("validate: %zu knee point(s) exceed tolerance %.3g "
                    "after calibration\n",
                    creport->after.failures(), creport->after.tolerance);
      return 1;
    }
    return 0;
  }

  std::string run_error;
  const ValidateReport report = run_validate(compiler, spec, &run_error);
  if (!run_error.empty()) {
    err << run_error << "\n";
    return 2;
  }

  if (flags.count("out")) {
    const std::filesystem::path outdir = flags.at("out");
    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
      err << "cannot create output directory '" << outdir.string() << "'\n";
      return 2;
    }
    {
      std::ofstream f(outdir / "validate.json");
      f << report.to_json().dump(2) << "\n";
    }
    {
      std::ofstream f(outdir / "validate.csv");
      f << report.to_csv();
    }
    err << strfmt("wrote %zu knee comparison(s) to %s/validate.{csv,json}\n",
                  report.rows.size(), outdir.string().c_str());
  }
  out << report.render();
  if (!report.pass()) {
    err << strfmt("validate: %zu knee point(s) exceed tolerance %.3g\n",
                  report.failures(), report.tolerance);
    return 1;
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  return run_cli_hooked(args, out, err, CliHooks{});
}

int run_cli_hooked(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err, const CliHooks& hooks) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  // Valueless flags, per command (everything else takes "--key value").
  std::vector<std::string> boolean_flags;
  if (command == "sweep") boolean_flags = {"resume-summary", "layout"};
  if (command == "serve") boolean_flags = {"status", "stop"};
  if (command == "compile" || command == "explore" ||
      command == "orchestrate" || command == "sweep-merge" ||
      command == "validate") {
    boolean_flags = {"layout"};
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(args, 1, boolean_flags, &flags, err)) return 2;

  if (command == "compile") {
    if (!check_known(flags,
                     {"spec", "out", "tech", "cache-file", "cost-model",
                      "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_compile(flags, out, err, hooks);
  }
  if (command == "explore") {
    if (!check_known(flags,
                     {"wstore", "precision", "sparsity", "supply", "seed",
                      "population", "generations", "threads", "tech",
                      "cache-file", "cost-model", "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_explore(flags, out, err, hooks);
  }
  if (command == "sweep") {
    if (!check_known(flags,
                     {"spec", "out", "checkpoint", "cache-file",
                      "resume-summary", "shard", "heartbeat-every",
                      "wstores", "precisions", "sparsity", "supply", "seed",
                      "population", "generations", "threads", "tech",
                      "cost-model", "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_sweep(flags, out, err, hooks);
  }
  if (command == "serve") {
    if (hooks.tech != nullptr) {
      err << "serve cannot run inside the daemon (use --no-daemon)\n";
      return 2;
    }
    if (!check_known(flags,
                     {"socket", "tech", "cache-file", "response-cache",
                      "calibration", "status", "stop"},
                     err)) {
      return 2;
    }
    return run_serve_cli(flags, out, err);
  }
  if (command == "orchestrate") {
    if (!check_known(flags,
                     {"spec", "out", "checkpoint", "cache-file", "workers",
                      "max-retries", "stall-timeout", "poll-interval",
                      "backoff", "backoff-max", "heartbeat-every", "wstores",
                      "precisions", "sparsity", "supply", "seed",
                      "population", "generations", "threads", "tech",
                      "cost-model", "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_orchestrate(flags, out, err);
  }
  if (command == "memo-compact") {
    if (!check_known(flags, {"cache-file", "shards", "out", "extra"}, err)) {
      return 2;
    }
    return cmd_memo_compact(flags, out, err);
  }
  if (command == "sweep-merge") {
    if (!check_known(flags,
                     {"spec", "out", "checkpoint", "cache-file", "shards",
                      "wstores", "precisions", "sparsity", "supply", "seed",
                      "population", "generations", "threads", "tech",
                      "cost-model", "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_sweep_merge(flags, out, err);
  }
  if (command == "validate") {
    if (!check_known(flags,
                     {"spec", "out", "tolerance", "cache-file",
                      "rtl-cache-file", "checkpoint", "wstores", "precisions",
                      "sparsity", "supply", "seed", "population",
                      "generations", "threads", "tech", "calibrate",
                      "calibration", "layout"},
                     err)) {
      return 2;
    }
    return cmd_validate(flags, out, err, hooks);
  }
  if (command == "precisions") {
    for (const auto& p : all_precisions()) out << p.name << "\n";
    return 0;
  }
  if (command == "techlib") {
    out << write_techlib(Technology::tsmc28());
    return 0;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace sega
