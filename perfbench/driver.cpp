// perfbench_driver — the benchmark's in-process half, linked against
// sega_core.  perfbench/run.py times the sega_dcim binary end to end; this
// program does what can only be done from inside a process:
//
//   recall <in.json>        NSGA-II recall of the exact Pareto front per cell
//   knees <in.json>         flat-path reference metrics of layout knees
//   trace <workload> <in.json>
//                           per-layer split of one workload, timed around the
//                           calls into each src/ module (no program change)
//   serve <in.json>         serve daemon lifecycle + closed-loop load
//                           generator + --no-daemon reference check
//
// Every subcommand reads one JSON object and prints one JSON object on
// stdout.  Exit status 0 means the JSON is valid; a failed check is
// reported inside it, never by aborting.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/cli.h"
#include "compiler/sweep.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/layout_cost.h"
#include "cost/rtl_cost_model.h"
#include "dse/explorer.h"
#include "layout/floorplan.h"
#include "layout/wirelength.h"
#include "rtl/harness.h"
#include "rtl/macro_builder.h"
#include "rtl/sta.h"
#include "serve/client.h"
#include "util/socket.h"
#include "util/strings.h"

namespace {

using sega::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  auto json = Json::parse(buf.str(), &err);
  if (!json || !json->is_object()) die(path + ": " + err);
  return *json;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

sega::Precision precision_of(const std::string& name) {
  const auto p = sega::precision_from_name(name);
  if (!p) die("unknown precision " + name);
  return *p;
}

/// One (Wstore, precision) grid cell.
struct Cell {
  std::int64_t wstore;
  sega::Precision precision;
};

std::vector<Cell> cells_of(const Json& in) {
  std::vector<Cell> cells;
  for (const Json& w : in.at("wstores").elements()) {
    for (const Json& p : in.at("precisions").elements()) {
      cells.push_back({w.as_int(), precision_of(p.as_string())});
    }
  }
  return cells;
}

sega::Nsga2Options dse_of(const Json& in) {
  sega::Nsga2Options o;
  o.seed = static_cast<std::uint64_t>(in.at("seed").as_int());
  if (in.contains("population")) o.population = in.at("population").as_int();
  if (in.contains("generations")) {
    o.generations = in.at("generations").as_int();
  }
  o.threads = 1;
  return o;
}

bool layout_of(const Json& in) {
  return in.contains("layout") && in.at("layout").as_bool();
}

/// CostModel decorator that times every call into the wrapped model and
/// optionally records the points it was asked for.  Placed *under* a
/// CostCache, so it sees exactly the points that miss the cache.
class TimedModel final : public sega::CostModel {
 public:
  TimedModel(const sega::CostModel& inner, bool capture)
      : inner_(inner), capture_(capture) {}

  const sega::Technology& tech() const override { return inner_.tech(); }
  const sega::EvalConditions& conditions() const override {
    return inner_.conditions();
  }
  const char* model_name() const override { return inner_.model_name(); }
  int model_version() const override { return inner_.model_version(); }
  std::shared_ptr<const sega::Calibration> calibration() const override {
    return inner_.calibration();
  }
  bool layout_enabled() const override { return inner_.layout_enabled(); }

  sega::MacroMetrics evaluate(const sega::DesignPoint& dp) const override {
    const auto t0 = Clock::now();
    sega::MacroMetrics m = inner_.evaluate(dp);
    record(t0, &dp, 1);
    return m;
  }
  void evaluate_batch(sega::Span<const sega::DesignPoint> points,
                      sega::Span<sega::MacroMetrics> out) const override {
    const auto t0 = Clock::now();
    inner_.evaluate_batch(points, out);
    record(t0, points.data(), points.size());
  }

  double seconds() const { return seconds_; }
  std::uint64_t points() const { return points_; }
  const std::vector<sega::DesignPoint>& captured() const { return captured_; }

 private:
  void record(Clock::time_point t0, const sega::DesignPoint* p,
              std::size_t n) const {
    const double dt = since(t0);
    std::lock_guard<std::mutex> lock(mu_);
    seconds_ += dt;
    points_ += n;
    if (capture_) captured_.insert(captured_.end(), p, p + n);
  }

  const sega::CostModel& inner_;
  const bool capture_;
  mutable std::mutex mu_;
  mutable double seconds_ = 0.0;
  mutable std::uint64_t points_ = 0;
  mutable std::vector<sega::DesignPoint> captured_;
};

// ----------------------------------------------------------------- recall

/// Exact front of @p space under @p model: every valid point, non-dominated
/// subset.  Used for the layout model, which explore_exhaustive (analytic
/// only) cannot evaluate.
std::vector<sega::DesignPoint> exact_front(const sega::DesignSpace& space,
                                           const sega::CostModel& model) {
  const auto all = space.enumerate_all();
  std::vector<sega::MacroMetrics> metrics(all.size());
  model.evaluate_batch(sega::Span<const sega::DesignPoint>(all.data(),
                                                           all.size()),
                       sega::Span<sega::MacroMetrics>(metrics.data(),
                                                      metrics.size()));
  std::vector<sega::Objectives> objs;
  for (const auto& m : metrics) {
    const auto o = m.objectives();
    objs.emplace_back(o.begin(), o.end());
  }
  std::vector<sega::DesignPoint> front;
  for (const std::size_t i : sega::non_dominated_indices(objs)) {
    front.push_back(all[i]);
  }
  return front;
}

double recall_of(const std::vector<sega::DesignPoint>& found,
                 const std::vector<sega::DesignPoint>& exact) {
  std::size_t hit = 0;
  for (const auto& e : exact) {
    for (const auto& f : found) {
      if (f == e) {
        ++hit;
        break;
      }
    }
  }
  return exact.empty() ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(exact.size());
}

/// The design point of one CSV row (sweep or validate): its knee.
sega::DesignPoint knee_of(const Json& row) {
  sega::DesignPoint dp;
  dp.precision = precision_of(row.at("precision").as_string());
  dp.arch = sega::arch_for(dp.precision);
  dp.n = row.at("n").as_int();
  dp.h = row.at("h").as_int();
  dp.l = row.at("l").as_int();
  dp.k = row.at("k").as_int();
  return dp;
}

/// Recall of the exact front, per cell the command printed a row for.  The
/// in-process replay must be the run the command made: the row's knee is
/// on the replayed front, and its front_size and evaluations columns (where
/// the row has them) equal the replay's.  A row that disagrees counts as a
/// mismatch.
int cmd_recall(const Json& in) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const bool layout = layout_of(in);
  const auto model =
      sega::make_cost_model(sega::CostModelKind::kAnalytic, tech, cond,
                            nullptr, layout);
  sega::CostCache cache(*model);
  const sega::Nsga2Options dse = dse_of(in);
  std::vector<double> recalls;
  std::int64_t mismatched = 0;
  for (const Json& row : in.at("rows").elements()) {
    const sega::DesignPoint knee = knee_of(row);
    const sega::DesignSpace space(row.at("wstore").as_int(), knee.precision);
    sega::Nsga2Stats stats;
    const auto front = sega::explore_nsga2(space, cache, dse, &stats);
    std::vector<sega::DesignPoint> found;
    for (const auto& ed : front) found.push_back(ed.point);
    const bool agrees =
        std::find(found.begin(), found.end(), knee) != found.end() &&
        (!row.contains("front_size") ||
         row.at("front_size").as_int() ==
             static_cast<std::int64_t>(front.size())) &&
        (!row.contains("evaluations") ||
         row.at("evaluations").as_int() == stats.evaluations);
    if (!agrees) {
      ++mismatched;
      std::fprintf(stderr,
                   "perfbench_driver: replay differs from the command's row "
                   "%s (front %zu, %lld evaluations)\n",
                   row.dump().c_str(), front.size(),
                   static_cast<long long>(stats.evaluations));
    }
    std::vector<sega::DesignPoint> exact;
    if (layout) {
      exact = exact_front(space, cache);
    } else {
      for (const auto& ed : sega::explore_exhaustive(space, tech, cond)) {
        exact.push_back(ed.point);
      }
    }
    recalls.push_back(recall_of(found, exact));
  }
  double sum = 0.0;
  for (const double r : recalls) sum += r;
  Json out = Json::object();
  out["mean"] = recalls.empty() ? 0.0 : sum / recalls.size();
  out["mismatched"] = mismatched;
  std::cout << out.dump() << "\n";
  return 0;
}

// ------------------------------------------------------------------ knees

/// The flat layout reference path for each knee: the analytic metrics with
/// apply_layout_cost(estimate_layout_cost(ctx, build_dcim_macro(dp)))
/// folded in, formatted as the sweep CSV prints them.
int cmd_knees(const Json& in) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::AnalyticCostModel analytic(tech, cond);
  const sega::EvalContext ctx(tech, cond);
  Json rows = Json::array();
  for (const Json& k : in.at("knees").elements()) {
    const sega::DesignPoint dp = knee_of(k);
    const auto valid =
        sega::validate_design(dp, k.at("wstore").as_int(), {});
    if (!valid.ok) {
      rows.push_back(Json("invalid: " + valid.reason));
      continue;
    }
    sega::MacroMetrics m = analytic.evaluate(dp);
    sega::apply_layout_cost(
        sega::estimate_layout_cost(ctx, sega::build_dcim_macro(dp)), &m);
    rows.push_back(Json(sega::strfmt(
        "%.6g,%.6g,%.6g,%.6g,%.6g,%.6g", m.area_mm2, m.delay_ns,
        m.energy_per_mvm_nj, m.throughput_tops, m.tops_per_w,
        m.tops_per_mm2)));
  }
  Json out = Json::object();
  out["rows"] = rows;
  std::cout << out.dump() << "\n";
  return 0;
}

// ------------------------------------------------------------------ trace

/// Replay of a sweep's DSE over one shared cache, cell by cell in grid
/// order (the per-cell call run_sweep makes), timed per cell.
struct DseSplit {
  double total_s = 0.0;
  std::int64_t evaluations = 0;
};

DseSplit replay_dse(const std::vector<Cell>& cells, sega::CostCache& cache,
                    const sega::Nsga2Options& dse) {
  DseSplit split;
  for (const Cell& c : cells) {
    const sega::DesignSpace space(c.wstore, c.precision);
    sega::Nsga2Stats stats;
    const auto t0 = Clock::now();
    sega::explore_nsga2(space, cache, dse, &stats);
    split.total_s += since(t0);
    split.evaluations += stats.evaluations;
  }
  return split;
}

void put_cache(Json* out, const sega::CostCache& cache) {
  Json& o = *out;
  const double hits = static_cast<double>(cache.hits());
  const double misses = static_cast<double>(cache.misses());
  o["cache.hits"] = cache.hits();
  o["cache.misses"] = cache.misses();
  o["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// NSGA-II time split into model evaluation (below the cache) and the rest:
/// variation, sorting, crowding, archive upkeep and cache lookups.
void put_dse(Json* out, const DseSplit& split, double model_s,
             std::uint64_t points) {
  Json& o = *out;
  o["nsga2.total_s"] = split.total_s;
  o["nsga2.evaluate_s"] = model_s;
  o["nsga2.bookkeeping_s"] = split.total_s - model_s;
  o["nsga2.evaluations"] = split.evaluations;
  o["cost.points"] = points;
  o["cost.us_per_point"] = points ? 1e6 * model_s / points : 0.0;
}

int trace_grid(const Json& in, Json* out) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::AnalyticCostModel model(tech, cond);
  const TimedModel timed(model, false);
  sega::CostCache cache(timed);
  const auto cells = cells_of(in);
  const auto t0 = Clock::now();
  const DseSplit split = replay_dse(cells, cache, dse_of(in));
  (*out)["trace.run_s"] = since(t0);
  put_dse(out, split, timed.seconds(), timed.points());
  put_cache(out, cache);

  const auto t1 = Clock::now();
  for (const Cell& c : cells) {
    sega::explore_exhaustive(sega::DesignSpace(c.wstore, c.precision), tech,
                             cond);
  }
  (*out)["dse.exhaustive_s"] = since(t1);
  return 0;
}

int trace_memo(const Json& in, Json* out) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::AnalyticCostModel model(tech, cond);
  const auto cells = cells_of(in);
  const auto dse = dse_of(in);
  const std::string dir = in.at("dir").as_string();
  const std::string memo = dir + "/memo.jsonl";
  const std::string ckpt = dir + "/ckpt.jsonl";
  Json& o = *out;

  const auto t0 = Clock::now();
  const TimedModel cold_model(model, false);
  sega::CostCache cold(cold_model);
  const DseSplit cold_split = replay_dse(cells, cold, dse);
  std::string err;
  auto ts = Clock::now();
  if (!cold.save(memo, &err)) die(err);
  o["io.memo_save_s"] = since(ts);

  const TimedModel warm_model(model, false);
  sega::CostCache warm(warm_model);
  ts = Clock::now();
  if (!warm.load(memo, &err)) die(err);
  o["io.memo_load_s"] = since(ts);
  const DseSplit warm_split = replay_dse(cells, warm, dse);
  o["trace.run_s"] = since(t0);

  // NSGA-II sums both passes; the cache counters are the warm pass's, where
  // every lookup must hit the loaded memo.
  DseSplit both = cold_split;
  both.total_s += warm_split.total_s;
  both.evaluations += warm_split.evaluations;
  put_dse(out, both, cold_model.seconds() + warm_model.seconds(),
          cold_model.points() + warm_model.points());
  put_cache(out, warm);
  o["io.memo_entries"] = static_cast<std::uint64_t>(cold.size());
  o["io.memo_bytes"] = file_bytes(memo);

  // Checkpoint resume: the first run_sweep writes a complete checkpoint, the
  // timed second one recovers every cell from it and computes nothing.
  const sega::Compiler compiler(tech);
  sega::SweepSpec spec;
  spec.wstores.clear();
  spec.precisions.clear();
  for (const Json& w : in.at("wstores").elements()) {
    spec.wstores.push_back(w.as_int());
  }
  for (const Json& p : in.at("precisions").elements()) {
    spec.precisions.push_back(precision_of(p.as_string()));
  }
  spec.dse = dse;
  spec.checkpoint = ckpt;
  const std::string first = run_sweep(compiler, spec, &err).to_csv();
  if (!err.empty()) die(err);
  ts = Clock::now();
  const std::string resumed = run_sweep(compiler, spec, &err).to_csv();
  o["io.checkpoint_s"] = since(ts);
  if (!err.empty()) die(err);
  o["io.checkpoint_bytes"] = file_bytes(ckpt);
  o["check.resume_identical"] = first == resumed;
  return 0;
}

int trace_layout(const Json& in, Json* out) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::AnalyticCostModel model(tech, cond, nullptr, /*layout=*/true);
  const TimedModel timed(model, /*capture=*/true);
  sega::CostCache cache(timed);
  const auto t0 = Clock::now();
  const DseSplit split = replay_dse(cells_of(in), cache, dse_of(in));
  (*out)["trace.run_s"] = since(t0);
  put_dse(out, split, timed.seconds(), timed.points());
  put_cache(out, cache);

  double elaborate = 0.0, floorplan = 0.0, hpwl = 0.0;
  std::uint64_t cells = 0;
  for (const auto& dp : timed.captured()) {
    auto ts = Clock::now();
    const sega::DcimMacro macro = sega::build_dcim_macro(dp);
    elaborate += since(ts);
    ts = Clock::now();
    const sega::MacroLayout layout = sega::floorplan_macro(tech, macro);
    floorplan += since(ts);
    ts = Clock::now();
    sega::estimate_wirelength(layout, macro.netlist);
    hpwl += since(ts);
    cells += macro.netlist.cells().size();
  }
  Json& o = *out;
  o["cost.layout.elaborate_s"] = elaborate;
  o["cost.layout.floorplan_s"] = floorplan;
  o["cost.layout.hpwl_s"] = hpwl;
  o["cost.layout.points"] =
      static_cast<std::uint64_t>(timed.captured().size());
  o["cost.layout.cells"] = cells;
  return 0;
}

int trace_validate(const Json& in, Json* out) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::Compiler compiler(tech);
  sega::SweepSpec grid;
  grid.wstores.clear();
  grid.precisions.clear();
  for (const Json& w : in.at("wstores").elements()) {
    grid.wstores.push_back(w.as_int());
  }
  for (const Json& p : in.at("precisions").elements()) {
    grid.precisions.push_back(precision_of(p.as_string()));
  }
  grid.dse = dse_of(in);
  Json& o = *out;

  const auto t0 = Clock::now();
  std::string err;
  const sega::SweepResult sweep = run_sweep(compiler, grid, &err);
  if (!err.empty()) die(err);
  o["validate.dse_s"] = since(t0);
  sega::RtlCostModelOptions options;
  options.threads = 1;
  const sega::RtlCostModel rtl(tech, cond, options);
  double evaluate = 0.0;
  for (const auto& cell : sweep.cells) {
    const auto ts = Clock::now();
    rtl.evaluate(cell.knee.point);
    evaluate += since(ts);
  }
  o["trace.run_s"] = since(t0);
  o["rtl.evaluate_s"] = evaluate;

  double elaborate = 0.0, harness = 0.0, sta = 0.0;
  std::uint64_t cells = 0;
  for (const auto& cell : sweep.cells) {
    auto ts = Clock::now();
    cells += sega::build_dcim_macro(cell.knee.point).netlist.cells().size();
    elaborate += since(ts);
    ts = Clock::now();
    const sega::DcimHarness h(cell.knee.point);
    harness += since(ts);
    ts = Clock::now();
    sega::run_sta(h.macro().netlist, tech);
    sta += since(ts);
  }
  o["rtl.elaborate_s"] = elaborate;
  o["rtl.harness_s"] = harness;
  o["rtl.sta_s"] = sta;
  o["rtl.simulate_s"] = evaluate - harness - sta;
  o["rtl.cells"] = cells;
  return 0;
}

int cmd_trace(const std::string& workload, const Json& in) {
  Json out = Json::object();
  if (workload == "grid_sweep") {
    trace_grid(in, &out);
  } else if (workload == "grid_memo") {
    trace_memo(in, &out);
  } else if (workload == "layout_cell") {
    trace_layout(in, &out);
  } else if (workload == "validate_knees") {
    trace_validate(in, &out);
  } else {
    die("no in-process trace for workload " + workload);
  }
  std::cout << out.dump() << "\n";
  return 0;
}

// ------------------------------------------------------------------ serve

/// The sega_dcim serve daemon, launched as a child process and always
/// reaped: shutdown() asks it to drain, and the destructor kills and waits
/// if that did not happen.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) : socket_(socket) {
    pid_ = ::fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      std::freopen("/dev/null", "w", stdout);
      std::freopen("/dev/null", "w", stderr);
      ::execl(binary.c_str(), binary.c_str(), "serve", "--socket",
              socket.c_str(), static_cast<char*>(nullptr));
      std::_Exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
  }

  bool wait_ready(double timeout_s) const {
    const auto t0 = Clock::now();
    while (since(t0) < timeout_s) {
      if (sega::daemon_ping(socket_)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Graceful stop; returns the daemon's peak RSS in MiB (0 on failure).
  double shutdown() {
    sega::daemon_shutdown(socket_);
    return reap();
  }

 private:
  double reap() {
    int status = 0;
    struct rusage ru {};
    pid_t r;
    do {
      r = ::wait4(pid_, &status, 0, &ru);
    } while (r < 0 && errno == EINTR);
    pid_ = -1;
    return r > 0 ? ru.ru_maxrss / 1024.0 : 0.0;
  }

  std::string socket_;
  pid_t pid_ = -1;
};

/// One persistent client connection speaking the daemon's line protocol.
class Connection {
 public:
  explicit Connection(const std::string& socket)
      : fd_(sega::unix_connect(socket)), reader_(fd_.get(), 256u << 20) {}
  bool ok() const { return fd_.valid(); }

  /// Send one run request and read up to its result line.  False on a lost
  /// connection or an error response.
  bool run(std::int64_t id, const Json& argv, int* exit_code,
           std::string* out) {
    Json req = Json::object();
    req["id"] = id;
    req["cmd"] = "run";
    req["argv"] = argv;
    if (!sega::send_all(fd_.get(), req.dump() + "\n")) return false;
    std::string line;
    for (;;) {
      if (reader_.read_line(&line) != sega::LineReader::Status::kOk) {
        return false;
      }
      const auto resp = Json::parse(line);
      if (!resp || !resp->is_object() || !resp->contains("type")) return false;
      const std::string& type = resp->at("type").as_string();
      if (type == "progress") continue;
      if (type != "result") return false;
      *exit_code = static_cast<int>(resp->at("exit").as_int());
      *out = resp->at("out").as_string();
      return true;
    }
  }

 private:
  sega::Fd fd_;
  sega::LineReader reader_;
};

std::vector<std::string> strings_of(const Json& argv) {
  std::vector<std::string> v;
  for (const Json& a : argv.elements()) v.push_back(a.as_string());
  return v;
}

/// The wall-clock DSE note is the only byte allowed to differ between a
/// daemon response and its --no-daemon reference.
std::string scrub(const std::string& s) {
  static const std::regex note("[0-9.]+s DSE");
  return std::regex_replace(s, note, "Xs DSE");
}

/// Design strings of the front table in an explore summary.
std::vector<std::string> front_designs(const std::string& summary) {
  std::vector<std::string> designs;
  std::istringstream in(summary);
  std::string line;
  bool table = false;
  while (std::getline(in, line)) {
    if (sega::starts_with(line, "-----")) {
      table = true;
      continue;
    }
    if (!table) continue;
    if (sega::trim(line).empty()) break;
    designs.push_back(sega::trim(line.substr(0, line.find('|'))));
  }
  return designs;
}

std::string flag_of(const std::vector<std::string>& argv,
                    const std::string& name, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < argv.size(); ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

struct Outcome {
  int exit_code = -1;
  std::string out;
  bool ok = false;
};

int cmd_serve(const Json& in) {
  const std::string binary = in.at("binary").as_string();
  const std::string socket = in.at("socket").as_string();
  const int rounds = static_cast<int>(in.at("rounds").as_int());
  const double seconds = in.at("seconds").as_number();
  const int connections = static_cast<int>(in.at("connections").as_int());
  const std::size_t pass = static_cast<std::size_t>(in.at("pass").as_int());
  const bool trace = in.at("trace").as_bool();
  const auto& prime = in.at("prime").elements();
  const auto& plan = in.at("plan").elements();
  std::vector<std::string> labels;
  for (const Json& r : plan) labels.push_back(r.at("label").as_string());

  // First response per distinct argv (plan index or prime), checked
  // against the --no-daemon reference after the last round.
  std::mutex mu;
  std::map<std::string, Outcome> first;  // keyed by argv dump
  std::uint64_t failed = 0, attempted = 0, mismatched_repeats = 0;
  auto note = [&](const Json& argv, bool ok, int exit_code,
                  const std::string& out) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!ok || exit_code != 0) {
      ++failed;
      std::fprintf(stderr, "perfbench_driver: request failed (%s, exit %d): %s\n",
                   ok ? "completed" : "lost", exit_code, argv.dump().c_str());
    }
    auto [it, inserted] = first.emplace(argv.dump(), Outcome{});
    if (inserted) {
      it->second = Outcome{exit_code, out, ok};
    } else if (scrub(it->second.out) != scrub(out)) {
      ++mismatched_repeats;
      std::fprintf(stderr, "perfbench_driver: repeat differs: %s\n",
                   argv.dump().c_str());
    }
  };

  // Latency percentiles and throughput are taken per round and reported as
  // the median over rounds, so one slow stretch of the host moves one round.
  std::vector<double> setup, rss, run_s, rerun_s, p50, p90, per_s;
  std::vector<double> replay_p50, execute_p50;
  Json trace_out = Json::object();
  for (int round = 0; round < rounds; ++round) {
    Daemon daemon(binary, socket);
    const auto t0 = Clock::now();
    if (!daemon.wait_ready(30.0)) die("daemon did not answer a ping");
    {
      Connection conn(socket);
      if (!conn.ok()) die("cannot connect to the daemon");
      for (std::size_t i = 0; i < prime.size(); ++i) {
        int exit_code = -1;
        std::string out;
        const bool ok = conn.run(-1, prime[i], &exit_code, &out);
        note(prime[i], ok, exit_code, out);
      }
    }
    setup.push_back(since(t0));

    if (trace) {
      const auto before = sega::daemon_status(socket);
      std::vector<double> ping;
      for (int i = 0; i < 50; ++i) {
        const auto ts = Clock::now();
        if (!sega::daemon_ping(socket)) die("ping failed");
        ping.push_back(1e3 * since(ts));
      }
      std::vector<double> replay, execute;
      double wait = 0.0;
      const auto tp = Clock::now();
      for (std::size_t i = 0; i < pass && i < plan.size(); ++i) {
        std::ostringstream out, err;
        const auto ts = Clock::now();
        const auto code = sega::run_via_daemon(
            socket, strings_of(plan[i].at("argv")), out, err);
        const double dt = since(ts);
        wait += dt;
        note(plan[i].at("argv"), code.has_value(), code.value_or(-1),
             out.str());
        (labels[i] == "repeat" ? replay : execute).push_back(1e3 * dt);
      }
      trace_out["trace.run_s"] = since(tp);
      const auto after = sega::daemon_status(socket);
      if (!before || !after) die("status failed");
      const auto delta = [&](const char* key) {
        return static_cast<double>(after->at("broker").at(key).as_int() -
                                   before->at("broker").at(key).as_int());
      };
      const auto cache_sums = [](const Json& status, const char* key) {
        double sum = 0.0;
        for (const Json& c : status.at("caches").elements()) {
          sum += static_cast<double>(c.at(key).as_int());
        }
        return sum;
      };
      const double hits =
          cache_sums(*after, "hits") - cache_sums(*before, "hits");
      const double misses =
          cache_sums(*after, "misses") - cache_sums(*before, "misses");
      trace_out["serve.ping_ms"] = median(ping);
      trace_out["serve.replay_ms"] = median(replay);
      trace_out["serve.execute_ms"] = median(execute);
      trace_out["serve.wait_s"] = wait;
      trace_out["serve.requests"] = delta("requests");
      trace_out["serve.executions"] = delta("executions");
      trace_out["serve.coalesced"] = delta("coalesced");
      trace_out["serve.response_hits"] = delta("response_hits");
      trace_out["serve.response_hit_ratio"] =
          delta("requests") > 0 ? delta("response_hits") / delta("requests")
                                : 0.0;
      trace_out["serve.cache_hit_ratio"] =
          hits + misses > 0 ? hits / (hits + misses) : 0.0;
      rss.push_back(daemon.shutdown());
      continue;
    }

    // Untraced: the first `pass` plan entries twice (run, then rerun on the
    // state the first pass left), then the closed loop over the rest of the
    // plan until this round's share of the time is spent.  Each connection
    // takes the next plan entry when its previous request has completed.
    // Per-class latencies leave out the rerun pass, where the response LRU
    // no longer holds what the plan labels as repeats.
    const double round_budget = seconds / rounds;
    const auto round_start = Clock::now();
    std::vector<double> latency_ms, replay_ms, execute_ms;
    auto drive = [&](std::size_t begin, std::size_t end, bool until_deadline,
                     bool classify) {
      std::atomic<std::size_t> next{begin};
      std::vector<std::thread> threads;
      std::vector<std::vector<double>> lat(connections), rep(connections),
          exe(connections);
      for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
          Connection conn(socket);
          if (!conn.ok()) return;
          for (;;) {
            if (until_deadline && since(round_start) >= round_budget) break;
            const std::size_t i = next++;
            if (!until_deadline && i >= end) break;
            const Json& argv = plan[i % plan.size()].at("argv");
            int exit_code = -1;
            std::string out;
            const auto ts = Clock::now();
            const bool ok = conn.run(static_cast<std::int64_t>(i), argv,
                                     &exit_code, &out);
            const double ms = 1e3 * since(ts);
            lat[c].push_back(ms);
            if (classify) {
              (labels[i % plan.size()] == "repeat" ? rep : exe)[c].push_back(ms);
            }
            note(argv, ok, exit_code, out);
            if (!ok) break;
          }
        });
      }
      for (auto& t : threads) t.join();
      for (int c = 0; c < connections; ++c) {
        latency_ms.insert(latency_ms.end(), lat[c].begin(), lat[c].end());
        replay_ms.insert(replay_ms.end(), rep[c].begin(), rep[c].end());
        execute_ms.insert(execute_ms.end(), exe[c].begin(), exe[c].end());
      }
    };
    const auto t_loop = Clock::now();
    auto ts = Clock::now();
    drive(0, pass, false, true);
    run_s.push_back(since(ts));
    ts = Clock::now();
    drive(0, pass, false, false);
    rerun_s.push_back(since(ts));
    drive(pass, 0, true, true);
    per_s.push_back(latency_ms.size() / since(t_loop));
    replay_p50.push_back(median(replay_ms));
    execute_p50.push_back(median(execute_ms));
    std::sort(latency_ms.begin(), latency_ms.end());
    const auto pct = [&](double q) {
      return latency_ms[std::min(latency_ms.size() - 1,
                                 static_cast<std::size_t>(q * latency_ms.size()))];
    };
    if (!latency_ms.empty()) {
      p50.push_back(pct(0.50));
      p90.push_back(pct(0.90));
    }
    rss.push_back(daemon.shutdown());
  }

  // References: each distinct argv once through the in-process CLI (the
  // code path of `sega_dcim <argv> --no-daemon`), and the exact front of
  // each explored cell for recall.  Recall is over the distinct requests of
  // the first `pass` plan entries, which every round completes, so it does
  // not move with how far the time-limited loop got.
  std::set<std::string> recall_keys;
  for (std::size_t i = 0; i < pass && i < plan.size(); ++i) {
    recall_keys.insert(plan[i].at("argv").dump());
  }
  const sega::Technology tech = sega::Technology::tsmc28();
  std::map<std::string, std::set<std::string>> exact;  // cell key -> designs
  std::uint64_t mismatched = 0;
  std::vector<double> recalls;
  for (const auto& [key, outcome] : first) {
    const Json argv = *Json::parse(key);
    std::ostringstream out, err;
    const int code = sega::run_cli(strings_of(argv), out, err);
    if (!outcome.ok || code != outcome.exit_code ||
        scrub(out.str()) != scrub(outcome.out)) {
      ++mismatched;
      std::fprintf(stderr,
                   "perfbench_driver: differs from --no-daemon: %s (exit %d "
                   "vs %d)\n",
                   key.c_str(), outcome.exit_code, code);
      continue;
    }
    if (!recall_keys.count(key)) continue;
    const auto args = strings_of(argv);
    const std::string wstore = flag_of(args, "--wstore", "");
    const std::string precision = flag_of(args, "--precision", "");
    const std::string sparsity = flag_of(args, "--sparsity", "0");
    const std::string cell = wstore + "/" + precision + "/" + sparsity;
    if (!exact.count(cell)) {
      sega::EvalConditions cond;
      cond.input_sparsity = std::stod(sparsity);
      std::set<std::string> designs;
      for (const auto& ed : sega::explore_exhaustive(
               sega::DesignSpace(std::stoll(wstore), precision_of(precision)),
               tech, cond)) {
        designs.insert(ed.point.to_string());
      }
      exact[cell] = designs;
    }
    std::size_t hit = 0;
    for (const auto& d : front_designs(outcome.out)) {
      hit += exact[cell].count(d);
    }
    recalls.push_back(exact[cell].empty()
                          ? 1.0
                          : static_cast<double>(hit) / exact[cell].size());
  }
  double recall_sum = 0.0;
  for (const double r : recalls) recall_sum += r;

  Json out = Json::object();
  out["attempted"] = attempted;
  out["failed"] = failed + mismatched + mismatched_repeats;
  out["setup_s"] = median(setup);
  out["peak_rss_mb"] = median(rss);
  out["front_recall"] =
      recalls.empty() ? 0.0 : recall_sum / static_cast<double>(recalls.size());
  if (trace) {
    out["trace"] = trace_out;
  } else {
    out["run_s"] = median(run_s);
    out["rerun_s"] = median(rerun_s);
    out["req_p50_ms"] = median(p50);
    out["req_p90_ms"] = median(p90);
    out["req_per_s"] = median(per_s);
    out["replay_ms"] = median(replay_p50);
    out["execute_ms"] = median(execute_p50);
  }
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "recall") return cmd_recall(read_json(args[1]));
  if (args.size() == 2 && args[0] == "knees") return cmd_knees(read_json(args[1]));
  if (args.size() == 3 && args[0] == "trace") {
    return cmd_trace(args[1], read_json(args[2]));
  }
  if (args.size() == 2 && args[0] == "serve") return cmd_serve(read_json(args[1]));
  std::fprintf(stderr,
               "usage: perfbench_driver recall|knees|serve <in.json>\n"
               "       perfbench_driver trace <workload> <in.json>\n");
  return 2;
}
