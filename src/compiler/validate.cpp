#include "compiler/validate.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "cost/cost_cache.h"
#include "cost/rtl_cost_model.h"
#include "util/assert.h"
#include "util/strings.h"
#include "util/table.h"

namespace sega {

ValidateSpec::ValidateSpec() {
  // Small by default: every knee is elaborated and gate-simulated.  The
  // INT8 / FP16 / FP32 corners cover both architecture templates and the
  // precision extremes the paper validates against.
  sweep.wstores = {4096};
  sweep.precisions = {precision_int8(), precision_fp16(), precision_fp32()};
}

std::optional<ValidateSpec> ValidateSpec::from_json(const Json& json,
                                                    std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<ValidateSpec> {
    if (error) *error = msg;
    return std::nullopt;
  };
  if (!json.is_object()) return fail("validate spec must be a JSON object");

  ValidateSpec spec;
  Json sweep_json = Json::object();
  bool saw_wstores = false;
  bool saw_precisions = false;
  for (const auto& [key, value] : json.items()) {
    if (key == "tolerance") {
      if (!value.is_number() || !(value.as_number() > 0)) {
        return fail("tolerance must be a positive number");
      }
      spec.tolerance = value.as_number();
    } else if (key == "rtl_cache_file") {
      if (!value.is_string()) {
        return fail("rtl_cache_file must be a string path");
      }
      spec.rtl_cache_file = value.as_string();
    } else if (key == "cost_model") {
      return fail("validate always compares analytic vs rtl; "
                  "'cost_model' is not a validate key");
    } else {
      if (key == "wstores") saw_wstores = true;
      if (key == "precisions") saw_precisions = true;
      sweep_json[key] = value;
    }
  }
  const auto sweep = SweepSpec::from_json(sweep_json, error);
  if (!sweep) return std::nullopt;
  const ValidateSpec defaults;
  spec.sweep = *sweep;
  // SweepSpec's omitted-key defaults are the full §IV grid; validate's are
  // the small knee grid above.
  if (!saw_wstores) spec.sweep.wstores = defaults.sweep.wstores;
  if (!saw_precisions) spec.sweep.precisions = defaults.sweep.precisions;
  return spec;
}

Json ValidateSpec::to_json() const {
  // Rebuild without the sweep's "cost_model" key: validate has no backend
  // choice (it always compares the two), and from_json rejects the key —
  // the round trip must stay closed.
  Json j = Json::object();
  const Json sweep_json = sweep.to_json();  // named: items() refers into it
  for (const auto& [key, value] : sweep_json.items()) {
    if (key == "cost_model") continue;
    j[key] = value;
  }
  j["tolerance"] = tolerance;
  if (!rtl_cache_file.empty()) j["rtl_cache_file"] = rtl_cache_file;
  return j;
}

namespace {

double rel_err(double measured, double reference) {
  SEGA_EXPECTS(reference != 0.0);
  return std::fabs(measured - reference) / std::fabs(reference);
}

ValidateReport validate_fail(const std::string& msg, std::string* error) {
  if (error) {
    *error = msg;
    return {};
  }
  std::fprintf(stderr, "[sega] %s\n", msg.c_str());
  std::abort();
}

/// One knee comparison row — the single place the divergence formulas and
/// the gates live, shared by the uncalibrated, calibrated, and
/// post-calibration paths so they can never drift.  @p calibrated switches
/// the gate semantics: the uncalibrated model is a documented one-sided
/// envelope (measured delay/energy under the bound, throughput over it —
/// see validate.h), but a calibrated model is a best fit *centered* on the
/// measurements, so roughly half the corpus sits above any given prediction
/// by construction and the envelope gates would fail it spuriously; a
/// calibrated row instead gates every metric on the symmetric relative
/// error, the quantity calibration provably tightens.
ValidateRow build_row(std::int64_t wstore, const Precision& precision,
                      const DesignPoint& knee, const MacroMetrics& analytic,
                      const MacroMetrics& rtl, const EvalConditions& cond,
                      double tolerance, bool calibrated) {
  ValidateRow row;
  row.wstore = wstore;
  row.precision = precision;
  row.knee = knee;
  row.analytic = analytic;
  row.rtl = rtl;
  row.area_rel_err = rel_err(row.rtl.area_mm2, row.analytic.area_mm2);
  row.delay_rel_err = rel_err(row.rtl.delay_ns, row.analytic.delay_ns);
  row.throughput_rel_err =
      rel_err(row.rtl.throughput_tops, row.analytic.throughput_tops);
  row.energy_rel_err =
      rel_err(row.rtl.energy_per_mvm_nj, row.analytic.energy_per_mvm_nj);
  row.delay_ratio = row.rtl.delay_ns / row.analytic.delay_ns;
  // The energy gate compares against the model's *physical envelope* —
  // one switching event per cell per cycle — not the as-configured
  // analytic value: Technology::energy_fj derates the analytic side by
  // activity * (1 - sparsity), while the measured side embodies sparsity
  // in the workload toggles (which do not drop linearly with
  // bit-sparsity).  Dividing the derating back out restores the
  // documented invariant "measured <= activity=1 bound" under any
  // conditions; energy_rel_err still reports the as-configured gap.
  const double energy_derate = cond.activity * (1.0 - cond.input_sparsity);
  row.energy_ratio = row.rtl.energy_per_mvm_nj * energy_derate /
                     row.analytic.energy_per_mvm_nj;
  row.throughput_ratio =
      row.rtl.throughput_tops / row.analytic.throughput_tops;
  if (calibrated) {
    row.pass = row.area_rel_err <= tolerance &&
               row.delay_rel_err <= tolerance &&
               row.energy_rel_err <= tolerance &&
               row.throughput_rel_err <= tolerance &&
               row.delay_ratio > 0.0 && row.energy_ratio > 0.0;
  } else {
    // Area agrees symmetrically; delay/energy are envelope upper bounds and
    // throughput an envelope lower bound (see validate.h).
    row.pass = row.area_rel_err <= tolerance &&
               row.delay_ratio > 0.0 &&
               row.delay_ratio <= 1.0 + tolerance &&
               row.energy_ratio > 0.0 &&
               row.energy_ratio <= 1.0 + tolerance &&
               row.throughput_ratio >= 1.0 / (1.0 + tolerance);
  }
  return row;
}

}  // namespace

bool ValidateReport::pass() const { return failures() == 0; }

std::size_t ValidateReport::failures() const {
  std::size_t n = 0;
  for (const auto& row : rows) {
    if (!row.pass) ++n;
  }
  return n;
}

ValidateReport run_validate(const Compiler& compiler, const ValidateSpec& spec,
                            std::string* error) {
  if (error) error->clear();

  // --- 1. analytic knee points via the sweep engine -----------------------
  // The full parallel/cached/checkpointed machinery applies unchanged; the
  // backend is forced analytic (the comparison baseline) and the knee DSE
  // always runs uncalibrated (see ValidateSpec::sweep), so the knee set,
  // the RTL work and the inner checkpoint/memo are identical with and
  // without an artifact.
  EvalConfig analytic_eval = spec.sweep.eval;
  analytic_eval.backend = CostModelKind::kAnalytic;
  SweepSpec grid = spec.sweep;
  grid.eval = analytic_eval;
  grid.eval.calibration_file.clear();
  std::string sweep_error;
  const SweepResult cells = run_sweep(compiler, grid, &sweep_error);
  if (!sweep_error.empty()) return validate_fail(sweep_error, error);

  // --- 2. the same knees through the measured model -----------------------
  // One batch through an RTL cache: the pool fans the elaborations out, the
  // persistent memo makes warm reruns elaborate nothing.  A host-provided
  // shared cache (ValidateSpec::shared_rtl_cache — the serve daemon's)
  // replaces the run-local model + cache; its owner persists, so the
  // rtl_cache_file load/save applies only to the local stack.
  std::unique_ptr<const RtlCostModel> owned_model;
  std::unique_ptr<CostCache> owned_cache;
  CostCache* rtl_cache = spec.shared_rtl_cache;
  if (rtl_cache == nullptr) {
    RtlCostModelOptions rtl_options;
    rtl_options.threads = grid.dse.threads;
    // With --layout both columns fold the identical analytic wire-energy
    // term over the same elaborated netlist, so the envelope directions the
    // gate below asserts are preserved.
    rtl_options.layout = grid.eval.layout;
    owned_model = std::make_unique<const RtlCostModel>(
        compiler.technology(), grid.eval.conditions, rtl_options);
    owned_cache = std::make_unique<CostCache>(*owned_model);
    rtl_cache = owned_cache.get();
    if (!spec.rtl_cache_file.empty()) {
      std::error_code ec;
      std::string cache_error;
      if (std::filesystem::exists(spec.rtl_cache_file, ec) &&
          !rtl_cache->load(spec.rtl_cache_file, &cache_error)) {
        return validate_fail(cache_error, error);
      }
    }
  }
  const std::uint64_t rtl_hits_before = rtl_cache->hits();
  const std::uint64_t rtl_misses_before = rtl_cache->misses();
  std::vector<DesignPoint> knees;
  knees.reserve(cells.cells.size());
  for (const auto& cell : cells.cells) knees.push_back(cell.knee.point);
  std::vector<MacroMetrics> measured(knees.size());
  rtl_cache->evaluate_batch(Span<const DesignPoint>(knees),
                            Span<MacroMetrics>(measured));
  if (owned_cache && !spec.rtl_cache_file.empty()) {
    std::string cache_error;
    if (!rtl_cache->save(spec.rtl_cache_file, &cache_error)) {
      std::fprintf(stderr, "[sega] warning: %s (validate results "
                   "unaffected)\n",
                   cache_error.c_str());
    }
  }

  // --- 3. divergence rows --------------------------------------------------
  ValidateReport report;
  report.tolerance = spec.tolerance;
  // With a shared cache the local model's elaboration counter does not
  // exist; every cache miss is exactly one model evaluation, so the miss
  // delta is the same quantity.
  report.rtl_elaborations = owned_model
                                ? owned_model->elaborations()
                                : rtl_cache->misses() - rtl_misses_before;
  report.rtl_cache_hits = rtl_cache->hits() - rtl_hits_before;
  report.rtl_cache_misses = rtl_cache->misses() - rtl_misses_before;
  // The analytic column: the knee metrics as the DSE computed them, or —
  // under --calibration — the same knees re-evaluated through the calibrated
  // model.  The knee *selection* above is always uncalibrated (see
  // validate.h), so the RTL work and the inner sweep's artifacts are
  // identical either way.
  std::vector<MacroMetrics> analytic(knees.size());
  for (std::size_t i = 0; i < cells.cells.size(); ++i) {
    analytic[i] = cells.cells[i].knee.metrics;
  }
  if (!analytic_eval.calibration_file.empty()) {
    std::string cal_error;
    const auto calibrated =
        analytic_eval.make_model(compiler.technology(), &cal_error);
    if (!calibrated) return validate_fail(cal_error, error);
    calibrated->evaluate_batch(Span<const DesignPoint>(knees),
                               Span<MacroMetrics>(analytic));
    report.calibration = calibrated->calibration()->digest();
  }
  for (std::size_t i = 0; i < cells.cells.size(); ++i) {
    const SweepCell& cell = cells.cells[i];
    report.rows.push_back(build_row(cell.wstore, cell.precision,
                                    cell.knee.point, analytic[i], measured[i],
                                    grid.eval.conditions, spec.tolerance,
                                    !report.calibration.empty()));
  }
  return report;
}

namespace {

Json metrics_to_json(const MacroMetrics& m) {
  Json j = Json::object();
  j["area_mm2"] = m.area_mm2;
  j["delay_ns"] = m.delay_ns;
  j["energy_per_mvm_nj"] = m.energy_per_mvm_nj;
  j["throughput_tops"] = m.throughput_tops;
  return j;
}

/// Index of the row maximizing a divergence, -1 when empty.
template <typename Fn>
int worst_row(const std::vector<ValidateRow>& rows, Fn&& value) {
  int worst = -1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (worst < 0 ||
        value(rows[i]) > value(rows[static_cast<std::size_t>(worst)])) {
      worst = static_cast<int>(i);
    }
  }
  return worst;
}

std::string row_label(const ValidateRow& row) {
  return strfmt("%s @ Wstore=%lld", row.precision.name.c_str(),
                static_cast<long long>(row.wstore));
}

}  // namespace

Json ValidateReport::to_json() const {
  Json j = Json::object();
  j["tolerance"] = tolerance;
  // Only when calibrated: the uncalibrated report stays byte-identical to
  // pre-calibration builds.
  if (!calibration.empty()) j["calibration"] = calibration;
  j["pass"] = pass();
  j["failures"] = static_cast<std::int64_t>(failures());
  Json rws = Json::array();
  for (const auto& row : rows) {
    Json r = Json::object();
    r["wstore"] = row.wstore;
    r["precision"] = row.precision.name;
    r["knee_design"] = row.knee.to_string();
    r["analytic"] = metrics_to_json(row.analytic);
    r["rtl"] = metrics_to_json(row.rtl);
    r["area_rel_err"] = row.area_rel_err;
    r["delay_rel_err"] = row.delay_rel_err;
    r["throughput_rel_err"] = row.throughput_rel_err;
    r["energy_rel_err"] = row.energy_rel_err;
    r["delay_ratio"] = row.delay_ratio;
    r["energy_ratio"] = row.energy_ratio;
    r["throughput_ratio"] = row.throughput_ratio;
    r["pass"] = row.pass;
    rws.push_back(std::move(r));
  }
  j["rows"] = std::move(rws);
  if (!rows.empty()) {
    Json worst = Json::object();
    const auto record = [&](const char* key, int idx, double value) {
      Json w = Json::object();
      w["cell"] = row_label(rows[static_cast<std::size_t>(idx)]);
      w["value"] = value;
      worst[key] = std::move(w);
    };
    int idx = worst_row(rows, [](const ValidateRow& r) {
      return r.area_rel_err;
    });
    record("area_rel_err", idx,
           rows[static_cast<std::size_t>(idx)].area_rel_err);
    idx = worst_row(rows, [](const ValidateRow& r) { return r.delay_ratio; });
    record("delay_ratio", idx,
           rows[static_cast<std::size_t>(idx)].delay_ratio);
    idx = worst_row(rows, [](const ValidateRow& r) {
      return r.energy_ratio;
    });
    record("energy_ratio", idx,
           rows[static_cast<std::size_t>(idx)].energy_ratio);
    idx = worst_row(rows, [](const ValidateRow& r) {
      return -r.throughput_ratio;  // the *lowest* throughput is the worst
    });
    record("throughput_ratio", idx,
           rows[static_cast<std::size_t>(idx)].throughput_ratio);
    j["worst"] = std::move(worst);
  }
  return j;
}

std::string ValidateReport::to_csv() const {
  std::string out =
      "wstore,precision,n,h,l,k,analytic_area_mm2,rtl_area_mm2,area_rel_err,"
      "analytic_delay_ns,rtl_delay_ns,delay_ratio,analytic_energy_nj,"
      "rtl_energy_nj,energy_ratio,analytic_tops,rtl_tops,throughput_ratio,"
      "pass\n";
  for (const auto& row : rows) {
    out += strfmt(
        "%lld,%s,%lld,%lld,%lld,%lld,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,"
        "%.6g,%.6g,%.6g,%.6g,%.6g,%d\n",
        static_cast<long long>(row.wstore), row.precision.name.c_str(),
        static_cast<long long>(row.knee.n), static_cast<long long>(row.knee.h),
        static_cast<long long>(row.knee.l), static_cast<long long>(row.knee.k),
        row.analytic.area_mm2, row.rtl.area_mm2, row.area_rel_err,
        row.analytic.delay_ns, row.rtl.delay_ns, row.delay_ratio,
        row.analytic.energy_per_mvm_nj, row.rtl.energy_per_mvm_nj,
        row.energy_ratio, row.analytic.throughput_tops, row.rtl.throughput_tops,
        row.throughput_ratio, row.pass ? 1 : 0);
  }
  return out;
}

std::string ValidateReport::render() const {
  std::string out = strfmt(
      "analytic-vs-RTL knee validation: %zu knee point(s), tolerance %.3g\n",
      rows.size(), tolerance);
  if (!calibration.empty()) {
    out += strfmt("analytic column calibrated (artifact digest %s)\n",
                  calibration.c_str());
  }
  out += "\n";
  TextTable table({"cell", "knee design", "area err", "delay ratio",
                   "E ratio", "tput ratio", "verdict"});
  for (const auto& row : rows) {
    table.add_row({row_label(row), row.knee.to_string(),
                   strfmt("%.2f%%", row.area_rel_err * 100.0),
                   strfmt("%.3f", row.delay_ratio),
                   strfmt("%.3f", row.energy_ratio),
                   strfmt("%.3f", row.throughput_ratio),
                   row.pass ? "ok" : "FAIL"});
  }
  out += table.render();
  out += strfmt("\n%zu/%zu knee point(s) within tolerance",
                rows.size() - failures(), rows.size());
  if (!calibration.empty()) {
    // A calibrated model is a best fit, not a one-sided envelope: every
    // metric gates on the symmetric relative error (see build_row).
    out += strfmt(" (gates: every metric's rel err <= %.3g against the "
                  "calibrated model)\n",
                  tolerance);
  } else {
    out += strfmt(
        " (gates: area err <= %.3g; measured delay/energy <= %.3gx the "
        "model's envelope; measured throughput >= 1/%.3g of the model's)\n",
        tolerance, 1.0 + tolerance, 1.0 + tolerance);
  }
  return out;
}

namespace {

/// The fixed metric order every CalibrationReport emitter uses.
constexpr const char* kFitMetrics[] = {"area", "delay", "energy",
                                       "throughput"};

std::optional<CalibrationReport> calibrate_fail(const std::string& msg,
                                                std::string* error) {
  if (error) {
    *error = msg;
    return std::nullopt;
  }
  std::fprintf(stderr, "[sega] %s\n", msg.c_str());
  std::abort();
}

}  // namespace

std::optional<CalibrationReport> run_validate_calibrate(
    const Compiler& compiler, const ValidateSpec& spec,
    const std::string& artifact_out, std::string* error) {
  if (error) error->clear();
  if (!spec.sweep.eval.calibration_file.empty()) {
    return calibrate_fail(
        "validate --calibrate fits a fresh artifact; it cannot run under a "
        "preloaded one (--calibration / calibration_file)",
        error);
  }
  if (artifact_out.empty()) {
    return calibrate_fail("--calibrate requires a non-empty artifact path",
                          error);
  }

  CalibrationReport report;

  // --- 1. the uncalibrated comparison (and the measured corpus) ------------
  std::string validate_error;
  report.before = run_validate(compiler, spec, &validate_error);
  if (!validate_error.empty()) return calibrate_fail(validate_error, error);
  if (report.before.rows.empty()) {
    return calibrate_fail(
        "calibration corpus is empty: the validate grid produced no knee "
        "points",
        error);
  }

  // --- 2. fit over the measured knees --------------------------------------
  std::vector<CalibrationSample> corpus;
  corpus.reserve(report.before.rows.size());
  for (const auto& row : report.before.rows) {
    corpus.push_back(CalibrationSample{row.knee, row.rtl});
  }
  std::string fit_error;
  auto fitted = fit_calibration(compiler.technology(),
                                spec.sweep.eval.conditions,
                                std::move(corpus), &fit_error, &report.fits);
  if (!fitted) return calibrate_fail(fit_error, error);
  const auto cal = std::make_shared<const Calibration>(std::move(*fitted));

  std::string save_error;
  if (!save_calibration(*cal, artifact_out, &save_error)) {
    return calibrate_fail(save_error, error);
  }
  report.artifact_path = artifact_out;
  report.digest = cal->digest();
  report.corpus_size = cal->corpus_size;

  // --- 3. the same knees through the freshly calibrated model --------------
  // No new DSE and no new RTL work: the knee set and its measurements are
  // already in the before-report; only the analytic column changes.
  std::vector<DesignPoint> knees;
  knees.reserve(report.before.rows.size());
  for (const auto& row : report.before.rows) knees.push_back(row.knee);
  std::vector<MacroMetrics> analytic(knees.size());
  const AnalyticCostModel calibrated(compiler.technology(),
                                     spec.sweep.eval.conditions, cal,
                                     spec.sweep.eval.layout);
  calibrated.evaluate_batch(Span<const DesignPoint>(knees),
                            Span<MacroMetrics>(analytic));
  report.after.tolerance = spec.tolerance;
  report.after.calibration = report.digest;
  // The RTL work accounting covers the whole --calibrate run; the
  // re-comparison added none of it.
  report.after.rtl_elaborations = report.before.rtl_elaborations;
  report.after.rtl_cache_hits = report.before.rtl_cache_hits;
  report.after.rtl_cache_misses = report.before.rtl_cache_misses;
  for (std::size_t i = 0; i < report.before.rows.size(); ++i) {
    const ValidateRow& b = report.before.rows[i];
    report.after.rows.push_back(build_row(b.wstore, b.precision, b.knee,
                                          analytic[i], b.rtl,
                                          spec.sweep.eval.conditions,
                                          spec.tolerance,
                                          /*calibrated=*/true));
  }
  return report;
}

Json CalibrationReport::to_json() const {
  Json j = Json::object();
  j["artifact"] = artifact_path;
  j["digest"] = digest;
  j["corpus_size"] = corpus_size;
  Json envelopes = Json::object();
  for (const char* metric : kFitMetrics) {
    const auto it = fits.find(metric);
    if (it == fits.end()) continue;
    Json e = Json::object();
    e["envelope_before"] = it->second.envelope_before;
    e["envelope_after"] = it->second.envelope_after;
    e["scale"] = it->second.scale;
    e["module_factors_kept"] = it->second.module_factors_kept;
    envelopes[metric] = std::move(e);
  }
  j["envelopes"] = std::move(envelopes);
  j["pass"] = pass();
  j["before"] = before.to_json();
  j["after"] = after.to_json();
  return j;
}

std::string CalibrationReport::to_csv() const {
  std::string out =
      "metric,envelope_before,envelope_after,scale,module_factors_kept\n";
  for (const char* metric : kFitMetrics) {
    const auto it = fits.find(metric);
    if (it == fits.end()) continue;
    out += strfmt("%s,%.6g,%.6g,%.6g,%d\n", metric,
                  it->second.envelope_before, it->second.envelope_after,
                  it->second.scale, it->second.module_factors_kept ? 1 : 0);
  }
  return out;
}

std::string CalibrationReport::render() const {
  std::string out = strfmt(
      "calibration fit: %lld knee point(s) -> %s (digest %s)\n\n",
      static_cast<long long>(corpus_size), artifact_path.c_str(),
      digest.c_str());
  TextTable table({"metric", "envelope before", "envelope after", "scale",
                   "module factors"});
  for (const char* metric : kFitMetrics) {
    const auto it = fits.find(metric);
    if (it == fits.end()) continue;
    table.add_row({metric,
                   strfmt("%.2f%%", it->second.envelope_before * 100.0),
                   strfmt("%.2f%%", it->second.envelope_after * 100.0),
                   strfmt("%.6g", it->second.scale),
                   it->second.module_factors_kept ? "kept" : "reset"});
  }
  out += table.render();
  out += "\n";
  out += after.render();
  return out;
}

}  // namespace sega
