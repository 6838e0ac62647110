#include "cost/calibrate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "tech/techlib_parser.h"
#include "util/assert.h"
#include "util/strings.h"

namespace sega {

namespace {

/// Canonical corpus order (sort-before-solve): the cost-affecting design
/// point fields, in CostCache-key order.
auto point_order_key(const DesignPoint& dp) {
  return std::make_tuple(static_cast<int>(dp.arch),
                         static_cast<int>(dp.precision.kind),
                         dp.precision.int_bits, dp.precision.exp_bits,
                         dp.precision.mant_bits, dp.n, dp.h, dp.l, dp.k,
                         dp.signed_weights, dp.pipelined_tree);
}

bool finite(double v) { return std::isfinite(v); }

}  // namespace

// ----------------------------------------------------------- least squares

std::vector<double> least_squares_fit(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& y) {
  const auto fail = [](const std::string& msg) -> std::vector<double> {
    throw std::runtime_error("least_squares_fit: " + msg);
  };
  const std::size_t m = rows.size();
  if (m == 0) return fail("empty system (no observations)");
  const std::size_t n = rows[0].size();
  if (n == 0) return fail("empty system (no coefficients)");
  if (y.size() != m) {
    return fail(strfmt("observation/target count mismatch (%zu rows, %zu "
                       "targets)",
                       m, y.size()));
  }
  for (const auto& row : rows) {
    if (row.size() != n) return fail("ragged system (unequal row widths)");
    for (const double v : row) {
      if (!finite(v)) return fail("non-finite coefficient");
    }
  }
  for (const double v : y) {
    if (!finite(v)) return fail("non-finite target");
  }
  if (m < n) {
    return fail(strfmt("rank-deficient system: %zu observation(s) for %zu "
                       "coefficient(s)",
                       m, n));
  }

  // Column scaling: divide each column by its max |entry| so the normal
  // matrix is O(1)-conditioned in scale and the pivot tolerance is
  // meaningful across wildly different units.
  std::vector<double> scale(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      scale[j] = std::max(scale[j], std::fabs(rows[i][j]));
    }
    if (scale[j] == 0.0) {
      return fail(strfmt("rank-deficient system: column %zu is identically "
                         "zero",
                         j));
    }
  }

  // Normal equations on the scaled columns: N x' = r with
  // N = B^T B, r = B^T y, B_ij = A_ij / scale[j]; fixed accumulation order.
  std::vector<std::vector<double>> normal(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < n; ++l) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        acc += (rows[i][j] / scale[j]) * (rows[i][l] / scale[l]);
      }
      normal[j][l] = acc;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      acc += (rows[i][j] / scale[j]) * y[i];
    }
    normal[j][n] = acc;
  }

  // Pivot tolerance relative to the largest normal-matrix entry: a genuinely
  // collinear system leaves pivots at rounding-noise level, many orders
  // below this.
  double largest = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < n; ++l) {
      largest = std::max(largest, std::fabs(normal[j][l]));
    }
  }
  const double tolerance = 1e-9 * std::max(1.0, largest);

  // Gaussian elimination with partial pivoting.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::fabs(normal[r][k]) > std::fabs(normal[pivot][k])) pivot = r;
    }
    if (std::fabs(normal[pivot][k]) <= tolerance) {
      return fail(strfmt("rank-deficient system: pivot %g below tolerance "
                         "at column %zu (collinear coefficients)",
                         std::fabs(normal[pivot][k]), k));
    }
    if (pivot != k) std::swap(normal[pivot], normal[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = normal[r][k] / normal[k][k];
      for (std::size_t c = k; c <= n; ++c) {
        normal[r][c] -= factor * normal[k][c];
      }
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    double acc = normal[k][n];
    for (std::size_t c = k + 1; c < n; ++c) acc -= normal[k][c] * x[c];
    x[k] = acc / normal[k][k];
  }
  for (std::size_t j = 0; j < n; ++j) {
    x[j] /= scale[j];
    if (!finite(x[j])) return fail("solution is not finite");
  }
  return x;
}

// ------------------------------------------------- calibrated derivation

MacroMetrics derive_metrics_calibrated(const EvalContext& ctx,
                                       const MacroCensus& census,
                                       const CostedMacro& costed,
                                       const Calibration& cal) {
  MacroMetrics m;
  m.gates = costed.gates;

  // Module factors fold in per census part, in the exact accumulation order
  // of cost_components — with the identity Calibration every multiply is
  // by 1.0, so the result is bit-identical to the uncalibrated path.
  double area_g = 0.0;
  double energy_g = 0.0;
  for (int i = 0; i < census.part_count; ++i) {
    const ComponentUse& use = census.parts[static_cast<std::size_t>(i)];
    const auto slot = static_cast<std::size_t>(use.component);
    const double area = use.unit.area * static_cast<double>(use.copies);
    const double energy = use.unit.energy * static_cast<double>(use.copies) *
                          use.energy_mul / use.energy_div;
    area_g += cal.area_factor[slot] * area;
    energy_g += cal.energy_factor[slot] * energy;
  }
  const double delay_g = std::max(
      {census.array_path_delay, census.accu_delay, census.fusion_delay});
  m.area_gates = cal.area_scale * area_g;
  m.energy_gates = cal.energy_scale * energy_g;
  m.delay_gates = cal.delay_scale * delay_g;
  for (int i = 0; i < kMacroComponentCount; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    if (!costed.present[slot]) continue;
    const char* key = macro_component_name(static_cast<MacroComponent>(i));
    m.area_breakdown[key] =
        cal.area_scale * (cal.area_factor[slot] * costed.area_by[slot]);
    m.energy_breakdown[key] =
        cal.energy_scale * (cal.energy_factor[slot] * costed.energy_by[slot]);
  }
  m.cycles_per_input = census.cycles;

  // Per-metric scales apply as one trailing multiply per headline metric
  // (metric == scale * unscaled_metric bit-exactly — the fitter's envelope
  // guard relies on this).
  m.area_um2 = cal.area_scale * ctx.area_um2(area_g);
  m.area_mm2 = cal.area_scale * (ctx.area_um2(area_g) * 1e-6);
  const double delay_raw = ctx.delay_ns(delay_g);
  m.delay_ns = cal.delay_scale * delay_raw;
  SEGA_ASSERT(m.delay_ns > 0.0);
  m.freq_ghz = 1.0 / m.delay_ns;
  const double cycle_raw = ctx.energy_fj(energy_g);
  m.energy_per_cycle_fj = cal.energy_scale * cycle_raw;
  m.energy_per_mvm_nj =
      cal.energy_scale *
      (cycle_raw * static_cast<double>(m.cycles_per_input) * 1e-6);
  m.power_w = m.energy_per_cycle_fj * 1e-15 / (m.delay_ns * 1e-9);
  const double macs_per_cycle =
      static_cast<double>(census.n) * static_cast<double>(census.h) /
      (static_cast<double>(census.bw) *
       static_cast<double>(m.cycles_per_input));
  const double ops_per_s = 2.0 * macs_per_cycle / (m.delay_ns * 1e-9);
  m.throughput_tops = cal.throughput_scale * (ops_per_s * 1e-12);
  m.tops_per_w = m.throughput_tops / m.power_w;
  m.tops_per_mm2 = m.throughput_tops / m.area_mm2;
  return m;
}

// ------------------------------------------------------------------ fitting

namespace {

/// Evaluate every corpus point through the calibrated derivation, in corpus
/// order — exactly what a calibrated AnalyticCostModel will later produce.
std::vector<MacroMetrics> evaluate_corpus(
    const EvalContext& ctx, const Technology& tech,
    const std::vector<CalibrationSample>& corpus, const Calibration& cal) {
  std::vector<MacroMetrics> out;
  out.reserve(corpus.size());
  for (const auto& sample : corpus) {
    const MacroCensus census = census_macro(tech, sample.point);
    out.push_back(
        derive_metrics_calibrated(ctx, census, cost_components(census), cal));
  }
  return out;
}

/// max_i |measured_i - predicted_i| / |predicted_i| — the validate rel-err
/// envelope of a corpus against one predicted-metric column.
double envelope(const std::vector<double>& predicted,
                const std::vector<double>& measured) {
  double env = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    env = std::max(env, std::fabs(measured[i] - predicted[i]) /
                            std::fabs(predicted[i]));
  }
  return env;
}

/// Minimax-center scale of measured/predicted: s = (rho_min + rho_max) / 2.
/// For positive ratios the rescaled envelope (b-a)/(a+b) provably never
/// exceeds the unscaled one max(b-1, 1-a).
double minimax_scale(const std::vector<double>& predicted,
                     const std::vector<double>& measured) {
  double lo = measured[0] / predicted[0];
  double hi = lo;
  for (std::size_t i = 1; i < predicted.size(); ++i) {
    const double rho = measured[i] / predicted[i];
    lo = std::min(lo, rho);
    hi = std::max(hi, rho);
  }
  return (lo + hi) / 2.0;
}

std::vector<double> scaled(const std::vector<double>& values, double s) {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = s * values[i];
  return out;
}

std::vector<double> metric_column(const std::vector<MacroMetrics>& metrics,
                                  double MacroMetrics::*field) {
  std::vector<double> out(metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) out[i] = metrics[i].*field;
  return out;
}

}  // namespace

std::optional<Calibration> fit_calibration(
    const Technology& tech, const EvalConditions& cond,
    std::vector<CalibrationSample> corpus, std::string* error,
    std::map<std::string, CalibrationMetricFit>* fit_report) {
  const auto fail = [&](const std::string& msg) -> std::optional<Calibration> {
    if (error) *error = "fit_calibration: " + msg;
    return std::nullopt;
  };
  if (corpus.empty()) return fail("calibration corpus is empty");

  // Sort-before-solve: the fit is a pure function of the corpus *set*,
  // independent of arrival order (and of the thread count that produced it).
  std::sort(corpus.begin(), corpus.end(),
            [](const CalibrationSample& a, const CalibrationSample& b) {
              return point_order_key(a.point) < point_order_key(b.point);
            });
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < corpus.size(); ++i) {
    if (!(corpus[i].point == corpus[i - 1].point)) ++distinct;
  }
  if (distinct < 2) {
    return fail(strfmt("rank-deficient corpus: %zu distinct design point(s), "
                       "need at least 2",
                       distinct));
  }
  for (const auto& sample : corpus) {
    const MacroMetrics& mm = sample.measured;
    for (const double v : {mm.area_mm2, mm.delay_ns, mm.energy_per_mvm_nj,
                           mm.throughput_tops}) {
      if (!finite(v) || v <= 0.0) {
        return fail(strfmt("non-finite or non-positive measured metrics for "
                           "%s",
                           sample.point.to_string().c_str()));
      }
    }
    for (const auto* breakdown :
         {&mm.area_breakdown, &mm.energy_breakdown}) {
      for (const auto& [key, value] : *breakdown) {
        if (!finite(value)) {
          return fail(strfmt("non-finite measured breakdown '%s' for %s",
                             key.c_str(), sample.point.to_string().c_str()));
        }
      }
    }
  }

  const EvalContext ctx(tech, cond);
  Calibration cal;
  cal.model = "analytic";
  cal.model_version = kCostModelVersion;
  cal.techlib = write_techlib(tech);
  cal.conditions = cond;
  cal.corpus_size = static_cast<std::int64_t>(corpus.size());

  // The uncalibrated reference column per point — the exact metrics the
  // uncalibrated model serves, so the before-envelopes match validate's.
  const std::vector<MacroMetrics> uncal =
      evaluate_corpus(ctx, tech, corpus, Calibration());

  // --- 1. per-module factors: independent one-column least squares of the
  // measured breakdown against the analytic one.  Diagonal by construction,
  // so the default 3-knee corpus stays full rank; a module with no usable
  // signal keeps factor 1.0.
  for (int comp = 0; comp < kMacroComponentCount; ++comp) {
    const char* key = macro_component_name(static_cast<MacroComponent>(comp));
    for (const bool is_area : {true, false}) {
      std::vector<std::vector<double>> rows;
      std::vector<double> targets;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto& analytic_bd = is_area ? uncal[i].area_breakdown
                                          : uncal[i].energy_breakdown;
        const auto& measured_bd = is_area ? corpus[i].measured.area_breakdown
                                          : corpus[i].measured.energy_breakdown;
        const auto analytic_it = analytic_bd.find(key);
        const auto measured_it = measured_bd.find(key);
        if (analytic_it == analytic_bd.end() ||
            measured_it == measured_bd.end() || analytic_it->second == 0.0) {
          continue;
        }
        rows.push_back({analytic_it->second});
        targets.push_back(measured_it->second);
      }
      if (rows.empty()) continue;
      double factor = 1.0;
      try {
        factor = least_squares_fit(rows, targets)[0];
      } catch (const std::runtime_error& e) {
        return fail(strfmt("module '%s' %s fit failed: %s", key,
                           is_area ? "area" : "energy", e.what()));
      }
      // A non-positive factor would zero or negate a component; no
      // measured breakdown justifies that — keep the identity and let the
      // metric scale absorb the offset.
      if (!finite(factor) || factor <= 0.0) factor = 1.0;
      const auto slot = static_cast<std::size_t>(comp);
      (is_area ? cal.area_factor[slot] : cal.energy_factor[slot]) = factor;
    }
  }

  // --- 2. per-metric minimax scales, each followed by the envelope guard:
  // re-evaluate through the exact calibrated path and, if the envelope
  // widened versus uncalibrated, fall back (module factors to identity,
  // rescale; ultimately scale 1.0, which matches uncalibrated bit-exactly).
  std::map<std::string, CalibrationMetricFit> report;

  const auto fit_scaled_metric = [&](const char* name,
                                     double MacroMetrics::*field,
                                     double* scale_slot,
                                     std::array<double, kMacroComponentCount>*
                                         factors) {
    const std::vector<double> measured = [&] {
      std::vector<double> out(corpus.size());
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        out[i] = corpus[i].measured.*field;
      }
      return out;
    }();
    CalibrationMetricFit fit;
    fit.envelope_before = envelope(metric_column(uncal, field), measured);

    std::vector<double> predicted =
        metric_column(evaluate_corpus(ctx, tech, corpus, cal), field);
    *scale_slot = minimax_scale(predicted, measured);
    fit.envelope_after = envelope(scaled(predicted, *scale_slot), measured);
    if (fit.envelope_after > fit.envelope_before && factors != nullptr) {
      // The module factors hurt this metric; retry on the identity column.
      factors->fill(1.0);
      fit.module_factors_kept = false;
      predicted = metric_column(evaluate_corpus(ctx, tech, corpus, cal), field);
      *scale_slot = minimax_scale(predicted, measured);
      fit.envelope_after = envelope(scaled(predicted, *scale_slot), measured);
    }
    if (fit.envelope_after > fit.envelope_before) {
      *scale_slot = 1.0;  // bit-exact fallback: after == before
      fit.envelope_after = fit.envelope_before;
    }
    fit.scale = *scale_slot;
    report[name] = fit;
  };

  fit_scaled_metric("area", &MacroMetrics::area_mm2, &cal.area_scale,
                    &cal.area_factor);
  fit_scaled_metric("energy", &MacroMetrics::energy_per_mvm_nj,
                    &cal.energy_scale, &cal.energy_factor);
  fit_scaled_metric("delay", &MacroMetrics::delay_ns, &cal.delay_scale,
                    nullptr);

  // Throughput rides on the calibrated delay (tops == throughput_scale *
  // 2*MACs/delay), so its scale fits against the delay-calibrated column; if
  // even that widens the envelope, drop the delay scale too — throughput
  // then fits against the bit-exact uncalibrated column and the minimax
  // theorem applies directly.
  {
    const std::vector<double> measured = [&] {
      std::vector<double> out(corpus.size());
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        out[i] = corpus[i].measured.throughput_tops;
      }
      return out;
    }();
    CalibrationMetricFit fit;
    fit.envelope_before =
        envelope(metric_column(uncal, &MacroMetrics::throughput_tops),
                 measured);
    std::vector<double> predicted = metric_column(
        evaluate_corpus(ctx, tech, corpus, cal), &MacroMetrics::throughput_tops);
    cal.throughput_scale = minimax_scale(predicted, measured);
    fit.envelope_after =
        envelope(scaled(predicted, cal.throughput_scale), measured);
    if (fit.envelope_after > fit.envelope_before) {
      cal.delay_scale = 1.0;
      report["delay"].scale = 1.0;
      report["delay"].envelope_after = report["delay"].envelope_before;
      predicted = metric_column(evaluate_corpus(ctx, tech, corpus, cal),
                                &MacroMetrics::throughput_tops);
      cal.throughput_scale = minimax_scale(predicted, measured);
      fit.envelope_after =
          envelope(scaled(predicted, cal.throughput_scale), measured);
    }
    if (fit.envelope_after > fit.envelope_before) {
      cal.throughput_scale = 1.0;
      fit.envelope_after = fit.envelope_before;
    }
    fit.scale = cal.throughput_scale;
    report["throughput"] = fit;
  }

  for (const auto& [name, fit] : report) {
    SEGA_ASSERT(fit.envelope_after <= fit.envelope_before);
    if (!finite(fit.scale) || fit.scale <= 0.0) {
      return fail(strfmt("fitted %s scale is not a positive finite number",
                         name.c_str()));
    }
  }
  if (fit_report) *fit_report = std::move(report);
  return cal;
}

// ----------------------------------------------------------------- artifact

std::string Calibration::serialize() const {
  std::string out;
  Json header = Json::object();
  header["sega_calibration"] = format_version;
  header["model"] = model;
  header["model_version"] = model_version;
  Json config = Json::object();
  config["techlib"] = techlib;
  config["supply_v"] = conditions.supply_v;
  config["sparsity"] = conditions.input_sparsity;
  config["activity"] = conditions.activity;
  header["config"] = std::move(config);
  header["corpus_size"] = corpus_size;
  stamp_line_checksum(&header);
  out += header.dump() + "\n";
  for (int i = 0; i < kMacroComponentCount; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    Json line = Json::object();
    line["module"] = macro_component_name(static_cast<MacroComponent>(i));
    line["area_factor"] = area_factor[slot];
    line["energy_factor"] = energy_factor[slot];
    stamp_line_checksum(&line);
    out += line.dump() + "\n";
  }
  Json scales_line = Json::object();
  Json scales = Json::object();
  scales["area"] = area_scale;
  scales["delay"] = delay_scale;
  scales["energy"] = energy_scale;
  scales["throughput"] = throughput_scale;
  scales_line["scales"] = std::move(scales);
  stamp_line_checksum(&scales_line);
  out += scales_line.dump() + "\n";
  return out;
}

std::string Calibration::digest() const {
  return strfmt("%08x", fnv1a32(serialize()));
}

Json Calibration::fingerprint() const {
  Json j = Json::object();
  j["version"] = format_version;
  j["digest"] = digest();
  return j;
}

bool Calibration::operator==(const Calibration& other) const {
  return serialize() == other.serialize();
}

bool save_calibration(const Calibration& cal, const std::string& path,
                      std::string* error) {
  return write_file_atomic(
      path, "calibration artifact",
      [&](std::ostream& out) {
        out << cal.serialize();
        return true;
      },
      error);
}

namespace {

/// True iff @p line has exactly the keys in @p keys plus "c".
bool has_exact_keys(const Json& line, std::initializer_list<const char*> keys) {
  std::size_t expected = 1;  // "c"
  if (!line.contains("c")) return false;
  for (const char* key : keys) {
    if (!line.contains(key)) return false;
    ++expected;
  }
  return line.items().size() == expected;
}

bool positive_finite_number(const Json& v) {
  return v.is_number() && std::isfinite(v.as_number()) && v.as_number() > 0.0;
}

}  // namespace

std::optional<Calibration> load_calibration(const std::string& path,
                                            std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<Calibration> {
    if (error) {
      *error = strfmt("calibration artifact '%s': %s", path.c_str(),
                      msg.c_str());
    }
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open");

  std::vector<Json> lines;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (trim(raw).empty()) continue;
    auto parsed = Json::parse(raw);
    if (!parsed || !parsed->is_object()) {
      return fail(strfmt("malformed JSON on line %zu", line_no));
    }
    if (!check_line_checksum(*parsed)) {
      return fail(strfmt("checksum mismatch on line %zu (corrupt artifact)",
                         line_no));
    }
    lines.push_back(std::move(*parsed));
  }
  if (lines.empty()) return fail("empty file (missing header)");

  // --- header ---------------------------------------------------------------
  const Json& header = lines[0];
  if (!header.contains("sega_calibration") ||
      !header.at("sega_calibration").is_number()) {
    return fail("missing or malformed header (no sega_calibration marker)");
  }
  if (!has_exact_keys(header, {"sega_calibration", "model", "model_version",
                               "config", "corpus_size"})) {
    return fail("malformed header (unexpected field set)");
  }
  Calibration cal;
  cal.format_version =
      static_cast<int>(header.at("sega_calibration").as_int());
  if (cal.format_version != kCalibrationFormatVersion) {
    return fail(strfmt("unsupported format version %d (this build reads "
                       "version %d)",
                       cal.format_version, kCalibrationFormatVersion));
  }
  if (!header.at("model").is_string() ||
      !header.at("model_version").is_number() ||
      !header.at("corpus_size").is_number() ||
      !header.at("config").is_object()) {
    return fail("malformed header field types");
  }
  const Json& config = header.at("config");
  if (!config.contains("techlib") || !config.at("techlib").is_string() ||
      !config.contains("supply_v") || !config.at("supply_v").is_number() ||
      !config.contains("sparsity") || !config.at("sparsity").is_number() ||
      !config.contains("activity") || !config.at("activity").is_number() ||
      config.items().size() != 4) {
    return fail("malformed header config");
  }
  cal.model = header.at("model").as_string();
  cal.model_version = static_cast<int>(header.at("model_version").as_int());
  cal.techlib = config.at("techlib").as_string();
  cal.conditions.supply_v = config.at("supply_v").as_number();
  cal.conditions.input_sparsity = config.at("sparsity").as_number();
  cal.conditions.activity = config.at("activity").as_number();
  cal.corpus_size = header.at("corpus_size").as_int();
  if (cal.corpus_size < 2) {
    return fail("malformed header (corpus_size below the 2-point fitting "
                "minimum)");
  }

  // --- module and scale lines ----------------------------------------------
  std::array<bool, kMacroComponentCount> seen{};
  bool saw_scales = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Json& line = lines[i];
    if (line.contains("module")) {
      if (!has_exact_keys(line, {"module", "area_factor", "energy_factor"}) ||
          !line.at("module").is_string() ||
          !positive_finite_number(line.at("area_factor")) ||
          !positive_finite_number(line.at("energy_factor"))) {
        return fail(strfmt("malformed module line %zu", i + 1));
      }
      int slot = -1;
      for (int comp = 0; comp < kMacroComponentCount; ++comp) {
        if (line.at("module").as_string() ==
            macro_component_name(static_cast<MacroComponent>(comp))) {
          slot = comp;
          break;
        }
      }
      if (slot < 0) {
        return fail(strfmt("unknown module '%s' on line %zu",
                           line.at("module").as_string().c_str(), i + 1));
      }
      if (seen[static_cast<std::size_t>(slot)]) {
        return fail(strfmt("duplicate module '%s' on line %zu",
                           line.at("module").as_string().c_str(), i + 1));
      }
      seen[static_cast<std::size_t>(slot)] = true;
      cal.area_factor[static_cast<std::size_t>(slot)] =
          line.at("area_factor").as_number();
      cal.energy_factor[static_cast<std::size_t>(slot)] =
          line.at("energy_factor").as_number();
    } else if (line.contains("scales")) {
      if (saw_scales) return fail(strfmt("duplicate scales line %zu", i + 1));
      if (!has_exact_keys(line, {"scales"}) ||
          !line.at("scales").is_object()) {
        return fail(strfmt("malformed scales line %zu", i + 1));
      }
      const Json& scales = line.at("scales");
      if (scales.items().size() != 4 || !scales.contains("area") ||
          !scales.contains("delay") || !scales.contains("energy") ||
          !scales.contains("throughput") ||
          !positive_finite_number(scales.at("area")) ||
          !positive_finite_number(scales.at("delay")) ||
          !positive_finite_number(scales.at("energy")) ||
          !positive_finite_number(scales.at("throughput"))) {
        return fail(strfmt("malformed scales line %zu", i + 1));
      }
      cal.area_scale = scales.at("area").as_number();
      cal.delay_scale = scales.at("delay").as_number();
      cal.energy_scale = scales.at("energy").as_number();
      cal.throughput_scale = scales.at("throughput").as_number();
      saw_scales = true;
    } else {
      return fail(strfmt("unrecognized line %zu", i + 1));
    }
  }
  for (int comp = 0; comp < kMacroComponentCount; ++comp) {
    if (!seen[static_cast<std::size_t>(comp)]) {
      return fail(strfmt("truncated artifact: missing module '%s'",
                         macro_component_name(static_cast<MacroComponent>(
                             comp))));
    }
  }
  if (!saw_scales) return fail("truncated artifact: missing scales line");
  return cal;
}

std::optional<Calibration> load_calibration_for(const std::string& path,
                                                const Technology& tech,
                                                const EvalConditions& cond,
                                                std::string* error) {
  auto cal = load_calibration(path, error);
  if (!cal) return std::nullopt;
  const auto fail = [&](const std::string& msg) -> std::optional<Calibration> {
    if (error) {
      *error = strfmt("calibration artifact '%s': %s", path.c_str(),
                      msg.c_str());
    }
    return std::nullopt;
  };
  if (cal->model != "analytic") {
    return fail(strfmt("fitted for model '%s', not the analytic model",
                       cal->model.c_str()));
  }
  if (cal->model_version != kCostModelVersion) {
    return fail(strfmt("fitted against analytic model version %d; this "
                       "build is version %d (refit required)",
                       cal->model_version, kCostModelVersion));
  }
  if (cal->techlib != write_techlib(tech)) {
    return fail("technology fingerprint mismatch (fitted under a different "
                "techlib)");
  }
  if (cal->conditions.supply_v != cond.supply_v ||
      cal->conditions.input_sparsity != cond.input_sparsity ||
      cal->conditions.activity != cond.activity) {
    return fail("evaluation-conditions mismatch (fitted under different "
                "supply/sparsity/activity)");
  }
  return cal;
}

}  // namespace sega
