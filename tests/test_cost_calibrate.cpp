#include "cost/calibrate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "arch/space.h"
#include "compiler/cli.h"
#include "compiler/compiler.h"
#include "compiler/sweep.h"
#include "compiler/validate.h"
#include "cost/cost_cache.h"
#include "tech/techlib_parser.h"
#include "test_support.h"

namespace sega {
namespace {

using test::expect_same_metrics;
using test::read_file;
using test::write_file;

/// One temp dir for the whole binary (removed at exit).
std::string temp_path(const char* name) {
  static test::ScopedTempDir dir("sega_calibrate");
  return dir.file(name);
}

/// A small mixed-architecture corpus of valid design points: the first few
/// INT8 (MUL-CIM) and FP16 (FP-CIM) points of the enumerable space, so both
/// templates' modules (including pre_alignment / int_to_fp) appear.
std::vector<DesignPoint> corpus_points() {
  std::vector<DesignPoint> points;
  const DesignSpace int8_space(1 << 13, precision_int8());
  const auto int8_all = int8_space.enumerate_all();
  for (std::size_t i = 0; i < int8_all.size() && i < 4; ++i) {
    points.push_back(int8_all[i]);
  }
  const DesignSpace fp16_space(1 << 13, precision_fp16());
  const auto fp16_all = fp16_space.enumerate_all();
  for (std::size_t i = 0; i < fp16_all.size() && i < 3; ++i) {
    points.push_back(fp16_all[i]);
  }
  EXPECT_GE(points.size(), 4u);
  return points;
}

/// A non-identity calibration with every parameter exercised, identity
/// fields filled so artifacts built from it pass load_calibration_for.
Calibration planted_calibration(const Technology& tech,
                                const EvalConditions& cond) {
  Calibration cal;
  cal.area_factor[static_cast<int>(MacroComponent::kSram)] = 1.23;
  cal.area_factor[static_cast<int>(MacroComponent::kCompute)] = 0.87;
  cal.area_factor[static_cast<int>(MacroComponent::kAdderTree)] = 1.05;
  cal.energy_factor[static_cast<int>(MacroComponent::kCompute)] = 0.64;
  cal.energy_factor[static_cast<int>(MacroComponent::kAccumulator)] = 1.41;
  cal.energy_factor[static_cast<int>(MacroComponent::kPreAlignment)] = 1.18;
  cal.area_scale = 1.02;
  cal.delay_scale = 0.71;
  cal.energy_scale = 1.09;
  cal.throughput_scale = 0.93;
  cal.model = "analytic";
  cal.model_version = kCostModelVersion;
  cal.techlib = write_techlib(tech);
  cal.conditions = cond;
  cal.corpus_size = 2;
  return cal;
}

/// Measured corpus = the planted calibrated model's own predictions: the
/// fitter's model family can represent this data exactly, so a correct fit
/// must drive every envelope to ~0.
std::vector<CalibrationSample> planted_corpus(const Technology& tech,
                                              const EvalConditions& cond,
                                              const Calibration& planted) {
  const AnalyticCostModel model(
      tech, cond, std::make_shared<const Calibration>(planted));
  std::vector<CalibrationSample> corpus;
  for (const auto& dp : corpus_points()) {
    corpus.push_back(CalibrationSample{dp, model.evaluate(dp)});
  }
  return corpus;
}

/// The planted corpus with seeded +/-2% multiplicative noise on every
/// measured headline metric.
std::vector<CalibrationSample> noisy_corpus(const Technology& tech,
                                            const EvalConditions& cond,
                                            const Calibration& planted) {
  auto corpus = planted_corpus(tech, cond, planted);
  Rng rng(42);
  for (auto& sample : corpus) {
    const auto jitter = [&] {
      return 1.0 + static_cast<double>(rng.uniform_int(-20, 20)) / 1000.0;
    };
    sample.measured.area_mm2 *= jitter();
    sample.measured.delay_ns *= jitter();
    sample.measured.energy_per_mvm_nj *= jitter();
    sample.measured.throughput_tops *= jitter();
  }
  return corpus;
}

// ------------------------------------------------------- calibrated deriving

TEST(CalibrateTest, IdentityCalibrationIsBitIdentical) {
  // A default-constructed Calibration must reproduce the uncalibrated
  // pipeline bit-for-bit on every metric and breakdown entry — the
  // foundation of the "no artifact => byte-identical outputs" guarantee.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const AnalyticCostModel plain(tech, cond);
  const AnalyticCostModel via_identity(
      tech, cond, std::make_shared<const Calibration>());
  for (const auto& dp : corpus_points()) {
    expect_same_metrics(via_identity.evaluate(dp), plain.evaluate(dp));
  }
}

TEST(CalibrateTest, ScalesApplyAsOneTrailingMultiply) {
  // Per-metric scales are a single trailing multiply on the finished
  // metric, so metric == scale * unscaled holds bit-exactly (no refactored
  // accumulation that could drift by an ulp).
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const AnalyticCostModel plain(tech, cond);
  Calibration cal;  // identity factors, scales only
  cal.area_scale = 1.25;
  cal.energy_scale = 0.75;
  const AnalyticCostModel scaled(tech, cond,
                                 std::make_shared<const Calibration>(cal));
  for (const auto& dp : corpus_points()) {
    const MacroMetrics u = plain.evaluate(dp);
    const MacroMetrics c = scaled.evaluate(dp);
    EXPECT_EQ(c.area_mm2, 1.25 * u.area_mm2);
    EXPECT_EQ(c.energy_per_mvm_nj, 0.75 * u.energy_per_mvm_nj);
    EXPECT_EQ(c.delay_ns, u.delay_ns);  // delay_scale untouched
    EXPECT_EQ(c.throughput_tops, u.throughput_tops);
  }
}

TEST(CalibrateTest, BatchAndScalarCalibratedEvaluationAgree) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  const AnalyticCostModel model(
      tech, cond, std::make_shared<const Calibration>(planted));
  const auto points = corpus_points();
  std::vector<MacroMetrics> batch(points.size());
  model.evaluate_batch(Span<const DesignPoint>(points),
                       Span<MacroMetrics>(batch));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_metrics(batch[i], model.evaluate(points[i]));
  }
}

// ------------------------------------------------------------------ the fit

TEST(CalibrateTest, FitRecoversPlantedCalibrationExactly) {
  // The corpus is generated by a calibration the fitter's model family can
  // represent exactly: every after-envelope must collapse to ~0 and the
  // re-evaluated calibrated predictions must match the measurements.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  const auto corpus = planted_corpus(tech, cond, planted);

  std::string error;
  std::map<std::string, CalibrationMetricFit> fits;
  const auto cal = fit_calibration(tech, cond, corpus, &error, &fits);
  ASSERT_TRUE(cal.has_value()) << error;
  ASSERT_EQ(fits.size(), 4u);
  for (const auto& [metric, fit] : fits) {
    EXPECT_LE(fit.envelope_after, 1e-9) << metric;
    EXPECT_LE(fit.envelope_after, fit.envelope_before) << metric;
    EXPECT_TRUE(std::isfinite(fit.scale)) << metric;
    EXPECT_GT(fit.scale, 0.0) << metric;
  }
  const AnalyticCostModel fitted(tech, cond,
                                 std::make_shared<const Calibration>(*cal));
  for (const auto& sample : corpus) {
    const MacroMetrics m = fitted.evaluate(sample.point);
    EXPECT_NEAR(m.area_mm2, sample.measured.area_mm2,
                1e-9 * sample.measured.area_mm2);
    EXPECT_NEAR(m.delay_ns, sample.measured.delay_ns,
                1e-9 * sample.measured.delay_ns);
    EXPECT_NEAR(m.energy_per_mvm_nj, sample.measured.energy_per_mvm_nj,
                1e-9 * sample.measured.energy_per_mvm_nj);
    EXPECT_NEAR(m.throughput_tops, sample.measured.throughput_tops,
                1e-9 * sample.measured.throughput_tops);
  }
}

TEST(CalibrateTest, FitRecoversUnderSeededNoise) {
  // +/-2% multiplicative noise on the measured headline metrics: the fit
  // must land within the noise band (envelopes bounded by the noise spread)
  // and still never widen any envelope.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const auto corpus =
      noisy_corpus(tech, cond, planted_calibration(tech, cond));
  std::string error;
  std::map<std::string, CalibrationMetricFit> fits;
  const auto cal = fit_calibration(tech, cond, corpus, &error, &fits);
  ASSERT_TRUE(cal.has_value()) << error;
  for (const auto& [metric, fit] : fits) {
    // Minimax centering of ratios within [0.98, 1.02] of the exact model
    // bounds the envelope by about the noise half-spread.
    EXPECT_LE(fit.envelope_after, 0.05) << metric;
    EXPECT_LE(fit.envelope_after, fit.envelope_before) << metric;
  }
}

TEST(CalibrateTest, FittedArtifactsAreByteStable) {
  // The artifact bytes fitted from the planted and the noisy corpus, pinned
  // across versions: a refactor of the fitter, the derivation or the
  // artifact writer must not move a single byte of either.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  std::string error;
  const auto exact =
      fit_calibration(tech, cond, planted_corpus(tech, cond, planted), &error);
  ASSERT_TRUE(exact.has_value()) << error;
  const auto noisy =
      fit_calibration(tech, cond, noisy_corpus(tech, cond, planted), &error);
  ASSERT_TRUE(noisy.has_value()) << error;
  EXPECT_EQ(exact->serialize().size(), 1478u);
  EXPECT_EQ(exact->digest(), "bfe45ea6");
  EXPECT_EQ(noisy->serialize().size(), 1494u);
  EXPECT_EQ(noisy->digest(), "398f96d4");
}

TEST(CalibrateTest, FitIsBitDeterministicUnderPermutationAndThreads) {
  // Sort-before-solve and fixed-order accumulation: the fit is a pure
  // function of the corpus *set* — any permutation, any SEGA_THREADS value,
  // and any repetition produce a bit-identical calibration (equal digest).
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  const auto corpus = planted_corpus(tech, cond, planted);

  std::string error;
  const auto base = fit_calibration(tech, cond, corpus, &error);
  ASSERT_TRUE(base.has_value()) << error;

  auto reversed = corpus;
  std::reverse(reversed.begin(), reversed.end());
  auto rotated = corpus;
  std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
  for (const auto& permuted : {reversed, rotated}) {
    const auto refit = fit_calibration(tech, cond, permuted, &error);
    ASSERT_TRUE(refit.has_value()) << error;
    EXPECT_TRUE(*refit == *base);
    EXPECT_EQ(refit->digest(), base->digest());
    EXPECT_EQ(refit->serialize(), base->serialize());
  }

  const char* saved = std::getenv("SEGA_THREADS");
  const std::string saved_value = saved ? saved : "";
  for (const char* threads : {"1", "8"}) {
    ::setenv("SEGA_THREADS", threads, 1);
    const auto refit = fit_calibration(tech, cond, corpus, &error);
    ASSERT_TRUE(refit.has_value()) << error;
    EXPECT_TRUE(*refit == *base) << "SEGA_THREADS=" << threads;
    EXPECT_EQ(refit->digest(), base->digest());
  }
  if (saved) {
    ::setenv("SEGA_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SEGA_THREADS");
  }
}

TEST(CalibrateTest, FitHardErrorsOnDegenerateCorpora) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const auto points = corpus_points();
  const AnalyticCostModel model(tech, cond);
  std::string error;

  // Empty corpus.
  EXPECT_FALSE(fit_calibration(tech, cond, {}, &error).has_value());
  EXPECT_NE(error.find("empty"), std::string::npos) << error;

  // Single point, and the same point repeated: rank-deficient, clearly
  // diagnosed, never a NaN-filled calibration.
  CalibrationSample one{points[0], model.evaluate(points[0])};
  EXPECT_FALSE(fit_calibration(tech, cond, {one}, &error).has_value());
  EXPECT_NE(error.find("rank-deficient"), std::string::npos) << error;
  EXPECT_FALSE(fit_calibration(tech, cond, {one, one, one}, &error)
                   .has_value());
  EXPECT_NE(error.find("rank-deficient"), std::string::npos) << error;

  // Non-finite and non-positive measurements.
  CalibrationSample nan_sample{points[1], model.evaluate(points[1])};
  nan_sample.measured.energy_per_mvm_nj = std::nan("");
  EXPECT_FALSE(
      fit_calibration(tech, cond, {one, nan_sample}, &error).has_value());
  EXPECT_NE(error.find("non-finite or non-positive"), std::string::npos)
      << error;
  CalibrationSample zero_sample{points[1], model.evaluate(points[1])};
  zero_sample.measured.area_mm2 = 0.0;
  EXPECT_FALSE(
      fit_calibration(tech, cond, {one, zero_sample}, &error).has_value());
  EXPECT_NE(error.find("non-finite or non-positive"), std::string::npos)
      << error;
}

// ----------------------------------------------------------------- artifact

TEST(CalibrateTest, ArtifactRoundTripsBitExactly) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  std::string error;
  const auto cal =
      fit_calibration(tech, cond, planted_corpus(tech, cond, planted),
                      &error);
  ASSERT_TRUE(cal.has_value()) << error;

  const std::string path = temp_path("roundtrip.cal");
  ASSERT_TRUE(save_calibration(*cal, path, &error)) << error;
  EXPECT_EQ(read_file(path), cal->serialize());

  const auto loaded = load_calibration(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(*loaded == *cal);
  EXPECT_EQ(loaded->digest(), cal->digest());

  // The context-checked loader accepts the fitted (tech, cond)...
  const auto for_ctx = load_calibration_for(path, tech, cond, &error);
  ASSERT_TRUE(for_ctx.has_value()) << error;
  EXPECT_TRUE(*for_ctx == *cal);

  // ...and rejects different evaluation conditions.
  EvalConditions other = cond;
  other.input_sparsity = 0.5;
  EXPECT_FALSE(load_calibration_for(path, tech, other, &error).has_value());
  EXPECT_NE(error.find("conditions"), std::string::npos) << error;
}

TEST(CalibrateTest, ArtifactLoaderRejectsVersionAndModelMismatch) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  std::string error;

  Calibration wrong_version = planted_calibration(tech, cond);
  wrong_version.format_version = kCalibrationFormatVersion + 1;
  const std::string vpath = temp_path("wrong_version.cal");
  ASSERT_TRUE(save_calibration(wrong_version, vpath, &error)) << error;
  EXPECT_FALSE(load_calibration(vpath, &error).has_value());
  EXPECT_NE(error.find("format version"), std::string::npos) << error;

  Calibration wrong_model = planted_calibration(tech, cond);
  wrong_model.model = "rtl";
  const std::string mpath = temp_path("wrong_model.cal");
  ASSERT_TRUE(save_calibration(wrong_model, mpath, &error)) << error;
  EXPECT_TRUE(load_calibration(mpath, &error).has_value()) << error;
  EXPECT_FALSE(load_calibration_for(mpath, tech, cond, &error).has_value());
  EXPECT_NE(error.find("not the analytic model"), std::string::npos) << error;

  Calibration stale = planted_calibration(tech, cond);
  stale.model_version = kCostModelVersion + 1;
  const std::string spath = temp_path("stale_model.cal");
  ASSERT_TRUE(save_calibration(stale, spath, &error)) << error;
  EXPECT_FALSE(load_calibration_for(spath, tech, cond, &error).has_value());
  EXPECT_NE(error.find("refit required"), std::string::npos) << error;

  // A missing file is a hard error too, never an implicit identity.
  EXPECT_FALSE(
      load_calibration(temp_path("does_not_exist.cal"), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CalibrateTest, ArtifactMutationFuzzNeverServesDifferentCalibration) {
  // Adversarial artifact persistence, PR-5 style: replay >= 60 seeded
  // byte-level corruptions of a valid artifact.  Every line is checksummed
  // and the artifact is normative data of record, so each trial must either
  // hard-error with a diagnostic or load a calibration bit-identical to the
  // pristine one (a no-op mutation) — never crash, never serve silently
  // different parameters.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const Calibration planted = planted_calibration(tech, cond);
  std::string error;
  const auto cal =
      fit_calibration(tech, cond, planted_corpus(tech, cond, planted),
                      &error);
  ASSERT_TRUE(cal.has_value()) << error;
  const std::string pristine = cal->serialize();
  const auto header_end = pristine.find('\n');
  ASSERT_NE(header_end, std::string::npos);

  Rng rng(2026);
  const std::string mutated_path = temp_path("fuzz.cal");
  int hard_errors = 0;
  int clean_loads = 0;
  for (int trial = 0; trial < 72; ++trial) {
    // Every third trial aims at the header line (version/config damage
    // must be a hard error, and uniform positions rarely hit line one).
    std::string mutated;
    if (trial % 3 == 0) {
      mutated = test::random_mutation(pristine.substr(0, header_end), rng) +
                pristine.substr(header_end);
    } else {
      mutated = pristine;
      const std::int64_t rounds = rng.uniform_int(1, 3);
      for (std::int64_t r = 0; r < rounds; ++r) {
        mutated = test::random_mutation(mutated, rng);
      }
    }
    write_file(mutated_path, mutated);
    std::string load_error;
    const auto loaded = load_calibration(mutated_path, &load_error);
    if (!loaded.has_value()) {
      EXPECT_FALSE(load_error.empty()) << "trial " << trial;
      ++hard_errors;
      continue;
    }
    ++clean_loads;
    EXPECT_TRUE(*loaded == *cal) << "trial " << trial
                                 << " loaded a different calibration";
  }
  EXPECT_GT(hard_errors, 0);
  // Clean loads only happen when a mutation is a textual no-op — rare, and
  // not required; corruption must simply never go unnoticed.
  EXPECT_EQ(hard_errors + clean_loads, 72);
}

// ---------------------------------------------- memo / checkpoint isolation

TEST(CalibrateTest, MemoFingerprintSeparatesCalibratedAndUncalibrated) {
  // Both memo formats (save and save_delta), both directions: a memo
  // written under one calibration state must never load into a cache in
  // the other state — stale metrics served across models would silently
  // poison every consumer.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  const auto cal = std::make_shared<const Calibration>(
      planted_calibration(tech, cond));
  const AnalyticCostModel calibrated_model(tech, cond, cal);
  const AnalyticCostModel plain_model(tech, cond);
  const auto points = corpus_points();

  CostCache calibrated_cache(calibrated_model);
  CostCache plain_cache(plain_model);
  for (const auto& dp : points) {
    (void)calibrated_cache.evaluate(dp);
    (void)plain_cache.evaluate(dp);
  }
  const std::string cal_memo = temp_path("calibrated.memo.jsonl");
  const std::string cal_delta = temp_path("calibrated.delta.jsonl");
  const std::string plain_memo = temp_path("plain.memo.jsonl");
  const std::string plain_delta = temp_path("plain.delta.jsonl");
  std::string error;
  ASSERT_TRUE(calibrated_cache.save(cal_memo, &error)) << error;
  ASSERT_TRUE(calibrated_cache.save_delta(cal_delta, &error)) << error;
  ASSERT_TRUE(plain_cache.save(plain_memo, &error)) << error;
  ASSERT_TRUE(plain_cache.save_delta(plain_delta, &error)) << error;

  // The uncalibrated memo header must carry no calibration key at all —
  // pre-calibration memo files stay byte-compatible.
  EXPECT_EQ(read_file(plain_memo).find("calibration"), std::string::npos);
  EXPECT_NE(read_file(cal_memo).find("calibration"), std::string::npos);

  for (const auto& calibrated_file : {cal_memo, cal_delta}) {
    CostCache reader(plain_model);
    EXPECT_FALSE(reader.load(calibrated_file, &error)) << calibrated_file;
    EXPECT_FALSE(error.empty());
  }
  for (const auto& plain_file : {plain_memo, plain_delta}) {
    CostCache reader(calibrated_model);
    EXPECT_FALSE(reader.load(plain_file, &error)) << plain_file;
    EXPECT_FALSE(error.empty());
  }
  // Sanity: each memo still loads into its own kind.
  {
    CostCache reader(calibrated_model);
    EXPECT_TRUE(reader.load(cal_memo, &error)) << error;
    EXPECT_EQ(reader.size(), points.size());
  }
  {
    CostCache reader(plain_model);
    EXPECT_TRUE(reader.load(plain_memo, &error)) << error;
    EXPECT_EQ(reader.size(), points.size());
  }
}

TEST(CalibrateTest, SweepCheckpointFingerprintSeparatesCalibration) {
  // The artifact's version+digest joins the sweep checkpoint config
  // fingerprint: a checkpoint written under a calibration must refuse to
  // resume without it, and vice versa — cross-resuming would mix results
  // from two different objective functions.
  const Technology tech = Technology::tsmc28();
  const Compiler compiler(tech);
  const EvalConditions cond;
  std::string error;
  const auto cal = fit_calibration(
      tech, cond, planted_corpus(tech, cond, planted_calibration(tech, cond)),
      &error);
  ASSERT_TRUE(cal.has_value()) << error;
  const std::string artifact = temp_path("sweep.cal");
  ASSERT_TRUE(save_calibration(*cal, artifact, &error)) << error;

  SweepSpec spec;
  spec.wstores = {512};
  spec.precisions = {precision_int8()};
  spec.dse.population = 16;
  spec.dse.generations = 2;
  spec.dse.seed = 3;
  spec.dse.threads = 1;

  // Calibrated checkpoint; uncalibrated resume must hard-error.
  SweepSpec calibrated = spec;
  calibrated.checkpoint = temp_path("calibrated.checkpoint.jsonl");
  calibrated.eval.calibration_file = artifact;
  (void)run_sweep(compiler, calibrated, &error);
  ASSERT_TRUE(error.empty()) << error;
  SweepSpec resume_plain = calibrated;
  resume_plain.eval.calibration_file.clear();
  (void)run_sweep(compiler, resume_plain, &error);
  EXPECT_FALSE(error.empty());

  // Uncalibrated checkpoint; calibrated resume must hard-error.
  SweepSpec plain = spec;
  plain.checkpoint = temp_path("plain.checkpoint.jsonl");
  (void)run_sweep(compiler, plain, &error);
  ASSERT_TRUE(error.empty()) << error;
  SweepSpec resume_calibrated = plain;
  resume_calibrated.eval.calibration_file = artifact;
  (void)run_sweep(compiler, resume_calibrated, &error);
  EXPECT_FALSE(error.empty());
}

TEST(CalibrateTest, RtlBackendRejectsCalibration) {
  // The RTL backend *is* the measurement a calibration was fitted against;
  // calibrating it is a category error everywhere it could be spelled.
  const Technology tech = Technology::tsmc28();
  const Compiler compiler(tech);
  const EvalConditions cond;
  std::string error;
  const auto cal = fit_calibration(
      tech, cond, planted_corpus(tech, cond, planted_calibration(tech, cond)),
      &error);
  ASSERT_TRUE(cal.has_value()) << error;
  const std::string artifact = temp_path("rtl_reject.cal");
  ASSERT_TRUE(save_calibration(*cal, artifact, &error)) << error;

  CompilerSpec cspec;
  cspec.wstore = 512;
  cspec.precision = precision_int8();
  cspec.eval.backend = CostModelKind::kRtl;
  cspec.eval.calibration_file = artifact;
  (void)compiler.run(cspec, nullptr, &error);
  EXPECT_NE(error.find("analytic"), std::string::npos) << error;

  SweepSpec sspec;
  sspec.wstores = {512};
  sspec.precisions = {precision_int8()};
  sspec.eval.backend = CostModelKind::kRtl;
  sspec.eval.calibration_file = artifact;
  (void)run_sweep(compiler, sspec, &error);
  EXPECT_NE(error.find("analytic"), std::string::npos) << error;

  EXPECT_THROW(make_cost_model(CostModelKind::kRtl, tech, cond,
                               std::make_shared<const Calibration>(*cal)),
               std::runtime_error);
}

// ----------------------------------------------------------- validate / CLI

TEST(CalibrateTest, ValidateSpecInterceptsCalibrationFile) {
  // "calibration_file" belongs to the comparison, never the inner knee DSE:
  // it lands in the validate spec's evaluation config and run_validate
  // strips it from the inner sweep, so knee selection, RTL work, and the
  // inner checkpoint/memo are identical with and without an artifact
  // (EndToEndEnvelopeRegression re-validates warm with zero elaborations).
  std::string error;
  const auto spec = ValidateSpec::from_json(
      *Json::parse(R"({"calibration_file": "x.cal", "tolerance": 0.5})"),
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->sweep.eval.calibration_file, "x.cal");
  const Json j = spec->to_json();
  ASSERT_TRUE(j.contains("calibration_file"));
  EXPECT_EQ(j.at("calibration_file").as_string(), "x.cal");
  const auto reparsed = ValidateSpec::from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->sweep.eval.calibration_file, "x.cal");

  EXPECT_FALSE(
      ValidateSpec::from_json(*Json::parse(R"({"calibration_file": 3})"))
          .has_value());
}

TEST(CalibrateTest, CliRejectsCalibrateWithCalibration) {
  std::ostringstream out, err;
  const int exit_code = run_cli(
      {"validate", "--calibrate", temp_path("x.cal"), "--calibration",
       temp_path("y.cal")},
      out, err);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(err.str().find("mutually exclusive"), std::string::npos)
      << err.str();
}

TEST(CalibrateTest, ValidateCalibrateRejectsPreloadedArtifact) {
  const Compiler compiler(Technology::tsmc28());
  ValidateSpec spec;
  spec.sweep.eval.calibration_file = temp_path("preloaded.cal");
  std::string error;
  EXPECT_FALSE(
      run_validate_calibrate(compiler, spec, temp_path("fresh.cal"), &error)
          .has_value());
  EXPECT_NE(error.find("cannot run under a preloaded one"), std::string::npos)
      << error;
  EXPECT_FALSE(run_validate_calibrate(compiler, ValidateSpec{}, "", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CalibrateTest, EndToEndEnvelopeRegression) {
  // The full productized loop on the INT8 / FP16 / FP32 knee grid:
  //   validate -> validate --calibrate -> validate --calibration
  // Checks, in order: the --calibrate before-report equals a plain
  // validate; every per-metric envelope tightens (or matches); the
  // calibrated re-validate reproduces the fit's after-envelopes from a
  // *warm RTL memo with zero new elaborations*; and the no-artifact path
  // is byte-identical to a plain run (no "calibration" key anywhere).
  const Compiler compiler(Technology::tsmc28());
  ValidateSpec spec;
  spec.sweep.wstores = {512};
  spec.sweep.precisions = {precision_int8(), precision_fp16(),
                           precision_fp32()};
  spec.sweep.dse.population = 16;
  spec.sweep.dse.generations = 8;
  spec.sweep.dse.seed = 2;
  spec.tolerance = 0.25;
  spec.rtl_cache_file = temp_path("e2e.rtl.memo");

  std::string error;
  const ValidateReport before = run_validate(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(before.rows.size(), 3u);
  EXPECT_TRUE(before.calibration.empty());
  EXPECT_EQ(before.to_json().dump(2).find("calibration"), std::string::npos);

  const std::string artifact = temp_path("e2e.cal");
  const auto creport =
      run_validate_calibrate(compiler, spec, artifact, &error);
  ASSERT_TRUE(creport.has_value()) << error;
  EXPECT_TRUE(std::filesystem::exists(artifact));
  EXPECT_EQ(creport->corpus_size, 3);
  EXPECT_EQ(creport->before.to_json().dump(2), before.to_json().dump(2));
  ASSERT_EQ(creport->fits.size(), 4u);
  for (const auto& [metric, fit] : creport->fits) {
    EXPECT_LE(fit.envelope_after, fit.envelope_before) << metric;
  }

  // Per-metric envelope over the after-rows == the fit's reported
  // after-envelope (same corpus, same calibrated model, same arithmetic).
  const auto envelope = [](const std::vector<ValidateRow>& rows,
                           double ValidateRow::*field) {
    double worst = 0.0;
    for (const auto& row : rows) worst = std::max(worst, row.*field);
    return worst;
  };
  EXPECT_DOUBLE_EQ(envelope(creport->after.rows, &ValidateRow::area_rel_err),
                   creport->fits.at("area").envelope_after);
  EXPECT_DOUBLE_EQ(envelope(creport->after.rows, &ValidateRow::delay_rel_err),
                   creport->fits.at("delay").envelope_after);
  EXPECT_DOUBLE_EQ(
      envelope(creport->after.rows, &ValidateRow::energy_rel_err),
      creport->fits.at("energy").envelope_after);
  EXPECT_DOUBLE_EQ(
      envelope(creport->after.rows, &ValidateRow::throughput_rel_err),
      creport->fits.at("throughput").envelope_after);

  // Calibrated re-validate: identical knees (the DSE ran uncalibrated), a
  // warm RTL memo with zero elaborations, and the same after-rows.
  ValidateSpec calibrated = spec;
  calibrated.sweep.eval.calibration_file = artifact;
  const ValidateReport after = run_validate(compiler, calibrated, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(after.rtl_elaborations, 0u);
  EXPECT_EQ(after.rtl_cache_misses, 0u);
  EXPECT_FALSE(after.calibration.empty());
  EXPECT_EQ(after.calibration, creport->digest);
  EXPECT_EQ(after.to_json().dump(2), creport->after.to_json().dump(2));
  EXPECT_EQ(after.to_csv(), creport->after.to_csv());

  // No-artifact warm rerun: byte-identical to the original plain run.
  const ValidateReport warm = run_validate(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(warm.rtl_elaborations, 0u);
  EXPECT_EQ(warm.to_json().dump(2), before.to_json().dump(2));
  EXPECT_EQ(warm.to_csv(), before.to_csv());
  EXPECT_EQ(warm.render(), before.render());
}

}  // namespace
}  // namespace sega
