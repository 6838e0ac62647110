#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "arch/space.h"
#include "cost/rtl_cost_model.h"
#include "test_support.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sega {
namespace {

using test::CountingCostModel;
using test::expect_same_metrics;
using test::int8_point;
using test::read_file;
using test::write_file;

/// One temp dir for the whole binary (removed at exit).
std::string temp_path(const char* name) {
  static test::ScopedTempDir dir("sega_cost_cache");
  return dir.file(name);
}

TEST(CostCacheTest, HitReturnsSameCostAsColdEvaluation) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  const DesignPoint dp = int8_point(32, 128, 16, 8);

  const MacroMetrics direct = evaluate_macro(tech, dp);
  const MacroMetrics cold = cache.evaluate(dp);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  const MacroMetrics warm = cache.evaluate(dp);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  expect_same_metrics(direct, cold);
  expect_same_metrics(cold, warm);
}

TEST(CostCacheTest, DistinctDesignPointsNeverCollide) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);

  // Every valid INT8 point at this Wstore: all must round-trip through the
  // cache to their own metrics.
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 10u);
  for (const auto& dp : all) cache.evaluate(dp);  // populate
  EXPECT_EQ(cache.size(), all.size());
  for (const auto& dp : all) {
    expect_same_metrics(cache.evaluate(dp), evaluate_macro(tech, dp));
  }
  EXPECT_EQ(cache.misses(), all.size());
}

TEST(CostCacheTest, PipelinedTreeVariantIsADistinctKey) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  DesignPoint plain = int8_point(32, 128, 16, 8);
  DesignPoint pipelined = plain;
  pipelined.pipelined_tree = true;

  const auto m_plain = cache.evaluate(plain);
  const auto m_pipe = cache.evaluate(pipelined);
  EXPECT_EQ(cache.size(), 2u);
  // The pipelined tree changes the critical path, so aliasing the two keys
  // would be observable.
  EXPECT_NE(m_plain.delay_gates, m_pipe.delay_gates);
}

TEST(CostCacheTest, DifferentPrecisionsAreDistinctKeys) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  DesignPoint int8 = int8_point(64, 64, 16, 4);
  DesignPoint int4 = int8;
  int4.precision = precision_int4();  // same (n, h, l, k), different format

  cache.evaluate(int8);
  cache.evaluate(int4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CostCacheTest, ConditionsAreBoundAtConstruction) {
  const Technology tech = Technology::tsmc28();
  EvalConditions low_voltage;
  low_voltage.supply_v = 0.6;
  CostCache nominal(tech);
  CostCache scaled(tech, low_voltage);
  const DesignPoint dp = int8_point(32, 128, 16, 8);

  expect_same_metrics(nominal.evaluate(dp), evaluate_macro(tech, dp));
  expect_same_metrics(scaled.evaluate(dp),
                      evaluate_macro(tech, dp, low_voltage));
}

TEST(CostCacheTest, ConcurrentEvaluationIsConsistent) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();

  ThreadPool pool(8);
  // Hammer the same key set from many threads, several passes, so cold
  // misses and warm hits race.
  std::vector<MacroMetrics> results(all.size() * 4);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = cache.evaluate(all[i % all.size()]);
  });
  EXPECT_EQ(cache.size(), all.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_same_metrics(results[i], evaluate_macro(tech, all[i % all.size()]));
  }
}

TEST(CostCacheTest, BatchedEvaluationMatchesScalarAndCountsExactly) {
  const Technology tech = Technology::tsmc28();
  CountingCostModel model(tech);
  CostCache cache(model);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 4u);

  std::vector<MacroMetrics> out(all.size());
  cache.evaluate_batch(Span<const DesignPoint>(all), Span<MacroMetrics>(out));
  EXPECT_EQ(cache.misses(), all.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(model.evaluations(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    expect_same_metrics(out[i], evaluate_macro(tech, all[i]));
  }

  // Second pass: all hits, zero new model evaluations.
  cache.evaluate_batch(Span<const DesignPoint>(all), Span<MacroMetrics>(out));
  EXPECT_EQ(cache.misses(), all.size());
  EXPECT_EQ(cache.hits(), all.size());
  EXPECT_EQ(model.evaluations(), all.size());
}

TEST(CostCacheTest, BatchWithDuplicateKeysEvaluatesEachKeyOnce) {
  const Technology tech = Technology::tsmc28();
  CountingCostModel model(tech);
  CostCache cache(model);
  const DesignPoint dp = int8_point(32, 128, 16, 8);
  // The same point four times in one batch: one miss, three hits, one
  // underlying evaluation.
  const std::vector<DesignPoint> points(4, dp);
  std::vector<MacroMetrics> out(points.size());
  cache.evaluate_batch(Span<const DesignPoint>(points),
                       Span<MacroMetrics>(out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(model.evaluations(), 1u);
  for (const MacroMetrics& m : out) {
    expect_same_metrics(m, evaluate_macro(tech, dp));
  }
}

TEST(CostCacheTest, StatsAreExactUnderConcurrentBatchedLookups) {
  const Technology tech = Technology::tsmc28();
  CountingCostModel model(tech);
  CostCache cache(model);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 8u);

  // Pool tasks submit overlapping rotated batches, so cold keys race: the
  // exact-once contract requires each distinct key to reach the model once,
  // and every lookup to be exactly one of hit/miss.
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 16;
  std::vector<std::vector<MacroMetrics>> results(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t t) {
    std::vector<DesignPoint> window;
    window.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      window.push_back(all[(i + t) % all.size()]);
    }
    results[t].resize(window.size());
    cache.evaluate_batch(Span<const DesignPoint>(window),
                         Span<MacroMetrics>(results[t]));
  });

  EXPECT_EQ(cache.misses(), all.size());
  EXPECT_EQ(model.evaluations(), all.size());
  EXPECT_EQ(cache.hits() + cache.misses(), kTasks * all.size());
  EXPECT_EQ(cache.size(), all.size());
  for (std::size_t t = 0; t < kTasks; ++t) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      expect_same_metrics(results[t][i],
                          evaluate_macro(tech, all[(i + t) % all.size()]));
    }
  }
}

TEST(CostCacheTest, ThrowingModelUnwindsClaimsInsteadOfDeadlocking) {
  // A model that fails its first batch: the cache must release the claimed
  // pending markers (or later lookups of those keys would park forever) and
  // stay fully usable afterwards, with exact stats.
  const Technology tech = Technology::tsmc28();
  test::FailingCostModel model(tech, /*failures=*/1);
  CostCache cache(model);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 2u);

  std::vector<MacroMetrics> out(all.size());
  EXPECT_THROW(cache.evaluate_batch(Span<const DesignPoint>(all),
                                    Span<MacroMetrics>(out)),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  // Retry (model recovered): every key evaluates normally — no deadlock on
  // stale pending markers, stats exact.
  cache.evaluate_batch(Span<const DesignPoint>(all), Span<MacroMetrics>(out));
  EXPECT_EQ(cache.size(), all.size());
  EXPECT_EQ(cache.misses(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    expect_same_metrics(out[i], evaluate_macro(tech, all[i]));
  }
}

TEST(CostCacheTest, SaveLoadRoundTripsBitExactly) {
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("roundtrip.memo.jsonl");
  std::filesystem::remove(path);

  CostCache writer(tech);
  const DesignSpace int_space(1 << 13, precision_int8());
  const DesignSpace fp_space(1 << 13, precision_bf16());
  const auto ints = int_space.enumerate_all();
  const auto fps = fp_space.enumerate_all();
  for (const auto& dp : ints) writer.evaluate(dp);
  for (const auto& dp : fps) writer.evaluate(dp);
  ASSERT_TRUE(writer.save(path));

  CountingCostModel model(tech);
  CostCache reader(model);
  std::string error;
  ASSERT_TRUE(reader.load(path, &error)) << error;
  EXPECT_EQ(reader.size(), ints.size() + fps.size());
  // Loaded entries count as neither hits nor misses...
  EXPECT_EQ(reader.hits(), 0u);
  EXPECT_EQ(reader.misses(), 0u);
  // ...and a full revisit performs ZERO model evaluations with bit-exact
  // metrics (doubles round-trip through the memo number form).
  for (const auto& dp : ints) {
    expect_same_metrics(reader.evaluate(dp), evaluate_macro(tech, dp));
  }
  for (const auto& dp : fps) {
    expect_same_metrics(reader.evaluate(dp), evaluate_macro(tech, dp));
  }
  EXPECT_EQ(model.evaluations(), 0u);
  EXPECT_EQ(reader.misses(), 0u);
  EXPECT_EQ(reader.hits(), ints.size() + fps.size());
}

TEST(CostCacheTest, MemoEntryLinesAreByteStable) {
  // Golden bytes of three entry lines (INT8, FP16, FP32), as the number
  // codec writes them: integral values as plain integers, every other
  // double as its shortest round-trip %.{P}g form (docs/FORMATS.md).  A
  // codec change that moves one byte fails here before it can invalidate
  // every memo on disk.
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  cache.evaluate(int8_point(32, 128, 16, 8));
  DesignPoint fp16;
  fp16.arch = ArchKind::kFpCim;
  fp16.precision = precision_fp16();
  fp16.n = 64;
  fp16.h = 16;
  fp16.l = 44;
  fp16.k = 4;
  cache.evaluate(fp16);
  DesignPoint fp32 = fp16;
  fp32.precision = precision_fp32();
  fp32.n = 128;
  fp32.l = 48;
  fp32.k = 8;
  cache.evaluate(fp32);

  const std::string path = temp_path("golden.memo.jsonl");
  ASSERT_TRUE(cache.save(path));
  const std::vector<std::string> lines = split(read_file(path), '\n');
  ASSERT_EQ(lines.size(), 5u);  // header, three entries, final newline
  EXPECT_EQ(lines[1],
            R"({"ab":{"accumulator":20643.2,"adder_tree":201516.79999999996,)"
            R"("compute":167936,"fusion":2993.2000000000003,)"
            R"("input_buffer":6758.4,"sram":144179.2},"c":1949231032,)"
            R"("eb":{"accumulator":28752,"adder_tree":299260.80000000005,)"
            R"("compute":217088,"fusion":4426.8,"input_buffer":9830.4,)"
            R"("sram":0},"g":[32768,0,0,68160,4124,33240,1504,65536],)"
            R"("k":[0,0,8,0,0,32,128,16,8,false,false],)"
            R"("m":[544026.7999999999,258.3,559358.0000000001,)"
            R"(64195.16239999999,0.06419516239999998,5.166,)"
            R"(0.1935733643050716,53139.01000000001,0.010286296941540846,)"
            R"(0.05313901000000001,0.1982191250483933,19.270212222621378,)"
            R"(3.087757981096616,1]})");
  EXPECT_EQ(lines[2],
            R"({"ab":{"accumulator":41286.4,"adder_tree":24556.800000000003,)"
            R"("compute":100966.40000000001,"fusion":6516.599999999999,)"
            R"("input_buffer":1443.1999999999998,"int_to_fp":10360.2,)"
            R"("pre_alignment":4877.1,"sram":99123.20000000001},)"
            R"("c":4204196477,"eb":{"accumulator":57504,)"
            R"("adder_tree":36729.6,"compute":136192,"fusion":3212.4,)"
            R"("input_buffer":947.1999999999999,"int_to_fp":4745.8,)"
            R"("pre_alignment":2253.5,"sram":0},)"
            R"("g":[4096,168,0,63971,1121,5726,1136,45056],)"
            R"("k":[1,1,0,5,10,64,16,44,4,false,false],)"
            R"("m":[289129.9,352.99999999999994,241584.5,34117.3282,)"
            R"(0.034117328200000005,7.059999999999999,0.14164305949008502,)"
            R"(22950.5275,0.003250782932011332,0.0688515825,)"
            R"(0.008790454116233155,2.704103688274967,0.2576536493333365,)"
            R"(3]})");
  EXPECT_EQ(lines[3],
            R"({"ab":{"accumulator":256793.60000000003,)"
            R"("adder_tree":92889.59999999999,"compute":228147.2,)"
            R"("fusion":26038.200000000004,"input_buffer":3097.5999999999995,)"
            R"("int_to_fp":39898.200000000004,)"
            R"("pre_alignment":21064.600000000002,)"
            R"("sram":216268.80000000002},"c":2376966287,)"
            R"("eb":{"accumulator":354624,"adder_tree":137971.2,)"
            R"("compute":305152,"fusion":12816.6,"input_buffer":1996.8,)"
            R"("int_to_fp":18204.4,"pre_alignment":9630.9,"sram":0},)"
            R"("g":[16384,330,0,220052,2223,23027,3968,98304],)"
            R"("k":[1,1,0,8,23,128,16,48,8,false,false],)"
            R"("m":[884197.7999999998,743.6999999999998,840395.9,)"
            R"(104335.34039999997,0.10433534039999996,14.873999999999997,)"
            R"(0.06723141051499262,79837.61050000001,0.005367595166061586,)"
            R"(0.23951283150000002,0.0038247202426306905,)"
            R"(0.7125575093318816,0.036657955281187656,3]})");
  EXPECT_TRUE(lines[4].empty());
}

TEST(CostCacheTest, LoadMergesWithExistingEntries) {
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("merge.memo.jsonl");
  std::filesystem::remove(path);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 4u);
  const std::size_t half = all.size() / 2;

  // File holds the first half (plus overlap point 0)...
  CostCache writer(tech);
  for (std::size_t i = 0; i <= half; ++i) writer.evaluate(all[i]);
  ASSERT_TRUE(writer.save(path));

  // ...the reader already knows the second half; after the merge it knows
  // everything, stats untouched by the load.
  CountingCostModel model(tech);
  CostCache reader(model);
  for (std::size_t i = half; i < all.size(); ++i) reader.evaluate(all[i]);
  const std::uint64_t misses_before = reader.misses();
  ASSERT_TRUE(reader.load(path));
  EXPECT_EQ(reader.size(), all.size());
  EXPECT_EQ(reader.misses(), misses_before);
  const std::uint64_t evals_before = model.evaluations();
  for (const auto& dp : all) {
    expect_same_metrics(reader.evaluate(dp), evaluate_macro(tech, dp));
  }
  EXPECT_EQ(model.evaluations(), evals_before);
}

TEST(CostCacheTest, LoadRejectsFingerprintMismatch) {
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("mismatch.memo.jsonl");
  std::filesystem::remove(path);
  CostCache writer(tech);
  writer.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(writer.save(path));

  // Different conditions.
  EvalConditions low_voltage;
  low_voltage.supply_v = 0.6;
  CostCache wrong_cond(tech, low_voltage);
  std::string error;
  EXPECT_FALSE(wrong_cond.load(path, &error));
  EXPECT_NE(error.find("different cost model, technology"), std::string::npos);
  EXPECT_EQ(wrong_cond.size(), 0u);

  // Different technology.
  const Technology other = Technology::generic40();
  CostCache wrong_tech(other);
  EXPECT_FALSE(wrong_tech.load(path, &error));

  // Different model version (tampered header).
  std::string text = read_file(path);
  const std::string needle = "\"model_version\":1";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"model_version\":999");
  const std::string tampered = temp_path("tampered.memo.jsonl");
  write_file(tampered, text);
  CostCache same_config(tech);
  EXPECT_FALSE(same_config.load(tampered, &error));
}

TEST(CostCacheTest, LoadRejectsMemoFromADifferentBackend) {
  // An analytic memo and an RTL-measured memo store different quantities
  // under the same keys; the "model" fingerprint field must keep them
  // apart in both directions.
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = int8_point(32, 4, 1, 8);  // tiny: fast to elaborate

  const std::string analytic_path = temp_path("analytic.memo.jsonl");
  CostCache analytic_writer(tech);
  analytic_writer.evaluate(dp);
  ASSERT_TRUE(analytic_writer.save(analytic_path));

  const std::string rtl_path = temp_path("rtl.memo.jsonl");
  const RtlCostModel rtl_model(tech);
  CostCache rtl_writer(rtl_model);
  rtl_writer.evaluate(dp);
  ASSERT_TRUE(rtl_writer.save(rtl_path));

  std::string error;
  CostCache rtl_reader(make_cost_model(CostModelKind::kRtl, tech));
  EXPECT_FALSE(rtl_reader.load(analytic_path, &error));
  EXPECT_NE(error.find("different cost model"), std::string::npos);
  CostCache analytic_reader(tech);
  EXPECT_FALSE(analytic_reader.load(rtl_path, &error));
  EXPECT_NE(error.find("different cost model"), std::string::npos);
  // The right backend accepts its own memo.
  CostCache rtl_ok(make_cost_model(CostModelKind::kRtl, tech));
  ASSERT_TRUE(rtl_ok.load(rtl_path, &error)) << error;
  EXPECT_EQ(rtl_ok.size(), 1u);
}

TEST(CostCacheTest, InPlaceValueCorruptionIsDetectedByLineChecksum) {
  // A flipped digit inside a metric keeps the line parseable JSON with a
  // plausible value — exactly the corruption structural validation cannot
  // see.  The per-line checksum must reject it: the entry is dropped and
  // the point re-evaluated, never served wrong.
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("bitrot.memo.jsonl");
  const DesignPoint dp = int8_point(32, 128, 16, 8);
  CostCache writer(tech);
  const MacroMetrics truth = writer.evaluate(dp);
  ASSERT_TRUE(writer.save(path));

  std::string text = read_file(path);
  // Alter the first digit of the "m" metrics array on the entry line.
  const auto m_pos = text.find("\"m\":[");
  ASSERT_NE(m_pos, std::string::npos);
  const auto digit = m_pos + 5;
  text[digit] = text[digit] == '9' ? '8' : '9';
  const std::string corrupt = temp_path("bitrot.corrupt.memo.jsonl");
  write_file(corrupt, text);

  CountingCostModel model(tech);
  CostCache reader(model);
  std::string error;
  ASSERT_TRUE(reader.load(corrupt, &error)) << error;  // load itself is fine
  EXPECT_EQ(reader.size(), 0u);  // ...but the damaged entry was dropped
  expect_same_metrics(reader.evaluate(dp), truth);  // re-evaluated, not lied
  EXPECT_EQ(model.evaluations(), 1u);
}

TEST(CostCacheTest, SeededRandomMutationsNeverCrashOrServeWrongMetrics) {
  // Adversarial persistence: replay dozens of seeded random byte-level
  // corruptions (truncation, deletion, duplication, overwrite, bit flip,
  // line splits) of a valid memo.  Every mutation must yield either a hard
  // error with a message (header damage) or a clean load whose every
  // served metric is bit-equal to the truth (damaged entries dropped and
  // re-evaluated) — never a crash, never a silently wrong metric.
  const Technology tech = Technology::tsmc28();
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 4u);
  CostCache writer(tech);
  std::vector<MacroMetrics> truth(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    truth[i] = writer.evaluate(all[i]);
  }
  const std::string path = temp_path("adversarial.memo.jsonl");
  ASSERT_TRUE(writer.save(path));
  const std::string pristine = read_file(path);

  Rng rng(2026);
  const std::string mutated_path = temp_path("adversarial.mut.memo.jsonl");
  int clean_loads = 0;
  int hard_errors = 0;
  const auto header_end = pristine.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  for (int trial = 0; trial < 60; ++trial) {
    // 1-3 stacked mutations per trial; every fourth trial aims at the
    // header line (uniform positions rarely hit it in a big memo, and the
    // header is where corruption must become a *hard* error).
    std::string mutated;
    if (trial % 4 == 0) {
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

    CountingCostModel model(tech);
    CostCache reader(model);
    std::string error;
    if (!reader.load(mutated_path, &error)) {
      EXPECT_FALSE(error.empty()) << "trial " << trial;
      ++hard_errors;
      continue;
    }
    ++clean_loads;
    for (std::size_t i = 0; i < all.size(); ++i) {
      expect_same_metrics(reader.evaluate(all[i]), truth[i]);
    }
  }
  // The operator mix must actually exercise both outcomes.
  EXPECT_GT(clean_loads, 0);
  EXPECT_GT(hard_errors, 0);
}

TEST(CostCacheTest, LoadToleratesTruncatedEntryLines) {
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("full.memo.jsonl");
  std::filesystem::remove(path);
  const DesignSpace space(1 << 13, precision_int8());
  const auto all = space.enumerate_all();
  ASSERT_GT(all.size(), 2u);
  CostCache writer(tech);
  for (const auto& dp : all) writer.evaluate(dp);
  ASSERT_TRUE(writer.save(path));

  // Chop the file mid-way through its final line — the signature of
  // external truncation.  Every complete line must still load.
  std::string text = read_file(path);
  ASSERT_EQ(text.back(), '\n');
  text.resize(text.size() - 20);
  const std::string truncated = temp_path("truncated.memo.jsonl");
  write_file(truncated, text);

  CostCache reader(tech);
  std::string error;
  ASSERT_TRUE(reader.load(truncated, &error)) << error;
  EXPECT_EQ(reader.size(), all.size() - 1);

  // Garbage header, or no header at all, is an error (compatibility can't
  // be verified).
  const std::string garbage = temp_path("garbage.memo.jsonl");
  write_file(garbage, "{\"not_a_memo\":true}\n");
  EXPECT_FALSE(reader.load(garbage, &error));
  write_file(garbage, "");
  EXPECT_FALSE(reader.load(garbage, &error));
  EXPECT_FALSE(reader.load(temp_path("does_not_exist.memo.jsonl"), &error));
}

TEST(CostCacheTest, SaveIsAtomicViaTempFileRename) {
  const Technology tech = Technology::tsmc28();
  const std::string path = temp_path("atomic.memo.jsonl");
  // Per-process temp name (concurrent savers of a shared file must not
  // interleave into one temp).
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove(path);

  // A stale temp file from a crashed writer must not break a fresh save.
  write_file(path + ".tmp.99999", "partial garbage from a crashed writer");
  write_file(tmp, "partial garbage from an earlier crash of this pid");
  CostCache writer(tech);
  writer.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(writer.save(path));
  // Our temp file was renamed into place: the final file is complete and
  // loadable, and this process's temp file is gone.
  EXPECT_FALSE(std::filesystem::exists(tmp));
  CostCache reader(tech);
  ASSERT_TRUE(reader.load(path));
  EXPECT_EQ(reader.size(), 1u);

  // An unwritable destination reports failure instead of clobbering.
  CostCache other(tech);
  other.evaluate(int8_point(32, 128, 16, 8));
  std::string error;
  EXPECT_FALSE(other.save("/no_such_dir_sega/cache.memo.jsonl", &error));
  EXPECT_FALSE(error.empty());
}

TEST(CostCacheTest, LoadShardsMergesPerWorkerMemoFiles) {
  const Technology tech = Technology::tsmc28();
  const std::string base = temp_path("sharded.memo.jsonl");
  for (int i = 0; i < 4; ++i) {
    std::filesystem::remove(shard_file_path(base, i, 4));
  }

  // Two workers of a 4-way set persisted disjoint entries; workers 1 and 3
  // never evaluated anything and wrote nothing.
  CostCache worker0(tech);
  worker0.evaluate(int8_point(32, 128, 16, 8));
  worker0.evaluate(int8_point(32, 128, 16, 4));
  ASSERT_TRUE(worker0.save(shard_file_path(base, 0, 4)));
  CostCache worker2(tech);
  worker2.evaluate(int8_point(16, 256, 16, 8));
  ASSERT_TRUE(worker2.save(shard_file_path(base, 2, 4)));

  CostCache merged(tech);
  std::string error;
  int files = 0;
  ASSERT_TRUE(merged.load_shards(base, 4, &error, &files)) << error;
  EXPECT_EQ(files, 2);
  EXPECT_EQ(merged.size(), 3u);
  // Merged entries replay bit-exactly; loads are neither hits nor misses.
  expect_same_metrics(merged.evaluate(int8_point(16, 256, 16, 8)),
                      evaluate_macro(tech, int8_point(16, 256, 16, 8)));
  EXPECT_EQ(merged.misses(), 0u);

  // A shard written under a different fingerprint poisons the whole merge —
  // hard error, same contract as load().
  EvalConditions other_cond;
  other_cond.input_sparsity = 0.5;
  CostCache stale(tech, other_cond);
  stale.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(stale.save(shard_file_path(base, 1, 4)));
  CostCache strict(tech);
  EXPECT_FALSE(strict.load_shards(base, 4, &error));
  EXPECT_FALSE(error.empty());

  // No shard files at all: success, zero files merged.
  CostCache empty_ok(tech);
  ASSERT_TRUE(empty_ok.load_shards(temp_path("no_shards.memo.jsonl"), 4,
                                   &error, &files));
  EXPECT_EQ(files, 0);
  EXPECT_EQ(empty_ok.size(), 0u);
}

TEST(CostCacheTest, SaveDeltaOmitsEntriesImportedFromABaseMemo) {
  const Technology tech = Technology::tsmc28();
  const std::string base = temp_path("delta.base.memo.jsonl");
  const std::string shard = temp_path("delta.shard.memo.jsonl");

  CostCache origin(tech);
  origin.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(origin.save(base));

  // A worker seeds from the base (imported), computes one new point, and
  // reloads its own prior shard (not imported): the delta is exactly its
  // own contribution, never a copy of the base.
  CostCache worker(tech);
  std::string error;
  ASSERT_TRUE(worker.load(base, &error, /*mark_imported=*/true)) << error;
  worker.evaluate(int8_point(32, 128, 16, 4));
  ASSERT_TRUE(worker.save_delta(shard, &error)) << error;

  CostCache reader(tech);
  ASSERT_TRUE(reader.load(shard, &error)) << error;
  EXPECT_EQ(reader.size(), 1u);  // only the new point, not the base entry

  // A resumed worker keeps its own-shard entries in the delta even though
  // the base is loaded too — rewriting its shard must not lose them.  (An
  // entry present in BOTH files is deduped into the base: the base loads
  // first, wins, and stays imported.)
  CostCache resumed(tech);
  ASSERT_TRUE(resumed.load(base, &error, /*mark_imported=*/true)) << error;
  ASSERT_TRUE(resumed.load(shard, &error)) << error;
  ASSERT_TRUE(resumed.save_delta(shard, &error)) << error;
  CostCache reread(tech);
  ASSERT_TRUE(reread.load(shard, &error)) << error;
  EXPECT_EQ(reread.size(), 1u);

  // A full save() still writes everything regardless of provenance.
  const std::string full = temp_path("delta.full.memo.jsonl");
  ASSERT_TRUE(resumed.save(full, &error)) << error;
  CostCache all(tech);
  ASSERT_TRUE(all.load(full, &error)) << error;
  EXPECT_EQ(all.size(), 2u);
}

// --- memo-compact (streamed multi-file merge) --------------------------------

TEST(CostCacheCompactTest, ByteIdenticalToLoadAllThenSave) {
  const Technology tech = Technology::tsmc28();
  const std::string base = temp_path("compact.base.memo.jsonl");
  const std::string s0 = temp_path("compact.s0.memo.jsonl");
  const std::string s1 = temp_path("compact.s1.memo.jsonl");

  // Overlapping sources: the base and shard 0 both hold point A.
  CostCache cbase(tech);
  cbase.evaluate(int8_point(32, 128, 16, 8));
  cbase.evaluate(int8_point(32, 128, 16, 4));
  ASSERT_TRUE(cbase.save(base));
  CostCache c0(tech);
  c0.evaluate(int8_point(32, 128, 16, 8));  // duplicate of a base entry
  c0.evaluate(int8_point(16, 256, 16, 8));
  ASSERT_TRUE(c0.save(s0));
  CostCache c1(tech);
  c1.evaluate(int8_point(16, 128, 32, 4));
  ASSERT_TRUE(c1.save(s1));

  const std::string out = temp_path("compact.out.memo.jsonl");
  std::string error;
  CostCache::CompactStats stats;
  ASSERT_TRUE(
      CostCache::compact_memo_files({base, s0, s1}, out, &error, &stats))
      << error;
  EXPECT_EQ(stats.files_merged, 3);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.corrupt_lines, 0u);

  // Reference: load everything into one cache, save it.  The streamed
  // compactor must reproduce those bytes exactly.
  CostCache all(tech);
  ASSERT_TRUE(all.load(base, &error)) << error;
  ASSERT_TRUE(all.load(s0, &error)) << error;
  ASSERT_TRUE(all.load(s1, &error)) << error;
  const std::string ref = temp_path("compact.ref.memo.jsonl");
  ASSERT_TRUE(all.save(ref));
  EXPECT_EQ(read_file(out), read_file(ref));

  // Compacting onto one of its own inputs (the CLI's in-place default)
  // works: the temp-file write never reads and writes the same handle.
  ASSERT_TRUE(CostCache::compact_memo_files({base, s0, s1}, base, &error))
      << error;
  EXPECT_EQ(read_file(base), read_file(ref));
}

TEST(CostCacheCompactTest, MissingSourcesSkippedButNotAll) {
  const Technology tech = Technology::tsmc28();
  const std::string base = temp_path("compact.miss.memo.jsonl");
  CostCache cbase(tech);
  cbase.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(cbase.save(base));

  const std::string out = temp_path("compact.miss.out.jsonl");
  std::string error;
  CostCache::CompactStats stats;
  ASSERT_TRUE(CostCache::compact_memo_files(
      {base, temp_path("compact.nope.0"), temp_path("compact.nope.1")}, out,
      &error, &stats))
      << error;
  EXPECT_EQ(stats.files_merged, 1);
  // A single source compacts to itself, byte for byte.
  EXPECT_EQ(read_file(out), read_file(base));

  // Zero existing sources is an error, not an empty output.
  CostCache::CompactStats none;
  EXPECT_FALSE(CostCache::compact_memo_files(
      {temp_path("compact.nope.2")}, out, &error, &none));
  EXPECT_FALSE(error.empty());
}

TEST(CostCacheCompactTest, HeaderFingerprintMismatchIsAnError) {
  const Technology tech = Technology::tsmc28();
  const std::string a = temp_path("compact.cond_a.memo.jsonl");
  const std::string b = temp_path("compact.cond_b.memo.jsonl");
  CostCache ca(tech);
  ca.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(ca.save(a));
  EvalConditions other;
  other.input_sparsity = 0.5;
  CostCache cb(tech, other);
  cb.evaluate(int8_point(32, 128, 16, 8));
  ASSERT_TRUE(cb.save(b));

  std::string error;
  EXPECT_FALSE(CostCache::compact_memo_files(
      {a, b}, temp_path("compact.mismatch.out"), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(b), std::string::npos) << error;
}

TEST(CostCacheCompactTest, CorruptLinesSkippedAndCounted) {
  const Technology tech = Technology::tsmc28();
  const std::string clean = temp_path("compact.clean.memo.jsonl");
  CostCache cache(tech);
  cache.evaluate(int8_point(32, 128, 16, 8));
  cache.evaluate(int8_point(16, 256, 16, 8));
  ASSERT_TRUE(cache.save(clean));

  // A copy with a garbage line and a checksum-broken entry interleaved.
  const std::string dirty = temp_path("compact.dirty.memo.jsonl");
  {
    const std::string text = read_file(clean);
    const std::size_t first_nl = text.find('\n');
    const std::size_t second_nl = text.find('\n', first_nl + 1);
    std::string broken = text.substr(first_nl + 1, second_nl - first_nl);
    const std::size_t digit = broken.find_last_of("0123456789");
    broken[digit] = broken[digit] == '9' ? '8' : '9';  // breaks the checksum
    write_file(dirty, text.substr(0, first_nl + 1) + "not json\n" + broken +
                          text.substr(first_nl + 1));
  }
  const std::string out = temp_path("compact.dirty.out.jsonl");
  std::string error;
  CostCache::CompactStats stats;
  ASSERT_TRUE(CostCache::compact_memo_files({dirty}, out, &error, &stats))
      << error;
  EXPECT_EQ(stats.corrupt_lines, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(read_file(out), read_file(clean));
}

TEST(CostCacheTest, ClearResetsTableAndCounters) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  cache.evaluate(int8_point(32, 128, 16, 8));
  cache.evaluate(int8_point(32, 128, 16, 8));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  cache.evaluate(int8_point(32, 128, 16, 8));
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace sega
