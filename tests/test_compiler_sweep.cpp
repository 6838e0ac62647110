#include "compiler/sweep.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "test_support.h"
#include "util/strings.h"

namespace sega {
namespace {

SweepSpec small_sweep() {
  SweepSpec spec;
  spec.wstores = {4096, 8192};
  spec.precisions = {precision_int8(), precision_bf16()};
  spec.dse.population = 24;
  spec.dse.generations = 12;
  spec.dse.seed = 2;
  return spec;
}

TEST(SweepTest, CoversFullGrid) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult result = run_sweep(compiler, small_sweep());
  EXPECT_EQ(result.cells.size(), 4u);
  for (const auto& cell : result.cells) {
    EXPECT_GT(cell.front_size, 0u);
    EXPECT_GT(cell.evaluations, 0);
    EXPECT_EQ(cell.knee.point.wstore(), cell.wstore);
    EXPECT_TRUE(cell.knee.point.precision == cell.precision);
  }
}

TEST(SweepTest, JsonExportMatchesCells) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult result = run_sweep(compiler, small_sweep());
  const Json j = result.to_json();
  ASSERT_EQ(j.size(), result.cells.size());
  EXPECT_EQ(j.at(0).at("precision").as_string(),
            result.cells[0].precision.name);
  EXPECT_EQ(j.at(0).at("wstore").as_int(), result.cells[0].wstore);
  // Round-trips as text.
  const auto back = Json::parse(j.dump(2));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == j);
}

TEST(SweepTest, CsvHasHeaderAndOneRowPerCell) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult result = run_sweep(compiler, small_sweep());
  const std::string csv = result.to_csv();
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, result.cells.size() + 1);
  EXPECT_EQ(csv.rfind("wstore,precision,", 0), 0u);
  // Every row has the full column count.
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    const std::string row = csv.substr(pos, end - pos);
    std::size_t commas = 0;
    for (const char c : row) {
      if (c == ',') ++commas;
    }
    EXPECT_EQ(commas, 13u) << row;
    pos = end + 1;
  }
}

TEST(SweepTest, DeterministicForSeed) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult a = run_sweep(compiler, small_sweep());
  const SweepResult b = run_sweep(compiler, small_sweep());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(SweepTest, SkipsEmptyCellsGracefully) {
  SweepSpec spec = small_sweep();
  // A Wstore too small for any valid BF16 geometry under tight limits.
  spec.wstores = {4096};
  spec.limits.max_h = 2;
  spec.limits.max_l = 1;
  const Compiler compiler(Technology::tsmc28());
  const SweepResult result = run_sweep(compiler, spec);
  // Either empty or partially filled — but never crashes and never lies.
  for (const auto& cell : result.cells) {
    EXPECT_GT(cell.front_size, 0u);
  }
}

// --- parallel engine & checkpoint/resume -----------------------------------

class SweepCheckpointTest : public ::testing::Test {
 protected:
  std::string ckpt(const char* name) const { return dir_.file(name); }

  static std::vector<std::string> lines_of(const std::string& path) {
    return test::read_jsonl_lines(path);
  }

  test::ScopedTempDir dir_{"sega_sweep_test"};
};

TEST(SweepTest, ByteIdenticalAcrossThreadCounts) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec serial = small_sweep();
  serial.dse.threads = 1;
  const SweepResult a = run_sweep(compiler, serial);
  for (const int threads : {2, 8}) {
    SweepSpec parallel = small_sweep();
    parallel.dse.threads = threads;
    const SweepResult b = run_sweep(compiler, parallel);
    EXPECT_EQ(a.to_csv(), b.to_csv()) << threads << " threads";
    EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2)) << threads
                                                        << " threads";
  }
}

TEST(SweepTest, MultiPrecisionExplorerMatchesAcrossThreadCounts) {
  // The sweep's sibling entry point shares the same contract: fronts are
  // byte-identical whether the per-precision runs are serial or pooled.
  const Technology tech = Technology::tsmc28();
  Nsga2Options opt;
  opt.population = 24;
  opt.generations = 12;
  opt.seed = 6;
  opt.threads = 1;
  const auto serial = explore_multi_precision(
      8192, {precision_int4(), precision_int8(), precision_bf16()}, tech, {},
      opt);
  opt.threads = 8;
  const auto parallel = explore_multi_precision(
      8192, {precision_int4(), precision_int8(), precision_bf16()}, tech, {},
      opt);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].point == parallel[i].point);
    EXPECT_EQ(serial[i].objectives(), parallel[i].objectives());
  }
}

TEST_F(SweepCheckpointTest, CheckpointedRunMatchesPlainRun) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult plain = run_sweep(compiler, small_sweep());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("full.jsonl");
  std::string error;
  const SweepResult checkpointed = run_sweep(compiler, spec, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(plain.to_csv(), checkpointed.to_csv());
  // Header + one line per grid cell.
  EXPECT_EQ(lines_of(spec.checkpoint).size(), 1u + 4u);
}

TEST_F(SweepCheckpointTest, ResumeAfterKillCompletesAndMatches) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("killed.jsonl");
  std::string error;
  const SweepResult full = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const auto all_lines = lines_of(spec.checkpoint);
  ASSERT_EQ(all_lines.size(), 5u);

  // Simulate a run killed after k completed cells (plus a partial line the
  // writer was mid-append on) for every k, then resume.
  for (std::size_t k = 0; k <= 4; ++k) {
    const std::string partial = ckpt("partial.jsonl");
    {
      std::ofstream f(partial, std::ios::trunc);
      for (std::size_t i = 0; i <= k; ++i) f << all_lines[i] << "\n";
      f << R"({"cell":{"evaluations":12,"front_si)";  // torn final write
    }
    SweepSpec resume = small_sweep();
    resume.checkpoint = partial;
    std::string resume_error;
    const SweepResult resumed = run_sweep(compiler, resume, &resume_error);
    EXPECT_TRUE(resume_error.empty()) << resume_error;
    EXPECT_EQ(full.to_csv(), resumed.to_csv()) << "killed after " << k;
    EXPECT_EQ(full.to_json().dump(2), resumed.to_json().dump(2))
        << "killed after " << k;
    // The resumed file covers the whole grid again: the torn line is dead
    // weight, every missing cell was recomputed and appended.
    EXPECT_GE(lines_of(partial).size(), 1u + 4u) << "killed after " << k;
  }
}

TEST_F(SweepCheckpointTest, ResumeSkipsCompletedCells) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("skip.jsonl");
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const auto before = lines_of(spec.checkpoint);
  // A second run over a complete checkpoint recomputes nothing.
  const SweepResult again = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(lines_of(spec.checkpoint), before);
  EXPECT_EQ(again.cells.size(), 4u);
}

TEST_F(SweepCheckpointTest, MismatchedConfigIsAnError) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("mismatch.jsonl");
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  SweepSpec other = small_sweep();
  other.dse.seed = spec.dse.seed + 1;  // any result-affecting change
  other.checkpoint = spec.checkpoint;
  const SweepResult result = run_sweep(compiler, other, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(result.cells.empty());
}

TEST_F(SweepCheckpointTest, DifferentTechnologyIsAnError) {
  // The fingerprint covers the full techlib: knee points chosen under one
  // technology must never be recovered into a sweep under another.
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("tech.jsonl");
  std::string error;
  run_sweep(Compiler(Technology::tsmc28()), spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const SweepResult result =
      run_sweep(Compiler(Technology::generic40()), spec, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(result.cells.empty());
}

TEST_F(SweepCheckpointTest, CorruptCellFieldsAreRecomputedNotTrusted) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("corrupt.jsonl");
  std::string error;
  const SweepResult full = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  // Tamper with every cell line: negative front_size, wrong-typed wstore,
  // and an out-of-space knee must all be recomputed, never emitted.
  const auto lines = lines_of(spec.checkpoint);
  ASSERT_EQ(lines.size(), 5u);
  {
    std::ofstream f(spec.checkpoint, std::ios::trunc);
    f << lines[0] << "\n";
    f << R"({"cell":{"wstore":4096,"precision":"INT8","front_size":-3,)"
      << R"("evaluations":10,"knee":{}}})" << "\n";
    f << R"({"cell":{"wstore":"4096","precision":"BF16","front_size":5}})"
      << "\n";
    f << R"({"cell":{"wstore":8192,"precision":"INT8","front_size":5,)"
      << R"("evaluations":10,"knee":{"arch":"MUL-CIM","n":1,"h":1,"l":1,)"
      << R"("k":1,"signed_weights":false,"pipelined_tree":false}}})" << "\n";
  }
  const SweepResult resumed = run_sweep(compiler, spec, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(full.to_csv(), resumed.to_csv());
}

TEST_F(SweepCheckpointTest, InPlaceKneeCorruptionIsRecomputedNotTrusted) {
  // Flip one digit inside a knee coordinate such that the line is still
  // valid JSON describing a *different* (possibly valid) design point.
  // Structural validation alone could accept it; the line checksum must
  // reject it and the cell must be recomputed — a checkpoint can steer
  // work, never falsify a result.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("bitrot.jsonl");
  std::string error;
  const SweepResult full = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;

  auto lines = lines_of(spec.checkpoint);
  ASSERT_EQ(lines.size(), 5u);
  // Find a knee "n" value on a cell line and alter its leading digit.
  bool tampered = false;
  for (std::size_t i = 1; i < lines.size() && !tampered; ++i) {
    const auto pos = lines[i].find("\"n\":");
    if (pos == std::string::npos) continue;
    char& digit = lines[i][pos + 4];
    digit = digit == '1' ? '2' : '1';
    tampered = true;
  }
  ASSERT_TRUE(tampered);
  {
    std::ofstream f(spec.checkpoint, std::ios::trunc);
    for (const auto& line : lines) f << line << "\n";
  }
  const SweepResult resumed = run_sweep(compiler, spec, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(full.to_csv(), resumed.to_csv());
  EXPECT_EQ(full.to_json().dump(2), resumed.to_json().dump(2));
}

TEST_F(SweepCheckpointTest, SeededRandomMutationsResumeCleanlyOrHardError) {
  // Adversarial resume: replay seeded random byte-level corruptions of a
  // complete checkpoint.  Every mutation must end in exactly one of two
  // states: a hard error with a message (header damage — the file can no
  // longer vouch for its configuration), or a clean resume whose output is
  // byte-identical to the pristine run (damaged cells recomputed).  Never
  // a crash, never a silently different result.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.wstores = {4096};  // small grid: each trial may recompute cells
  spec.dse.population = 16;
  spec.dse.generations = 6;
  spec.checkpoint = ckpt("adversarial.jsonl");
  std::string error;
  const SweepResult reference = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string pristine = test::read_file(spec.checkpoint);
  const auto header_end = pristine.find('\n');
  ASSERT_NE(header_end, std::string::npos);

  Rng rng(77);
  int clean = 0;
  int hard = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::string mutated;
    if (trial % 4 == 0) {
      // Aim at the header: corruption there must be a hard error (or, for
      // a truncation-to-empty, a fresh run) — never adopted silently.
      mutated = test::random_mutation(pristine.substr(0, header_end), rng) +
                pristine.substr(header_end);
    } else {
      mutated = test::random_mutation(pristine, rng);
    }
    test::write_file(spec.checkpoint, mutated);

    std::string resume_error;
    const SweepResult resumed = run_sweep(compiler, spec, &resume_error);
    if (!resume_error.empty()) {
      EXPECT_TRUE(resumed.cells.empty()) << "trial " << trial;
      ++hard;
      continue;
    }
    ++clean;
    EXPECT_EQ(reference.to_csv(), resumed.to_csv()) << "trial " << trial;
    EXPECT_EQ(reference.to_json().dump(2), resumed.to_json().dump(2))
        << "trial " << trial;
  }
  EXPECT_GT(clean, 0);
  EXPECT_GT(hard, 0);
}

TEST_F(SweepCheckpointTest, EmptyCheckpointFileIsTreatedAsFresh) {
  // A run killed before the header flush leaves a zero-byte file; that must
  // resume as a fresh sweep, not dead-end as "malformed header".
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("empty.jsonl");
  { std::ofstream f(spec.checkpoint); }  // 0 bytes
  std::string error;
  const SweepResult result = run_sweep(compiler, spec, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(lines_of(spec.checkpoint).size(), 1u + 4u);
}

TEST_F(SweepCheckpointTest, MalformedHeaderIsAnError) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("garbage.jsonl");
  {
    std::ofstream f(spec.checkpoint);
    f << "this is not a checkpoint\n";
  }
  std::string error;
  const SweepResult result = run_sweep(compiler, spec, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(result.cells.empty());
}

TEST(SweepSpecJsonTest, RoundTripsAndRejectsUnknownKeys) {
  const auto parsed = SweepSpec::from_json(*Json::parse(
      R"({"wstores": [4096, 8192], "precisions": ["INT8", "BF16"],
          "sparsity": 0.1, "seed": 7, "threads": 2, "population": 24,
          "generations": 12, "checkpoint": "ck.jsonl"})"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->wstores, (std::vector<std::int64_t>{4096, 8192}));
  ASSERT_EQ(parsed->precisions.size(), 2u);
  EXPECT_EQ(parsed->precisions[1].name, "BF16");
  EXPECT_DOUBLE_EQ(parsed->eval.conditions.input_sparsity, 0.1);
  EXPECT_EQ(parsed->dse.seed, 7u);
  EXPECT_EQ(parsed->dse.threads, 2);
  EXPECT_EQ(parsed->checkpoint, "ck.jsonl");

  // to_json -> from_json round trip.
  const auto back = SweepSpec::from_json(parsed->to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_json().dump(), parsed->to_json().dump());

  std::string error;
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"wstoers": [1]})"),
                                    &error)
                   .has_value());
  EXPECT_NE(error.find("wstoers"), std::string::npos);
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"precisions": []})"))
                   .has_value());
  EXPECT_FALSE(
      SweepSpec::from_json(*Json::parse(R"({"precisions": ["INT3"]})"))
          .has_value());
  // Explorer preconditions surface as parse errors, not aborts.
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"population": 2})"))
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"generations": 0})"))
                   .has_value());
  // Wrong-typed scalars are parse errors too, never precondition aborts.
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"seed": "42"})"))
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"supply_v": true})"))
                   .has_value());
  // GA probabilities and the N/Bw floor are spec'able and validated.
  const auto ga = SweepSpec::from_json(*Json::parse(
      R"({"crossover_prob": 0.8, "mutation_prob": 0.2, "min_n_over_bw": 2})"));
  ASSERT_TRUE(ga.has_value());
  EXPECT_DOUBLE_EQ(ga->dse.crossover_prob, 0.8);
  EXPECT_DOUBLE_EQ(ga->dse.mutation_prob, 0.2);
  EXPECT_EQ(ga->limits.min_n_over_bw, 2);
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"mutation_prob": 1.5})"))
                   .has_value());
  // cache_file: string key, round-trips, wrong type is a parse error.
  const auto cached = SweepSpec::from_json(
      *Json::parse(R"({"cache_file": "cost.memo.jsonl"})"));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->cache_file, "cost.memo.jsonl");
  EXPECT_EQ(SweepSpec::from_json(cached->to_json())->cache_file,
            "cost.memo.jsonl");
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"cache_file": 3})"))
                   .has_value());
  // cost_model: selectable backend, round-trips, bad values are parse
  // errors (wrong type, unknown backend).
  EXPECT_EQ(SweepSpec{}.eval.backend, CostModelKind::kAnalytic);
  const auto rtl = SweepSpec::from_json(*Json::parse(R"({"cost_model": "rtl"})"));
  ASSERT_TRUE(rtl.has_value());
  EXPECT_EQ(rtl->eval.backend, CostModelKind::kRtl);
  EXPECT_EQ(SweepSpec::from_json(rtl->to_json())->eval.backend,
            CostModelKind::kRtl);
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"cost_model": 1})"))
                   .has_value());
  EXPECT_FALSE(
      SweepSpec::from_json(*Json::parse(R"({"cost_model": "spice"})"))
          .has_value());
}

TEST_F(SweepCheckpointTest, CostModelIsPartOfTheCheckpointFingerprint) {
  // An analytic checkpoint must never seed an RTL sweep: the backend
  // changes every metric, so it is config, and config mismatches are hard
  // errors.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("backend.jsonl");
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;

  SweepSpec rtl = spec;
  rtl.eval.backend = CostModelKind::kRtl;
  const SweepResult result = run_sweep(compiler, rtl, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("configuration"), std::string::npos);
  EXPECT_TRUE(result.cells.empty());
}

// --- layout-aware interconnect stage ----------------------------------------

TEST(SweepLayoutTest, LayoutOffIsByteIdenticalToDefaultSpec) {
  // `layout` defaults to off; a spec that never mentions it and a spec with
  // layout=false must produce byte-identical exports (the toggle-off path
  // is the pre-layout pipeline, bit for bit).
  const Compiler compiler(Technology::tsmc28());
  const SweepResult plain = run_sweep(compiler, small_sweep());
  SweepSpec off = small_sweep();
  off.eval.layout = false;
  const SweepResult result = run_sweep(compiler, off);
  EXPECT_EQ(plain.to_csv(), result.to_csv());
  EXPECT_EQ(plain.to_json().dump(2), result.to_json().dump(2));
}

TEST(SweepLayoutTest, LayoutOnChangesMetricsAndStaysThreadDeterministic) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec on = small_sweep();
  on.eval.layout = true;
  on.dse.threads = 1;
  const SweepResult serial = run_sweep(compiler, on);
  EXPECT_NE(serial.to_csv(), run_sweep(compiler, small_sweep()).to_csv());
  for (const int threads : {2, 8}) {
    SweepSpec parallel = on;
    parallel.dse.threads = threads;
    const SweepResult b = run_sweep(compiler, parallel);
    EXPECT_EQ(serial.to_csv(), b.to_csv()) << threads << " threads";
    EXPECT_EQ(serial.to_json().dump(2), b.to_json().dump(2))
        << threads << " threads";
  }
}

TEST_F(SweepCheckpointTest, LayoutIsPartOfTheCheckpointFingerprint) {
  // Layout-on and layout-off runs disagree on delay/energy for every cell,
  // so a checkpoint written under one toggle state must hard-error when
  // resumed under the other — in both directions.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec off = small_sweep();
  off.checkpoint = ckpt("layout_off.jsonl");
  std::string error;
  run_sweep(compiler, off, &error);
  ASSERT_TRUE(error.empty()) << error;

  SweepSpec on = off;
  on.eval.layout = true;
  SweepResult result = run_sweep(compiler, on, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("configuration"), std::string::npos);
  EXPECT_TRUE(result.cells.empty());

  on.checkpoint = ckpt("layout_on.jsonl");
  run_sweep(compiler, on, &error);
  ASSERT_TRUE(error.empty()) << error;
  SweepSpec off_again = on;
  off_again.eval.layout = false;
  result = run_sweep(compiler, off_again, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(result.cells.empty());
}

TEST(SweepLayoutSpecTest, LayoutKeyRoundTripsAndValidates) {
  const auto parsed = SweepSpec::from_json(*Json::parse(
      R"({"wstores": [4096], "precisions": ["INT8"], "layout": true})"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->eval.layout);
  const Json j = parsed->to_json();
  EXPECT_TRUE(j.contains("layout"));
  // Off stays omitted — the serialized spec of a layout-off sweep is
  // byte-identical to a pre-layout spec.
  SweepSpec off;
  off.wstores = {4096};
  off.precisions = {precision_int8()};
  EXPECT_FALSE(off.to_json().contains("layout"));
  // Type errors are rejected, not coerced.
  EXPECT_FALSE(SweepSpec::from_json(
                   *Json::parse(R"({"wstores": [4096], "layout": 1})"))
                   .has_value());
}

// --- sharded sweep + merge --------------------------------------------------

using SweepShardTest = SweepCheckpointTest;

TEST_F(SweepShardTest, ShardSpecJsonRoundTripsAndValidates) {
  const auto parsed = SweepSpec::from_json(*Json::parse(
      R"({"wstores": [4096], "precisions": ["INT8"],
          "shard_index": 1, "shard_count": 4})"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->shard.index, 1);
  EXPECT_EQ(parsed->shard.count, 4);
  EXPECT_TRUE(parsed->shard.active());
  const auto back = SweepSpec::from_json(parsed->to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->shard.index, 1);
  EXPECT_EQ(back->shard.count, 4);
  // An unsharded spec round-trips without shard keys.
  EXPECT_FALSE(SweepSpec{}.to_json().contains("shard_index"));

  // Validation: index within count (in either key order), count >= 1.
  std::string error;
  EXPECT_FALSE(SweepSpec::from_json(
                   *Json::parse(R"({"shard_index": 2, "shard_count": 2})"),
                   &error)
                   .has_value());
  EXPECT_NE(error.find("shard_index"), std::string::npos);
  EXPECT_FALSE(SweepSpec::from_json(
                   *Json::parse(R"({"shard_count": 2, "shard_index": 3})"))
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"shard_count": 0})"))
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_json(*Json::parse(R"({"shard_index": -1})"))
                   .has_value());
  // shard_index alone is fine only when it fits the default count of 1.
  EXPECT_TRUE(SweepSpec::from_json(*Json::parse(R"({"shard_index": 0})"))
                  .has_value());
}

TEST_F(SweepShardTest, ShardWorkerComputesExactlyItsCellsInGridOrder) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult full = run_sweep(compiler, small_sweep());
  ASSERT_EQ(full.cells.size(), 4u);
  for (const int count : {2, 3}) {
    std::vector<std::string> seen;
    for (int index = 0; index < count; ++index) {
      SweepSpec spec = small_sweep();
      spec.shard.index = index;
      spec.shard.count = count;
      std::string error;
      const SweepResult slice = run_sweep(compiler, spec, &error);
      ASSERT_TRUE(error.empty()) << error;
      // The worker's cells are exactly the grid cells with id % count ==
      // index, in ascending grid order, with results identical to the full
      // run's cells.
      std::size_t expect_gi = static_cast<std::size_t>(index);
      for (const auto& cell : slice.cells) {
        ASSERT_LT(expect_gi, full.cells.size());
        EXPECT_EQ(cell.wstore, full.cells[expect_gi].wstore);
        EXPECT_TRUE(cell.precision == full.cells[expect_gi].precision);
        EXPECT_EQ(cell.knee.point.to_string(),
                  full.cells[expect_gi].knee.point.to_string());
        seen.push_back(cell.precision.name +
                       std::to_string(cell.wstore));
        expect_gi += static_cast<std::size_t>(count);
      }
    }
    EXPECT_EQ(seen.size(), 4u) << count << " shards";
  }
}

TEST_F(SweepShardTest, MergedShardsAreByteIdenticalToUnshardedRun) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult baseline = run_sweep(compiler, small_sweep());
  for (const int count : {2, 4}) {
    SweepSpec spec = small_sweep();
    spec.checkpoint = ckpt(("merge" + std::to_string(count) + ".jsonl").c_str());
    spec.cache_file = ckpt(("merge" + std::to_string(count) + ".memo").c_str());
    for (int index = 0; index < count; ++index) {
      SweepSpec worker = spec;
      worker.shard.index = index;
      worker.shard.count = count;
      // Vary per-worker parallelism: the merged output must not care.
      worker.dse.threads = 1 + index % 2 * 7;
      std::string error;
      run_sweep(compiler, worker, &error);
      ASSERT_TRUE(error.empty()) << error;
    }
    std::string error;
    const SweepResult merged =
        merge_sweep_shards(compiler, spec, count, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(baseline.to_csv(), merged.to_csv()) << count << " shards";
    EXPECT_EQ(baseline.to_json().dump(2), merged.to_json().dump(2))
        << count << " shards";

    // The unified checkpoint is resumable by an unsharded sweep: nothing is
    // recomputed and the output still matches.
    SweepSpec resume = small_sweep();
    resume.checkpoint = spec.checkpoint;
    const auto before = lines_of(spec.checkpoint);
    const SweepResult resumed = run_sweep(compiler, resume, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(baseline.to_csv(), resumed.to_csv());
    EXPECT_EQ(lines_of(spec.checkpoint), before);

    // The unified memo replays the whole grid with zero evaluations.
    SweepSpec warm = small_sweep();
    warm.cache_file = spec.cache_file;
    const SweepResult warmed = run_sweep(compiler, warm, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(baseline.to_csv(), warmed.to_csv());
    EXPECT_EQ(warmed.cache_misses, 0u) << count << " shards";
  }
}

TEST_F(SweepShardTest, ShardResumesAfterKillInsideTheShard) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult baseline = run_sweep(compiler, small_sweep());

  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("killshard.jsonl");
  SweepSpec worker0 = spec;
  worker0.shard.index = 0;
  worker0.shard.count = 2;
  std::string error;
  run_sweep(compiler, worker0, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string shard0 = shard_file_path(spec.checkpoint, 0, 2);
  const auto lines = lines_of(shard0);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 owned cells

  // Kill simulation: keep the header and the first completed cell, plus a
  // torn tail from the in-flight append.
  {
    std::ofstream f(shard0, std::ios::trunc);
    f << lines[0] << "\n" << lines[1] << "\n";
    f << R"({"cell":{"wstore":4096,"precisi)";
  }
  const SweepResult resumed = run_sweep(compiler, worker0, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(resumed.cells.size(), 2u);

  // Complete the set and merge: byte-identical despite the mid-shard kill.
  SweepSpec worker1 = spec;
  worker1.shard.index = 1;
  worker1.shard.count = 2;
  run_sweep(compiler, worker1, &error);
  ASSERT_TRUE(error.empty()) << error;
  const SweepResult merged = merge_sweep_shards(compiler, spec, 2, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(baseline.to_csv(), merged.to_csv());
}

TEST_F(SweepShardTest, ShardResumeRejectsWrongShardIdentity) {
  // A shard file resumed under a different --shard must hard-error: its
  // cells describe a different slice of the grid.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("wrongshard.jsonl");
  spec.shard.index = 0;
  spec.shard.count = 2;
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;

  // Same file name, different claimed identity: copy 0-of-2's file into the
  // 0-of-4 slot and resume as 0/4.
  std::filesystem::copy_file(
      shard_file_path(spec.checkpoint, 0, 2),
      shard_file_path(spec.checkpoint, 0, 4),
      std::filesystem::copy_options::overwrite_existing);
  SweepSpec other = spec;
  other.shard.count = 4;
  const SweepResult result = run_sweep(compiler, other, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("shard"), std::string::npos);
  EXPECT_TRUE(result.cells.empty());
}

TEST_F(SweepShardTest, MergeWithMissingShardReportsPartialCoverage) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("partialmerge.jsonl");
  SweepSpec worker0 = spec;
  worker0.shard.index = 0;
  worker0.shard.count = 2;
  std::string error;
  run_sweep(compiler, worker0, &error);
  ASSERT_TRUE(error.empty()) << error;

  const SweepResult result = merge_sweep_shards(compiler, spec, 2, &error);
  EXPECT_TRUE(result.cells.empty());
  ASSERT_FALSE(error.empty());
  // The error is the partial-merge report: which file is missing and how
  // much of the grid the surviving shards cover.
  EXPECT_NE(error.find("missing shard file"), std::string::npos);
  EXPECT_NE(error.find(shard_file_path(spec.checkpoint, 1, 2)),
            std::string::npos);
  EXPECT_NE(error.find("2/4 cells complete"), std::string::npos);
}

TEST_F(SweepShardTest, MergeRejectsShardSetAndConfigMismatches) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("mismatchmerge.jsonl");
  for (int index = 0; index < 2; ++index) {
    SweepSpec worker = spec;
    worker.shard.index = index;
    worker.shard.count = 2;
    std::string error;
    run_sweep(compiler, worker, &error);
    ASSERT_TRUE(error.empty()) << error;
  }

  // Shard-set mismatch: a 2-way shard file posing as part of a 4-way set.
  std::filesystem::copy_file(
      shard_file_path(spec.checkpoint, 0, 2),
      shard_file_path(spec.checkpoint, 0, 4),
      std::filesystem::copy_options::overwrite_existing);
  std::string error;
  SweepResult result = merge_sweep_shards(compiler, spec, 4, &error);
  EXPECT_TRUE(result.cells.empty());
  ASSERT_FALSE(error.empty());
  EXPECT_NE(error.find("shard-set mismatch"), std::string::npos);

  // Config mismatch: merging under a different seed must hard-error, not
  // silently adopt the cells.
  SweepSpec other = spec;
  other.dse.seed = spec.dse.seed + 1;
  result = merge_sweep_shards(compiler, other, 2, &error);
  EXPECT_TRUE(result.cells.empty());
  ASSERT_FALSE(error.empty());
  EXPECT_NE(error.find("configuration"), std::string::npos);
}

TEST_F(SweepShardTest, ShardedResumeSummaryCoversOnlyTheShardSlice) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("shardsummary.jsonl");
  spec.shard.index = 0;
  spec.shard.count = 2;
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;

  const auto summary = summarize_checkpoint(compiler, spec, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_TRUE(summary->config_match);
  EXPECT_EQ(summary->cells_total, 2u);  // this worker's slice, not the grid
  EXPECT_EQ(summary->cells_done, 2u);

  // The sibling shard has no file yet.
  SweepSpec other = spec;
  other.shard.index = 1;
  EXPECT_FALSE(summarize_checkpoint(compiler, other, &error).has_value());
}

TEST(SweepTest, FoldOrderIsGridOrderRegardlessOfSchedulingOrder) {
  // The documented contract: scheduling (cost-guided seeding, work
  // stealing, thread count, sharding) orders only *execution*; the folded
  // cells always appear in fixed grid order — Wstore-major, precisions in
  // spec order.  Note the spec lists precisions in an order where the
  // cost-guided schedule (descending Wstore x width) differs from grid
  // order, so a fold that followed scheduling order would fail here.
  SweepSpec spec;
  spec.wstores = {8192, 4096};  // descending on purpose: grid order is spec
                                // order, not sorted order
  spec.precisions = {precision_int8(), precision_fp32(), precision_int4()};
  spec.dse.population = 16;
  spec.dse.generations = 6;
  spec.dse.seed = 3;
  const Compiler compiler(Technology::tsmc28());
  for (const int threads : {1, 8}) {
    SweepSpec run = spec;
    run.dse.threads = threads;
    const SweepResult result = run_sweep(compiler, run);
    ASSERT_EQ(result.cells.size(), 6u) << threads << " threads";
    std::size_t i = 0;
    for (const std::int64_t wstore : spec.wstores) {
      for (const Precision& precision : spec.precisions) {
        EXPECT_EQ(result.cells[i].wstore, wstore) << "cell " << i;
        EXPECT_TRUE(result.cells[i].precision == precision) << "cell " << i;
        ++i;
      }
    }
  }
}

// --- persistent cost-cache memo --------------------------------------------

using SweepCacheFileTest = SweepCheckpointTest;

TEST_F(SweepCacheFileTest, WarmMemoIsByteIdenticalAndSkipsAllEvaluations) {
  const Compiler compiler(Technology::tsmc28());
  const SweepResult baseline = run_sweep(compiler, small_sweep());

  SweepSpec spec = small_sweep();
  spec.cache_file = ckpt("cost.memo.jsonl");
  std::string error;
  const SweepResult cold = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(baseline.to_csv(), cold.to_csv());
  EXPECT_EQ(baseline.to_json().dump(2), cold.to_json().dump(2));
  EXPECT_GT(cold.cache_misses, 0u);
  ASSERT_TRUE(std::filesystem::exists(spec.cache_file));

  // Second sweep of the same grid: byte-identical output and ZERO
  // macro-model evaluations — every lookup is a memo hit.
  const SweepResult warm = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(baseline.to_csv(), warm.to_csv());
  EXPECT_EQ(baseline.to_json().dump(2), warm.to_json().dump(2));
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);

  // Warm memo + 8 threads: still byte-identical.
  SweepSpec threaded = spec;
  threaded.dse.threads = 8;
  const SweepResult warm8 = run_sweep(compiler, threaded, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(baseline.to_csv(), warm8.to_csv());
  EXPECT_EQ(warm8.cache_misses, 0u);
}

TEST_F(SweepCacheFileTest, OverlappingGridReusesTheMemo) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec first = small_sweep();
  first.wstores = {4096};
  first.cache_file = ckpt("overlap.memo.jsonl");
  std::string error;
  run_sweep(compiler, first, &error);
  ASSERT_TRUE(error.empty()) << error;

  // A superset grid: the 4096 column comes straight from the memo; only the
  // 8192 column pays evaluations.  Output must equal a memo-less run.
  SweepSpec second = small_sweep();
  second.cache_file = first.cache_file;
  const SweepResult merged = run_sweep(compiler, second, &error);
  ASSERT_TRUE(error.empty()) << error;
  const SweepResult reference = run_sweep(compiler, small_sweep());
  EXPECT_EQ(reference.to_csv(), merged.to_csv());
  EXPECT_GT(merged.cache_hits, 0u);
}

TEST_F(SweepCacheFileTest, MismatchedMemoIsAnError) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.cache_file = ckpt("mismatch.memo.jsonl");
  std::string error;
  run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;

  // Same file, different conditions: the fingerprint must reject it rather
  // than mix stale numbers into fresh results.
  SweepSpec other = spec;
  other.eval.conditions.input_sparsity = 0.25;
  const SweepResult result = run_sweep(compiler, other, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(result.cells.empty());
}

// --- resume summary ---------------------------------------------------------

using SweepResumeSummaryTest = SweepCheckpointTest;

TEST_F(SweepResumeSummaryTest, ReportsFullAndPartialCoverage) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("summary.ckpt.jsonl");
  run_sweep(compiler, spec);

  std::string error;
  auto summary = summarize_checkpoint(compiler, spec, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_TRUE(summary->config_match);
  EXPECT_EQ(summary->cells_total, 4u);
  EXPECT_EQ(summary->cells_done, 4u);
  ASSERT_EQ(summary->per_precision.size(), 2u);
  EXPECT_EQ(summary->per_precision[0].precision, "INT8");
  EXPECT_EQ(summary->per_precision[0].done, 2u);
  EXPECT_EQ(summary->per_precision[0].total, 2u);
  EXPECT_EQ(summary->corrupt_lines, 0u);
  const std::string report = summary->render(spec.checkpoint);
  EXPECT_NE(report.find("4/4 cells complete"), std::string::npos);
  EXPECT_NE(report.find("config match : yes"), std::string::npos);

  // Drop the last cell line and append garbage: partial coverage plus one
  // corrupt line, still not an error.
  const auto lines = lines_of(spec.checkpoint);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 cells
  {
    std::ofstream out(spec.checkpoint, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
    out << "{\"cell\": {\"wst";  // torn tail
  }
  summary = summarize_checkpoint(compiler, spec, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_EQ(summary->cells_done, 3u);
  EXPECT_EQ(summary->corrupt_lines, 1u);
}

TEST_F(SweepResumeSummaryTest, DetectsConfigMismatchWithoutFailing) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("stale.ckpt.jsonl");
  run_sweep(compiler, spec);

  SweepSpec other = spec;
  other.dse.seed = 99;
  std::string error;
  const auto summary = summarize_checkpoint(compiler, other, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_FALSE(summary->config_match);
  EXPECT_NE(summary->render(other.checkpoint).find("config match : NO"),
            std::string::npos);
}

TEST_F(SweepResumeSummaryTest, ErrorsOnMissingFileOrHeader) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  std::string error;
  EXPECT_FALSE(summarize_checkpoint(compiler, spec, &error).has_value());
  EXPECT_NE(error.find("no checkpoint path"), std::string::npos);

  spec.checkpoint = ckpt("missing.ckpt.jsonl");
  EXPECT_FALSE(summarize_checkpoint(compiler, spec, &error).has_value());

  {
    std::ofstream out(spec.checkpoint);
    out << "this is not a checkpoint\n";
  }
  EXPECT_FALSE(summarize_checkpoint(compiler, spec, &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

// --- heartbeats --------------------------------------------------------------

using SweepHeartbeatTest = SweepCheckpointTest;

TEST_F(SweepHeartbeatTest, HeartbeatWrittenAtCompletion) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("hb.jsonl");
  spec.heartbeat_every = 1;
  std::string error;
  const SweepResult result = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(result.cells.size(), 4u);

  // Heartbeat file: JSON lines with monotone `done` reaching `total`.
  const auto hb_lines =
      test::read_jsonl_lines(heartbeat_file_path(spec.checkpoint));
  ASSERT_GE(hb_lines.size(), 5u);  // initial + one per cell (+ final)
  std::int64_t prev_done = -1;
  for (const auto& line : hb_lines) {
    const auto j = Json::parse(line);
    ASSERT_TRUE(j.has_value()) << line;
    EXPECT_GE(j->at("done").as_int(), prev_done);
    prev_done = j->at("done").as_int();
    EXPECT_GT(j->at("pid").as_int(), 0);
    EXPECT_EQ(j->at("total").as_int(), 4);
  }
  EXPECT_EQ(prev_done, 4);
}

TEST_F(SweepCheckpointTest, TornFragmentAfterCompleteCheckpointIsSkipped) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("tail.jsonl");
  std::string error;
  const SweepResult full = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::size_t lines_before = lines_of(spec.checkpoint).size();

  // A torn write appended after the last complete line: resume parses (and
  // skips) the fragment, recovers every cell from the lines before it.
  {
    std::ofstream out(spec.checkpoint, std::ios::binary | std::ios::app);
    out << R"({"cell":{"evaluations":12,"front_si)";
  }
  const SweepResult resumed = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(resumed.to_csv(), full.to_csv());
  // Nothing recomputed, nothing re-appended past the torn fragment.
  EXPECT_EQ(lines_of(spec.checkpoint).size(), lines_before + 1);
}

TEST_F(SweepHeartbeatTest, HeartbeatRequiresCheckpointAndRoundTripsAsSpec) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.heartbeat_every = 1;  // no checkpoint
  std::string error;
  const SweepResult result = run_sweep(compiler, spec, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("heartbeat"), std::string::npos);
  EXPECT_TRUE(result.cells.empty());

  // Spec JSON: round-trips, rejects negatives, omitted when 0.
  const auto parsed =
      SweepSpec::from_json(*Json::parse(R"({"heartbeat_every": 2})"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->heartbeat_every, 2);
  EXPECT_EQ(SweepSpec::from_json(parsed->to_json())->heartbeat_every, 2);
  EXPECT_FALSE(
      SweepSpec::from_json(*Json::parse(R"({"heartbeat_every": -1})"))
          .has_value());
  EXPECT_FALSE(SweepSpec{}.to_json().contains("heartbeat_every"));
}

TEST_F(SweepHeartbeatTest, HeartbeatEveryIsNotPartOfTheFingerprint) {
  // Like threads, the heartbeat cadence is operational, not
  // result-affecting: a resume with a different cadence must accept the
  // checkpoint and recompute nothing.
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = small_sweep();
  spec.checkpoint = ckpt("cadence.jsonl");
  std::string error;
  const SweepResult first = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  const auto before = lines_of(spec.checkpoint);
  spec.heartbeat_every = 3;
  const SweepResult resumed = run_sweep(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(resumed.to_csv(), first.to_csv());
  EXPECT_EQ(lines_of(spec.checkpoint), before);
}

}  // namespace
}  // namespace sega
