#include "compiler/cli.h"

#include "util/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "test_support.h"

namespace sega {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Replace the wall-clock DSE timing in explore/compile output ("..., 0.01s
/// DSE)") with a placeholder: the duration is load-dependent, and tests that
/// compare two invocations' output must not race the scheduler.
std::string scrub_timing(std::string s) {
  std::size_t pos = 0;
  while ((pos = s.find("s DSE)", pos)) != std::string::npos) {
    std::size_t start = pos;
    while (start > 0 &&
           (std::isdigit(static_cast<unsigned char>(s[start - 1])) ||
            s[start - 1] == '.')) {
      --start;
    }
    s.replace(start, pos - start, "#");
    pos = start + 7;  // past the rewritten "#s DSE)"
  }
  return s;
}

class CliTempDir : public ::testing::Test {
 protected:
  test::ScopedTempDir scoped_{"sega_cli_test"};
  // The member name the tests use directly.
  std::filesystem::path dir_{scoped_.path()};
};

TEST(CliTest, NoArgsPrintsUsage) {
  const CliRun r = cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun r = cli({"synthesize"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, PrecisionsListsAllEight) {
  const CliRun r = cli({"precisions"});
  EXPECT_EQ(r.code, 0);
  for (const char* p :
       {"INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16", "FP32"}) {
    EXPECT_NE(r.out.find(p), std::string::npos) << p;
  }
}

TEST(CliTest, TechlibDumpRoundTrips) {
  const CliRun r = cli({"techlib"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("technology \"tsmc28\""), std::string::npos);
  EXPECT_NE(r.out.find("cell FA"), std::string::npos);
}

TEST(CliTest, PrecisionsAndTechlibTakeNoOptions) {
  // Neither command reads a flag, so any flag is a typo (or, like --tech,
  // a request the command cannot honor) and must not pass silently.
  for (const char* command : {"precisions", "techlib"}) {
    const CliRun r = cli({command, "--tech", "mine.techlib"});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("unknown option '--tech'"), std::string::npos)
        << command << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << command;
  }
}

TEST(CliTest, ExploreRequiresMandatoryFlags) {
  EXPECT_EQ(cli({"explore"}).code, 2);
  EXPECT_EQ(cli({"explore", "--wstore", "8192"}).code, 2);
}

TEST(CliTest, ExplorePrintsFront) {
  const CliRun r = cli({"explore", "--wstore", "8192", "--precision", "INT8",
                        "--population", "24", "--generations", "12"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Pareto designs"), std::string::npos);
  EXPECT_NE(r.out.find("MUL-CIM INT8"), std::string::npos);
}

TEST(CliTest, ExploreRejectsBadValues) {
  EXPECT_EQ(cli({"explore", "--wstore", "nope", "--precision", "INT8"}).code, 2);
  EXPECT_EQ(cli({"explore", "--wstore", "8192", "--precision", "INT3"}).code, 2);
  EXPECT_EQ(cli({"explore", "--wstore", "8192", "--precision", "INT8",
                 "--sparsity", "2"}).code, 2);
}

TEST(CliTest, RejectsUnknownFlag) {
  const CliRun r = cli({"explore", "--wstore", "8192", "--precision", "INT8",
                        "--populaton", "24"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--populaton"), std::string::npos);
}

TEST(CliTest, RejectsDanglingFlag) {
  const CliRun r = cli({"explore", "--wstore"});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTempDir, CompileWritesArtifacts) {
  const auto spec_path = dir_ / "spec.json";
  {
    std::ofstream f(spec_path);
    f << R"({"wstore": 4096, "precision": "INT4", "population": 24,
             "generations": 12, "generate_def": true})";
  }
  const auto out_dir = dir_ / "out";
  const CliRun r = cli({"compile", "--spec", spec_path.string(), "--out",
                        out_dir.string()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(out_dir / "report.json"));
  EXPECT_TRUE(std::filesystem::exists(out_dir / "front.txt"));
  bool has_verilog = false, has_def = false;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
    if (entry.path().extension() == ".v") has_verilog = true;
    if (entry.path().extension() == ".def") has_def = true;
  }
  EXPECT_TRUE(has_verilog);
  EXPECT_TRUE(has_def);

  // The written report parses and contains the front.
  std::ifstream rf(out_dir / "report.json");
  std::stringstream buf;
  buf << rf.rdbuf();
  const auto report = Json::parse(buf.str());
  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->at("pareto_front").size(), 0u);
}

TEST_F(CliTempDir, UnwritableReportsExitTwo) {
  // A report file under --out that cannot be written (here: a directory
  // sits at its path) fails the command; it never reports success over a
  // missing file.  The second file of each command is the blocked one, so
  // every file is checked, not only the first.
  const auto spec_path = dir_ / "spec.json";
  {
    std::ofstream f(spec_path);
    f << R"({"wstore": 512, "precision": "INT8", "population": 16,
             "generations": 4})";
  }
  const auto grid_run = [](const char* command) {
    return std::vector<std::string>{command, "--wstores", "512",
                                    "--precisions", "INT8", "--population",
                                    "16", "--generations", "4"};
  };
  const std::vector<std::pair<std::vector<std::string>, const char*>> cases =
      {{{"compile", "--spec", spec_path.string()}, "front.txt"},
       {grid_run("sweep"), "sweep.csv"},
       {grid_run("validate"), "validate.csv"}};
  for (const auto& [run, file] : cases) {
    const auto out_dir = dir_ / (run[0] + "_out");
    const auto blocked = out_dir / file;
    std::filesystem::create_directories(blocked);
    std::vector<std::string> args = run;
    args.insert(args.end(), {"--out", out_dir.string()});
    const CliRun r = cli(args);
    EXPECT_EQ(r.code, 2) << run[0] << ": " << r.err;
    EXPECT_NE(r.err.find("cannot write '" + blocked.string() + "'"),
              std::string::npos)
        << run[0] << ": " << r.err;
  }
}

TEST_F(CliTempDir, CompileRejectsBadSpec) {
  const auto spec_path = dir_ / "bad.json";
  {
    std::ofstream f(spec_path);
    f << R"({"wstore": 4096, "precsion": "INT4"})";  // typo key
  }
  const CliRun r = cli({"compile", "--spec", spec_path.string(), "--out",
                        (dir_ / "out").string()});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("precsion"), std::string::npos);
}

TEST_F(CliTempDir, CompileRejectsMissingSpecFile) {
  const CliRun r = cli({"compile", "--spec", (dir_ / "nope.json").string(),
                        "--out", (dir_ / "out").string()});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTempDir, SweepWritesCsvAndJson) {
  const auto out_dir = dir_ / "sweep_out";
  const CliRun r = cli({"sweep", "--wstores", "4096,8192", "--precisions",
                        "INT8,BF16", "--population", "24", "--generations",
                        "12", "--seed", "2", "--out", out_dir.string()});
  EXPECT_EQ(r.code, 0) << r.err;
  // stdout carries the CSV: header + one row per cell.
  EXPECT_EQ(r.out.rfind("wstore,precision,", 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(out_dir / "sweep.csv"));
  EXPECT_TRUE(std::filesystem::exists(out_dir / "sweep.json"));
  std::ifstream jf(out_dir / "sweep.json");
  std::stringstream buf;
  buf << jf.rdbuf();
  const auto j = Json::parse(buf.str());
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->size(), 4u);
}

TEST_F(CliTempDir, SweepFromSpecFileWithCheckpoint) {
  const auto spec_path = dir_ / "sweep.json";
  {
    std::ofstream f(spec_path);
    f << R"({"wstores": [4096], "precisions": ["INT8"],
             "population": 24, "generations": 12, "seed": 2})";
  }
  const auto ckpt = dir_ / "sweep.ckpt.jsonl";
  const CliRun first = cli({"sweep", "--spec", spec_path.string(),
                            "--checkpoint", ckpt.string()});
  EXPECT_EQ(first.code, 0) << first.err;
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  // Resuming over the complete checkpoint recomputes nothing and emits the
  // identical CSV.
  const CliRun second = cli({"sweep", "--spec", spec_path.string(),
                             "--checkpoint", ckpt.string()});
  EXPECT_EQ(second.code, 0) << second.err;
  EXPECT_EQ(first.out, second.out);
  // A conflicting run against the same checkpoint must fail loudly.
  const CliRun conflict = cli({"sweep", "--spec", spec_path.string(),
                               "--seed", "3", "--checkpoint", ckpt.string()});
  EXPECT_EQ(conflict.code, 2);
  EXPECT_NE(conflict.err.find("configuration"), std::string::npos);
}

TEST_F(CliTempDir, SweepRejectsBadValues) {
  EXPECT_EQ(cli({"sweep", "--wstores", "nope"}).code, 2);
  EXPECT_EQ(cli({"sweep", "--precisions", "INT3"}).code, 2);
  EXPECT_EQ(cli({"sweep", "--wstores", "4096", "--sparsity", "2"}).code, 2);
  // Explorer preconditions are diagnostics with exit 2, not aborts.
  EXPECT_EQ(cli({"sweep", "--wstores", "4096", "--population", "2"}).code, 2);
  EXPECT_EQ(cli({"sweep", "--wstores", "4096", "--generations", "0"}).code, 2);
  EXPECT_EQ(cli({"explore", "--wstore", "4096", "--precision", "INT8",
                 "--population", "2"}).code, 2);
  const CliRun r = cli({"sweep", "--checkpont", "x.jsonl"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--checkpont"), std::string::npos);
}

TEST_F(CliTempDir, SweepRejectsARepeatedGridEntry) {
  // A cell is named by its (Wstore, precision) pair: a grid that lists
  // either twice would run one cell twice and print two identical rows.
  // Both spellings of one precision are the same column.
  const std::vector<std::vector<std::string>> repeats = {
      {"sweep", "--wstores", "4096", "--precisions", "INT8,INT8"},
      {"sweep", "--wstores", "4096,8192,4096", "--precisions", "INT8"},
      {"sweep", "--wstores", "4096", "--precisions", "FP16,half"}};
  for (const auto& argv : repeats) {
    const CliRun r = cli(argv);
    EXPECT_EQ(r.code, 2) << argv[2] << " " << argv[4];
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_NE(r.err.find("twice"), std::string::npos) << r.err;
  }
  const CliRun ok = cli({"sweep", "--wstores", "4096", "--precisions",
                         "INT8,FP16", "--population", "8",
                         "--generations", "2"});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST_F(CliTempDir, ExploreWithCustomTechlib) {
  const auto tech_path = dir_ / "my.techlib";
  {
    std::ofstream f(tech_path);
    f << "technology \"custom\" { units { area_um2_per_gate 0.2 "
         "delay_ns_per_gate 0.02 energy_fj_per_gate 0.1 } }";
  }
  const CliRun r = cli({"explore", "--wstore", "4096", "--precision", "INT8",
                        "--population", "16", "--generations", "8",
                        "--tech", tech_path.string()});
  EXPECT_EQ(r.code, 0) << r.err;
  const CliRun bad = cli({"explore", "--wstore", "4096", "--precision",
                          "INT8", "--tech", (dir_ / "missing.lib").string()});
  EXPECT_EQ(bad.code, 2);
}

TEST_F(CliTempDir, ExploreCacheFilePersistsAcrossInvocations) {
  const std::string memo = (dir_ / "explore.memo.jsonl").string();
  const std::vector<std::string> base = {
      "explore", "--wstore", "8192", "--precision", "INT8",
      "--population", "24", "--generations", "12", "--seed", "3"};
  const CliRun plain = cli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;

  std::vector<std::string> cached = base;
  cached.insert(cached.end(), {"--cache-file", memo});
  const CliRun cold = cli(cached);
  ASSERT_EQ(cold.code, 0) << cold.err;
  EXPECT_EQ(scrub_timing(plain.out), scrub_timing(cold.out));
  EXPECT_TRUE(std::filesystem::exists(memo));

  const CliRun warm = cli(cached);
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(scrub_timing(plain.out), scrub_timing(warm.out));

  // A memo for different conditions is rejected with a diagnostic, not
  // silently mixed in (and not an abort).
  std::vector<std::string> other = cached;
  other.insert(other.end(), {"--sparsity", "0.3"});
  const CliRun mismatch = cli(other);
  EXPECT_EQ(mismatch.code, 2);
  EXPECT_NE(mismatch.err.find("cost cache"), std::string::npos);
}

TEST_F(CliTempDir, SweepCacheFileKeepsCsvByteIdentical) {
  const std::string memo = (dir_ / "sweep.memo.jsonl").string();
  const std::vector<std::string> base = {
      "sweep", "--wstores", "4096", "--precisions", "INT8,BF16",
      "--population", "24", "--generations", "8", "--seed", "2"};
  const CliRun plain = cli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;

  std::vector<std::string> cached = base;
  cached.insert(cached.end(), {"--cache-file", memo});
  const CliRun cold = cli(cached);
  const CliRun warm = cli(cached);
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(plain.out, cold.out);
  EXPECT_EQ(plain.out, warm.out);
}

TEST_F(CliTempDir, SweepResumeSummaryReportsWithoutRunning) {
  const std::string ckpt = (dir_ / "cli.ckpt.jsonl").string();
  const std::vector<std::string> base = {
      "sweep", "--wstores", "4096,8192", "--precisions", "INT8",
      "--population", "24", "--generations", "8", "--seed", "2",
      "--checkpoint", ckpt};
  ASSERT_EQ(cli(base).code, 0);

  std::vector<std::string> summary = base;
  summary.push_back("--resume-summary");
  const CliRun r = cli(summary);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2/2 cells complete"), std::string::npos);
  EXPECT_NE(r.out.find("config match : yes"), std::string::npos);
  // Report only — no CSV is produced.
  EXPECT_EQ(r.out.find("wstore,precision,"), std::string::npos);

  // Without a checkpoint the summary has nothing to read.
  const CliRun missing = cli({"sweep", "--wstores", "4096", "--precisions",
                              "INT8", "--resume-summary"});
  EXPECT_EQ(missing.code, 2);

  // The flag takes no value: a value-less flag mid-line must not swallow
  // the next option.
  const CliRun mixed = cli({"sweep", "--resume-summary", "--checkpoint", ckpt,
                            "--wstores", "4096,8192", "--precisions", "INT8",
                            "--population", "24", "--generations", "8",
                            "--seed", "2"});
  EXPECT_EQ(mixed.code, 0) << mixed.err;
  EXPECT_NE(mixed.out.find("2/2 cells complete"), std::string::npos);
}

TEST_F(CliTempDir, ShardedSweepPlusMergeMatchesUnshardedRun) {
  const std::vector<std::string> grid = {
      "--wstores", "4096,8192", "--precisions", "INT8,BF16",
      "--population", "24", "--generations", "8", "--seed", "2"};
  std::vector<std::string> plain = {"sweep"};
  plain.insert(plain.end(), grid.begin(), grid.end());
  const CliRun reference = cli(plain);
  ASSERT_EQ(reference.code, 0) << reference.err;

  const std::string ckpt = (dir_ / "cli.shard.ckpt").string();
  for (const char* shard : {"0/2", "1/2"}) {
    std::vector<std::string> worker = {"sweep", "--shard", shard,
                                       "--checkpoint", ckpt};
    worker.insert(worker.end(), grid.begin(), grid.end());
    const CliRun r = cli(worker);
    ASSERT_EQ(r.code, 0) << r.err;
    // A shard's own CSV is its slice, not the grid.
    EXPECT_NE(r.out, reference.out);
  }
  std::vector<std::string> merge = {"sweep-merge", "--shards", "2",
                                    "--checkpoint", ckpt, "--out",
                                    (dir_ / "merged").string()};
  merge.insert(merge.end(), grid.begin(), grid.end());
  const CliRun merged = cli(merge);
  ASSERT_EQ(merged.code, 0) << merged.err;
  EXPECT_EQ(reference.out, merged.out);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "merged" / "sweep.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "merged" / "sweep.json"));

  // Merging an incomplete set is a diagnosed failure with the coverage
  // report, not a partial output.
  std::vector<std::string> bad = {"sweep-merge", "--shards", "4",
                                  "--checkpoint", ckpt};
  bad.insert(bad.end(), grid.begin(), grid.end());
  const CliRun incomplete = cli(bad);
  EXPECT_EQ(incomplete.code, 2);
  EXPECT_NE(incomplete.err.find("missing shard file"), std::string::npos);
}

TEST_F(CliTempDir, SweepShardFlagValidation) {
  for (const char* bad :
       {"2/2", "-1/2", "1", "a/b", "1/0", "/2", "1/", "1x/2", "1/2y"}) {
    const CliRun r = cli({"sweep", "--wstores", "4096", "--precisions",
                          "INT8", "--shard", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("--shard"), std::string::npos) << bad;
  }
  // sweep-merge requires both --checkpoint and --shards.
  EXPECT_EQ(cli({"sweep-merge", "--shards", "2"}).code, 2);
  EXPECT_EQ(cli({"sweep-merge", "--checkpoint", "x.ckpt"}).code, 2);
  EXPECT_EQ(cli({"sweep-merge", "--checkpoint", "x.ckpt", "--shards", "0"})
                .code,
            2);
  // --shard belongs to sweep, not sweep-merge.
  const CliRun r = cli({"sweep-merge", "--checkpoint", "x.ckpt", "--shards",
                        "2", "--shard", "0/2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--shard"), std::string::npos);
}

TEST_F(CliTempDir, CostModelFlagSelectsTheRtlBackend) {
  // A tiny space so the RTL backend (which elaborates and simulates every
  // candidate) stays fast.  The two backends must produce *different*
  // metrics (measured vs closed-form), both through the same pipeline.
  const std::vector<std::string> base = {
      "explore", "--wstore", "128", "--precision", "INT4",
      "--population", "8", "--generations", "4", "--seed", "2"};
  const CliRun analytic = cli(base);
  ASSERT_EQ(analytic.code, 0) << analytic.err;

  std::vector<std::string> rtl = base;
  rtl.insert(rtl.end(), {"--cost-model", "rtl"});
  const CliRun measured = cli(rtl);
  ASSERT_EQ(measured.code, 0) << measured.err;
  EXPECT_NE(analytic.out, measured.out);
  EXPECT_NE(measured.out.find("Pareto designs"), std::string::npos);

  // Explicit analytic is the default spelled out (compare from the table
  // down — the summary's first line carries wall time).
  std::vector<std::string> spelled = base;
  spelled.insert(spelled.end(), {"--cost-model", "analytic"});
  const CliRun spelled_run = cli(spelled);
  ASSERT_EQ(spelled_run.code, 0) << spelled_run.err;
  EXPECT_EQ(spelled_run.out.substr(spelled_run.out.find('\n')),
            analytic.out.substr(analytic.out.find('\n')));

  // Unknown backends are diagnosed, not guessed.
  std::vector<std::string> bad = base;
  bad.insert(bad.end(), {"--cost-model", "spice"});
  const CliRun rejected = cli(bad);
  EXPECT_EQ(rejected.code, 2);
  EXPECT_NE(rejected.err.find("cost model"), std::string::npos);
}

TEST_F(CliTempDir, RtlBackendComposesWithCacheFile) {
  // Cold run writes the RTL memo; warm run replays it byte-identically.
  const std::string memo = (dir_ / "rtl.memo.jsonl").string();
  const std::vector<std::string> base = {
      "explore", "--wstore", "128", "--precision", "INT4",
      "--population", "8", "--generations", "4", "--seed", "2",
      "--cost-model", "rtl", "--cache-file", memo};
  const CliRun cold = cli(base);
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_TRUE(std::filesystem::exists(memo));
  const CliRun warm = cli(base);
  ASSERT_EQ(warm.code, 0) << warm.err;
  // Identical front and selection; the summary's first line carries wall
  // time (the warm run is faster — the point of the memo), so compare from
  // the table down.
  EXPECT_EQ(cold.out.substr(cold.out.find('\n')),
            warm.out.substr(warm.out.find('\n')));

  // The RTL memo must not serve an analytic run.
  std::vector<std::string> analytic = {
      "explore", "--wstore", "128", "--precision", "INT4",
      "--population", "8", "--generations", "4", "--seed", "2",
      "--cache-file", memo};
  const CliRun mismatch = cli(analytic);
  EXPECT_EQ(mismatch.code, 2);
  EXPECT_NE(mismatch.err.find("different cost model"), std::string::npos);
}

TEST_F(CliTempDir, ValidateComparesBackendsAndWritesReports) {
  const auto out_dir = dir_ / "validate_out";
  const std::string rtl_memo = (dir_ / "validate.rtl.memo").string();
  const std::vector<std::string> base = {
      "validate", "--wstores", "512", "--precisions", "INT8,FP16",
      "--population", "16", "--generations", "8", "--seed", "2",
      "--tolerance", "0.25", "--rtl-cache-file", rtl_memo};
  std::vector<std::string> with_out = base;
  with_out.insert(with_out.end(), {"--out", out_dir.string()});
  const CliRun r = cli(with_out);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("knee point(s) within tolerance"), std::string::npos);
  EXPECT_NE(r.out.find("INT8 @ Wstore=512"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(out_dir / "validate.json"));
  ASSERT_TRUE(std::filesystem::exists(out_dir / "validate.csv"));

  std::ifstream jf(out_dir / "validate.json");
  std::stringstream buf;
  buf << jf.rdbuf();
  const auto report = Json::parse(buf.str());
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->at("pass").as_bool());
  EXPECT_EQ(report->at("rows").size(), 2u);
  EXPECT_TRUE(report->contains("worst"));

  // Warm rerun serves every knee from the RTL memo (same report, exit 0).
  const CliRun warm = cli(base);
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(r.out, warm.out);

  // An unreachable tolerance exits 1 (distinct from usage errors' 2).
  std::vector<std::string> strict = base;
  strict[strict.size() - 3] = "0.0001";  // the --tolerance value
  const CliRun failing = cli(strict);
  EXPECT_EQ(failing.code, 1);
  EXPECT_NE(failing.err.find("exceed tolerance"), std::string::npos);
  EXPECT_NE(failing.out.find("FAIL"), std::string::npos);

  // Flag validation: tolerance must be a positive number.
  EXPECT_EQ(cli({"validate", "--tolerance", "nope"}).code, 2);
  EXPECT_EQ(cli({"validate", "--tolerance", "-1"}).code, 2);
  // --cost-model belongs to the run commands, not validate (it always
  // compares the two backends).
  const CliRun unknown = cli({"validate", "--cost-model", "rtl"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("--cost-model"), std::string::npos);
}

TEST_F(CliTempDir, ValidateSpecFileRoundTrip) {
  const auto spec_path = dir_ / "validate.json";
  {
    std::ofstream f(spec_path);
    f << R"({"wstores": [512], "precisions": ["INT8"], "population": 16,
             "generations": 8, "seed": 2, "tolerance": 0.3})";
  }
  const CliRun r = cli({"validate", "--spec", spec_path.string()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1/1 knee point(s) within tolerance"),
            std::string::npos);

  // Unknown spec keys are rejected like every other spec parser.
  {
    std::ofstream f(spec_path, std::ios::trunc);
    f << R"({"tolerence": 0.3})";
  }
  const CliRun bad = cli({"validate", "--spec", spec_path.string()});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("tolerence"), std::string::npos);
}

TEST_F(CliTempDir, MalformedSharedSpecKeysAreDiagnosticsInEveryCommand) {
  // compile and sweep specs share the evaluation-config, space-limit and
  // DSE keys, parsed by one checked helper: a value of the wrong type or
  // out of range is exit 2 with the same diagnostic in both commands,
  // never an abort inside the DSE.
  struct Case {
    const char* spec;
    const char* diagnostic;
  };
  const Case cases[] = {
      {R"({"layout": 1})", "layout must be a boolean"},
      {R"({"population": 2})", "population must be >= 4"},
      {R"({"generations": 0})", "generations must be >= 1"},
      {R"({"threads": -1})", "threads must be >= 0"},
      {R"({"seed": "7"})", "spec key 'seed' must be a number"},
      {R"({"max_n": -3})", "max_n must be a positive integer"},
      {R"({"max_n": 0})", "max_n must be a positive integer"},
      {R"({"max_h": 0})", "max_h must be a positive integer"},
      {R"({"max_l": 0})", "max_l must be a positive integer"},
      {R"({"supply_v": "0.9"})", "spec key 'supply_v' must be a number"},
      {R"({"sparsity": 1})", "sparsity must be in [0, 1)"},
      {R"({"activity": 0})", "activity must be in (0, 1]"},
      {R"({"cost_model": 1})", "cost_model must be \"analytic\" or \"rtl\""},
      {R"({"calibration_file": 3})", "calibration_file must be a string path"},
  };
  const std::string spec_path = (dir_ / "bad.json").string();
  for (const Case& c : cases) {
    test::write_file(spec_path, c.spec);
    const CliRun compile =
        cli({"compile", "--spec", spec_path, "--out", (dir_ / "o").string()});
    EXPECT_EQ(compile.code, 2) << c.spec;
    EXPECT_EQ(compile.err, std::string(c.diagnostic) + "\n") << c.spec;
    const CliRun sweep = cli({"sweep", "--spec", spec_path});
    EXPECT_EQ(sweep.code, 2) << c.spec;
    EXPECT_EQ(sweep.err, compile.err) << c.spec;
  }

  // compile-only keys are type-checked the same way.
  test::write_file(spec_path, R"({"wstore": "8192"})");
  const CliRun wstore =
      cli({"compile", "--spec", spec_path, "--out", (dir_ / "o").string()});
  EXPECT_EQ(wstore.code, 2);
  EXPECT_EQ(wstore.err, "spec key 'wstore' must be a number\n");

  // Positive limits below the precision's smallest macro leave the design
  // space empty: a valid run with no designs, not a crash.
  for (const char* spec : {R"({"max_n": 16})", R"({"max_h": 1})"}) {
    test::write_file(spec_path, spec);
    const CliRun sweep = cli({"sweep", "--spec", spec_path, "--wstores",
                              "4096", "--precisions", "INT8"});
    EXPECT_EQ(sweep.code, 0) << spec << ": " << sweep.err;
    EXPECT_EQ(std::count(sweep.out.begin(), sweep.out.end(), '\n'), 1)
        << spec;  // the CSV header only
  }
}

TEST_F(CliTempDir, OrchestrateSupervisesWorkersAndWritesReport) {
  const std::vector<std::string> grid = {
      "--wstores", "4096,8192", "--precisions", "INT8",
      "--population", "24", "--generations", "8", "--seed", "2"};
  std::vector<std::string> plain = {"sweep"};
  plain.insert(plain.end(), grid.begin(), grid.end());
  const CliRun reference = cli(plain);
  ASSERT_EQ(reference.code, 0) << reference.err;

  const std::string ckpt = (dir_ / "orch.ckpt").string();
  const auto out_dir = dir_ / "orch_out";
  std::vector<std::string> orch = {
      "orchestrate", "--workers", "2", "--checkpoint", ckpt,
      "--poll-interval", "0.05", "--backoff", "0.05",
      "--out", out_dir.string()};
  orch.insert(orch.end(), grid.begin(), grid.end());
  const CliRun r = cli(orch);
  ASSERT_EQ(r.code, 0) << r.err;
  // stdout carries the merged CSV, identical to the serial run.
  EXPECT_EQ(reference.out, r.out);
  // The workers' shard files and the merged unified checkpoint all exist.
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  EXPECT_TRUE(std::filesystem::exists(ckpt + ".shard-0-of-2"));
  EXPECT_TRUE(std::filesystem::exists(ckpt + ".shard-1-of-2"));
  // stderr carries the supervision summary.
  EXPECT_NE(r.err.find("orchestrate: 2 worker(s)"), std::string::npos);
  // The machine-readable report lands next to the sweep outputs.
  EXPECT_TRUE(std::filesystem::exists(out_dir / "sweep.csv"));
  std::ifstream jf(out_dir / "orchestrate.json");
  std::stringstream buf;
  buf << jf.rdbuf();
  const auto j = Json::parse(buf.str());
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(j->at("success").as_bool());
  EXPECT_EQ(j->at("shards").size(), 2u);

  // Guard rails: required flags and value validation, all exit 2.
  EXPECT_EQ(cli({"orchestrate", "--wstores", "4096", "--precisions", "INT8",
                 "--checkpoint", ckpt})
                .code,
            2);  // no --workers
  EXPECT_EQ(cli({"orchestrate", "--wstores", "4096", "--precisions", "INT8",
                 "--workers", "2"})
                .code,
            2);  // no --checkpoint
  EXPECT_EQ(cli({"orchestrate", "--wstores", "4096", "--precisions", "INT8",
                 "--workers", "0", "--checkpoint", ckpt})
                .code,
            2);  // workers >= 1
  EXPECT_EQ(cli({"orchestrate", "--wstores", "4096", "--precisions", "INT8",
                 "--workers", "2", "--checkpoint", ckpt, "--stall-timeout",
                 "0"})
                .code,
            2);  // positive timeouts only
  EXPECT_EQ(cli({"orchestrate", "--wstores", "4096", "--precisions", "INT8",
                 "--workers", "2", "--checkpoint", ckpt, "--backoff", "2",
                 "--backoff-max", "1"})
                .code,
            2);  // cap below initial
  const CliRun unknown = cli({"orchestrate", "--workres", "2"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("--workres"), std::string::npos);
}

TEST_F(CliTempDir, MemoCompactMergesShardDeltas) {
  // A sharded sweep with a memo leaves a base memo plus per-shard deltas;
  // memo-compact folds them into one file identical to a serial run's memo.
  const std::vector<std::string> grid = {
      "--wstores", "4096,8192", "--precisions", "INT8",
      "--population", "24", "--generations", "8", "--seed", "2"};
  const std::string ref_memo = (dir_ / "ref.memo").string();
  std::vector<std::string> serial = {"sweep", "--cache-file", ref_memo};
  serial.insert(serial.end(), grid.begin(), grid.end());
  ASSERT_EQ(cli(serial).code, 0);

  const std::string ckpt = (dir_ / "mc.ckpt").string();
  const std::string memo = (dir_ / "mc.memo").string();
  std::vector<std::string> orch = {"orchestrate", "--workers", "2",
                                   "--checkpoint", ckpt, "--cache-file",
                                   memo, "--poll-interval", "0.05"};
  orch.insert(orch.end(), grid.begin(), grid.end());
  ASSERT_EQ(cli(orch).code, 0);

  const std::string out = (dir_ / "compacted.memo").string();
  const CliRun r = cli({"memo-compact", "--cache-file", memo, "--shards",
                        "2", "--out", out});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("memo-compact:", 0), 0u);
  std::ifstream a(out, std::ios::binary), b(ref_memo, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  // Guard rails.
  EXPECT_EQ(cli({"memo-compact"}).code, 2);  // --cache-file required
  EXPECT_EQ(cli({"memo-compact", "--cache-file", memo, "--shards", "0"})
                .code,
            2);
  EXPECT_EQ(
      cli({"memo-compact", "--cache-file", (dir_ / "absent.memo").string()})
          .code,
      2);  // no sources found
}

TEST_F(CliTempDir, MalformedNumericFlagsAreDiagnosticsInEveryCommand) {
  // A numeric flag takes a whole, decimal, finite number.  Each of these
  // values used to run (a prefix read as the number, hex read as hex, -1
  // wrapped to 2^64-1) or abort inside the cost model (nan, inf).
  const std::string ckpt = (dir_ / "numeric.ckpt").string();
  const std::map<std::string, std::vector<std::string>> base = {
      {"explore", {"explore", "--wstore", "4096", "--precision", "INT8"}},
      {"sweep", {"sweep", "--wstores", "4096", "--precisions", "INT8"}},
      {"validate", {"validate", "--wstores", "4096", "--precisions", "INT8"}},
      {"orchestrate",
       {"orchestrate", "--workers", "2", "--checkpoint", ckpt, "--wstores",
        "4096", "--precisions", "INT8"}}};
  const std::vector<std::pair<std::string, std::string>> shared = {
      {"--generations", "2e3"}, {"--population", "16x"},
      {"--seed", "-1"},         {"--seed", "0x10"},
      {"--threads", "1.5"},     {"--threads", " 1"},
      {"--sparsity", "0x0.8"},  {"--sparsity", "nan"},
      {"--sparsity", ""},       {"--supply", "nan"},
      {"--supply", "inf"},      {"--supply", "+0.9"},
      {"--supply", "1e999"}};
  const std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      own = {{"explore", {{"--wstore", "4096abc"}, {"--wstore", "4e3"}}},
             {"sweep",
              {{"--wstores", "4096abc"},
               {"--wstores", "4096,8e3"},
               {"--heartbeat-every", "1x"}}},
             {"validate",
              {{"--tolerance", "0.5zz"},
               {"--tolerance", "nan"},
               {"--wstores", "0x1000"}}},
             {"orchestrate",
              {{"--workers", "2x"},
               {"--max-retries", "1.0"},
               {"--stall-timeout", "inf"},
               {"--poll-interval", "nan"},
               {"--backoff", "0x1p-2"},
               {"--backoff-max", "1e999"}}}};
  for (const auto& [command, argv] : base) {
    auto cases = shared;
    cases.insert(cases.end(), own.at(command).begin(), own.at(command).end());
    for (const auto& [flag, value] : cases) {
      std::vector<std::string> args = argv;
      // A later flag wins, so appending overrides the base's good value.
      args.push_back(flag);
      args.push_back(value);
      const CliRun r = cli(args);
      EXPECT_EQ(r.code, 2) << command << " " << flag << " '" << value << "'";
      EXPECT_NE(r.err.find("bad numeric option value"), std::string::npos)
          << command << " " << flag << " '" << value << "': " << r.err;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

TEST_F(CliTempDir, SweepHeartbeatFlagValidation) {
  // --heartbeat-every needs a checkpoint and a non-negative integer.
  EXPECT_EQ(cli({"sweep", "--wstores", "4096", "--precisions", "INT8",
                 "--heartbeat-every", "1"})
                .code,
            2);
  EXPECT_EQ(cli({"sweep", "--wstores", "4096", "--precisions", "INT8",
                 "--heartbeat-every", "-1", "--checkpoint",
                 (dir_ / "hb.ckpt").string()})
                .code,
            2);
  const CliRun r = cli({"sweep", "--wstores", "4096", "--precisions",
                        "INT8", "--population", "24", "--generations", "8",
                        "--seed", "2", "--heartbeat-every", "1",
                        "--checkpoint", (dir_ / "hb.ckpt").string()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(dir_ / "hb.ckpt.hb"));
}

}  // namespace
}  // namespace sega
