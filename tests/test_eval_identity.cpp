// Golden identity test: the literal bytes every persisted or echoed form of
// an evaluation config serializes to, for each valid combination of
// backend x calibration x layout toggle.
//
// Pinned per combination:
//   - the cost-memo header line (`explore --cache-file`);
//   - the sweep checkpoint header line (`sweep --checkpoint`);
//   - the serve daemon's memo delta file name (`<memo>.serve-<hash>`);
//   - CompilerSpec / SweepSpec / ValidateSpec to_json().
// The rtl backend with a calibration artifact is the one invalid
// combination; every command path must reject it with the same diagnostic.
//
// These bytes are compatibility contracts: memos, checkpoints and delta
// files written by earlier builds must keep loading, and a refactor of how
// the config travels from spec to model must not move a single byte.  A
// deliberate format change updates the literals here in the same commit.
//
// Every command runs over a one-weight grid (Wstore = 1), whose design space
// is empty: the headers and file names are written, nothing is evaluated,
// so even the rtl + layout combination finishes in milliseconds.  The
// technology text inside the headers is replaced by @TECHLIB@ before the
// comparison: it is write_techlib() of the default technology, the same for
// every combination and not part of the evaluation config.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/cli.h"
#include "compiler/validate.h"
#include "cost/calibrate.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tech/techlib_parser.h"
#include "test_support.h"
#include "util/strings.h"

namespace sega {
namespace {

struct Golden {
  const char* backend;
  bool calibrated;
  bool layout;
  const char* memo_header;
  const char* checkpoint_header;
  const char* delta_file;
  const char* compiler_spec;
  const char* sweep_spec;
  const char* validate_spec;  ///< nullptr: validate has no backend choice
};

// clang-format off
const Golden kGolden[] = {
    {"analytic", false, false,
     "{\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"model\":\"analytic\","
     "\"model_version\":1,\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,\"cost_model\":\"analytic\","
     "\"crossover_prob\":0.9,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"techlib\":@TECHLIB@,\"wstores\":[1]},"
     "\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-d8d46595",
     "{\"activity\":1,\"cost_model\":\"analytic\","
     "\"distill\":\"knee\",\"generate_def\":false,"
     "\"generate_layout\":true,\"generate_rtl\":true,"
     "\"generations\":64,\"max_h\":2048,\"max_l\":64,\"max_n\":16384,"
     "\"max_selected\":3,\"population\":64,\"precision\":\"INT8\","
     "\"seed\":1,\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,"
     "\"wstore\":1}",
     "{\"activity\":1,\"cost_model\":\"analytic\","
     "\"crossover_prob\":0.9,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     "{\"activity\":1,\"crossover_prob\":0.9,\"generations\":64,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"tolerance\":0.25,"
     "\"wstores\":[1]}"},
    {"analytic", false, true,
     "{\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"layout\":1,\"model\":\"analytic\","
     "\"model_version\":1,\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,\"cost_model\":\"analytic\","
     "\"crossover_prob\":0.9,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"techlib\":@TECHLIB@,\"wstores\":[1]},"
     "\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-e6e466c1",
     "{\"activity\":1,\"cost_model\":\"analytic\","
     "\"distill\":\"knee\",\"generate_def\":false,"
     "\"generate_layout\":true,\"generate_rtl\":true,"
     "\"generations\":64,\"layout\":true,\"max_h\":2048,\"max_l\":64,"
     "\"max_n\":16384,\"max_selected\":3,\"population\":64,"
     "\"precision\":\"INT8\",\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"wstore\":1}",
     "{\"activity\":1,\"cost_model\":\"analytic\","
     "\"crossover_prob\":0.9,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     "{\"activity\":1,\"crossover_prob\":0.9,\"generations\":64,"
     "\"layout\":true,\"max_h\":2048,\"max_l\":64,\"max_n\":16384,"
     "\"min_n_over_bw\":4,\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"tolerance\":0.25,"
     "\"wstores\":[1]}"},
    {"analytic", true, false,
     "{\"calibration\":{\"digest\":\"41840bb4\",\"version\":1},"
     "\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"model\":\"analytic\","
     "\"model_version\":1,\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,"
     "\"calibration\":{\"digest\":\"41840bb4\",\"version\":1},"
     "\"cost_model\":\"analytic\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"max_h\":2048,\"max_l\":64,\"max_n\":16384,"
     "\"min_n_over_bw\":4,\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"techlib\":@TECHLIB@,\"wstores\":[1]},"
     "\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-a5d7f028",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"cost_model\":\"analytic\",\"distill\":\"knee\","
     "\"generate_def\":false,\"generate_layout\":true,"
     "\"generate_rtl\":true,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"max_selected\":3,"
     "\"population\":64,\"precision\":\"INT8\",\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstore\":1}",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"cost_model\":\"analytic\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"max_h\":2048,\"max_l\":64,\"max_n\":16384,"
     "\"min_n_over_bw\":4,\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"crossover_prob\":0.9,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"tolerance\":0.25,"
     "\"wstores\":[1]}"},
    {"analytic", true, true,
     "{\"calibration\":{\"digest\":\"41840bb4\",\"version\":1},"
     "\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"layout\":1,\"model\":\"analytic\","
     "\"model_version\":1,\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,"
     "\"calibration\":{\"digest\":\"41840bb4\",\"version\":1},"
     "\"cost_model\":\"analytic\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"layout\":true,\"max_h\":2048,\"max_l\":64,"
     "\"max_n\":16384,\"min_n_over_bw\":4,\"mutation_prob\":0.35,"
     "\"population\":64,\"precisions\":[\"INT8\"],\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"techlib\":@TECHLIB@,"
     "\"wstores\":[1]},\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-14740bf2",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"cost_model\":\"analytic\",\"distill\":\"knee\","
     "\"generate_def\":false,\"generate_layout\":true,"
     "\"generate_rtl\":true,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"max_selected\":3,"
     "\"population\":64,\"precision\":\"INT8\",\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstore\":1}",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"cost_model\":\"analytic\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"layout\":true,\"max_h\":2048,\"max_l\":64,"
     "\"max_n\":16384,\"min_n_over_bw\":4,\"mutation_prob\":0.35,"
     "\"population\":64,\"precisions\":[\"INT8\"],\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     "{\"activity\":1,\"calibration_file\":\"golden.cal\","
     "\"crossover_prob\":0.9,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"tolerance\":0.25,"
     "\"wstores\":[1]}"},
    {"rtl", false, false,
     "{\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"model\":\"rtl\",\"model_version\":2,"
     "\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,\"cost_model\":\"rtl\","
     "\"crossover_prob\":0.9,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"techlib\":@TECHLIB@,\"wstores\":[1]},"
     "\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-d4426bb2",
     "{\"activity\":1,\"cost_model\":\"rtl\",\"distill\":\"knee\","
     "\"generate_def\":false,\"generate_layout\":true,"
     "\"generate_rtl\":true,\"generations\":64,\"max_h\":2048,"
     "\"max_l\":64,\"max_n\":16384,\"max_selected\":3,"
     "\"population\":64,\"precision\":\"INT8\",\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstore\":1}",
     "{\"activity\":1,\"cost_model\":\"rtl\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"max_h\":2048,\"max_l\":64,\"max_n\":16384,"
     "\"min_n_over_bw\":4,\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     nullptr},
    {"rtl", false, true,
     "{\"config\":{\"activity\":1,\"sparsity\":0.1,\"supply_v\":0.9,"
     "\"techlib\":@TECHLIB@},\"layout\":1,\"model\":\"rtl\","
     "\"model_version\":2,\"sega_cost_memo\":1}",
     "{\"config\":{\"activity\":1,\"cost_model\":\"rtl\","
     "\"crossover_prob\":0.9,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"min_n_over_bw\":4,"
     "\"mutation_prob\":0.35,\"population\":64,"
     "\"precisions\":[\"INT8\"],\"seed\":1,\"sparsity\":0.1,"
     "\"supply_v\":0.9,\"techlib\":@TECHLIB@,\"wstores\":[1]},"
     "\"sega_sweep_checkpoint\":1}",
     "memo.jsonl.serve-5bce0874",
     "{\"activity\":1,\"cost_model\":\"rtl\",\"distill\":\"knee\","
     "\"generate_def\":false,\"generate_layout\":true,"
     "\"generate_rtl\":true,\"generations\":64,\"layout\":true,"
     "\"max_h\":2048,\"max_l\":64,\"max_n\":16384,\"max_selected\":3,"
     "\"population\":64,\"precision\":\"INT8\",\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstore\":1}",
     "{\"activity\":1,\"cost_model\":\"rtl\",\"crossover_prob\":0.9,"
     "\"generations\":64,\"layout\":true,\"max_h\":2048,\"max_l\":64,"
     "\"max_n\":16384,\"min_n_over_bw\":4,\"mutation_prob\":0.35,"
     "\"population\":64,\"precisions\":[\"INT8\"],\"seed\":1,"
     "\"sparsity\":0.1,\"supply_v\":0.9,\"threads\":0,\"wstores\":[1]}",
     nullptr},
};
// clang-format on

/// The one diagnostic for the rtl backend combined with an artifact.
const char* const kRtlCalibrationError =
    "calibration_file only applies to the analytic cost model; the rtl "
    "backend is the measurement it was fitted against\n";

/// Spec-file name of the artifact (relative: spec to_json echoes the path).
const char* const kArtifactName = "golden.cal";

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

class EvalIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A non-identity artifact fitted (by hand) for the conditions every
    // command below runs under: the default technology at 10 % sparsity.
    Calibration cal;
    cal.area_scale = 1.25;
    cal.delay_scale = 0.75;
    cal.model = "analytic";
    cal.model_version = kCostModelVersion;
    cal.techlib = write_techlib(tech_);
    cal.conditions = conditions();
    cal.corpus_size = 3;
    std::string error;
    ASSERT_TRUE(save_calibration(cal, artifact(), &error)) << error;
  }

  static EvalConditions conditions() {
    EvalConditions cond;
    cond.input_sparsity = 0.1;
    return cond;
  }

  std::string artifact() const { return dir_.file(kArtifactName); }

  /// The evaluation-config flags of one combination.
  std::vector<std::string> eval_flags(const char* backend, bool calibrated,
                                      bool layout) const {
    std::vector<std::string> flags = {"--cost-model", backend, "--sparsity",
                                      "0.1"};
    if (calibrated) {
      flags.push_back("--calibration");
      flags.push_back(artifact());
    }
    if (layout) flags.push_back("--layout");
    return flags;
  }

  static std::vector<std::string> cat(std::vector<std::string> a,
                                      const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }

  static CliRun in_process(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    const int code = run_cli(args, out, err);
    return {code, out.str(), err.str()};
  }

  /// First line of @p path with the serialized technology elided.
  std::string header_of(const std::string& path) const {
    const auto lines = test::read_jsonl_lines(path);
    if (lines.empty()) return "<missing>";
    std::string line = lines.front();
    const std::string techlib = Json(write_techlib(tech_)).dump();
    const std::size_t at = line.find(techlib);
    if (at != std::string::npos) line.replace(at, techlib.size(), "@TECHLIB@");
    return line;
  }

  /// Spec JSON carrying one combination's evaluation keys.
  static Json spec_json(const char* backend, bool calibrated, bool layout) {
    Json j = Json::object();
    if (backend != nullptr) j["cost_model"] = backend;
    j["sparsity"] = 0.1;
    if (calibrated) j["calibration_file"] = kArtifactName;
    if (layout) j["layout"] = true;
    return j;
  }

  const Technology tech_ = Technology::tsmc28();
  test::ScopedTempDir dir_{"sega_eval_identity"};
};

TEST_F(EvalIdentityTest, MemoHeaderLines) {
  int n = 0;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(strfmt("%s cal=%d layout=%d", g.backend, g.calibrated,
                        g.layout));
    const std::string memo = dir_.file(strfmt("memo%d.jsonl", n++));
    const CliRun run = in_process(
        cat({"explore", "--wstore", "1", "--precision", "INT8",
             "--cache-file", memo},
            eval_flags(g.backend, g.calibrated, g.layout)));
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(header_of(memo), g.memo_header);
  }
}

TEST_F(EvalIdentityTest, CheckpointHeaderLines) {
  int n = 0;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(strfmt("%s cal=%d layout=%d", g.backend, g.calibrated,
                        g.layout));
    const std::string ckpt = dir_.file(strfmt("ckpt%d.jsonl", n++));
    const CliRun run = in_process(
        cat({"sweep", "--wstores", "1", "--precisions", "INT8",
             "--checkpoint", ckpt},
            eval_flags(g.backend, g.calibrated, g.layout)));
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(header_of(ckpt), g.checkpoint_header);
  }
}

TEST_F(EvalIdentityTest, ServeDeltaFileNames) {
  ServeOptions opts;
  opts.socket_path = dir_.file("serve.sock");
  opts.cache_file = dir_.file("memo.jsonl");
  ServeServer server(tech_, opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::set<std::string> seen;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(strfmt("%s cal=%d layout=%d", g.backend, g.calibrated,
                        g.layout));
    std::ostringstream out, err;
    const auto code = run_via_daemon(
        opts.socket_path,
        cat({"explore", "--wstore", "1", "--precision", "INT8"},
            eval_flags(g.backend, g.calibrated, g.layout)),
        out, err);
    ASSERT_TRUE(code.has_value()) << "daemon unreachable";
    ASSERT_EQ(*code, 0) << err.str();
    std::vector<std::string> fresh;
    const Json status = server.status_json();
    for (const Json& c : status.at("caches").elements()) {
      const std::string name =
          std::filesystem::path(c.at("delta_file").as_string())
              .filename()
              .string();
      if (seen.insert(name).second) fresh.push_back(name);
    }
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh.front(), g.delta_file);
  }

  // The invalid combination falls back in-process inside the daemon and
  // surfaces the same diagnostic as a local run.
  std::ostringstream out, err;
  const auto code = run_via_daemon(
      opts.socket_path,
      cat({"explore", "--wstore", "1", "--precision", "INT8"},
          eval_flags("rtl", true, false)),
      out, err);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, 2);
  EXPECT_EQ(err.str(), kRtlCalibrationError);
  server.stop();
}

TEST_F(EvalIdentityTest, SpecToJson) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(strfmt("%s cal=%d layout=%d", g.backend, g.calibrated,
                        g.layout));
    std::string error;
    Json compile = spec_json(g.backend, g.calibrated, g.layout);
    compile["wstore"] = 1;
    const auto cspec = CompilerSpec::from_json(compile, &error);
    ASSERT_TRUE(cspec.has_value()) << error;
    EXPECT_EQ(cspec->to_json().dump(), g.compiler_spec);

    const auto with_grid = [](Json j) {
      j["wstores"] = Json::array();
      j["wstores"].push_back(1);
      j["precisions"] = Json::array();
      j["precisions"].push_back("INT8");
      return j;
    };
    const auto sspec = SweepSpec::from_json(
        with_grid(spec_json(g.backend, g.calibrated, g.layout)), &error);
    ASSERT_TRUE(sspec.has_value()) << error;
    EXPECT_EQ(sspec->to_json().dump(), g.sweep_spec);
    if (g.validate_spec == nullptr) continue;
    const auto vspec = ValidateSpec::from_json(
        with_grid(spec_json(nullptr, g.calibrated, g.layout)), &error);
    ASSERT_TRUE(vspec.has_value()) << error;
    EXPECT_EQ(vspec->to_json().dump(), g.validate_spec);
  }
}

TEST_F(EvalIdentityTest, RtlWithCalibrationIsRejectedByEveryCommand) {
  const auto flags = eval_flags("rtl", true, false);
  const CliRun explore = in_process(
      cat({"explore", "--wstore", "1", "--precision", "INT8"},
          flags));
  EXPECT_EQ(explore.code, 2);
  EXPECT_EQ(explore.err, kRtlCalibrationError);

  const CliRun sweep = in_process(
      cat({"sweep", "--wstores", "1", "--precisions", "INT8", "--checkpoint",
           dir_.file("rejected.ckpt")},
          flags));
  EXPECT_EQ(sweep.code, 2);
  EXPECT_EQ(sweep.err, kRtlCalibrationError);
  // Rejected before any state is touched.
  EXPECT_FALSE(std::filesystem::exists(dir_.file("rejected.ckpt")));

  const std::string spec = dir_.file("rtl_cal.json");
  Json j = spec_json("rtl", true, false);
  j["calibration_file"] = artifact();
  j["wstore"] = 1;
  test::write_file(spec, j.dump());
  const CliRun compile = in_process(
      {"compile", "--spec", spec, "--out", dir_.file("compile_out")});
  EXPECT_EQ(compile.code, 2);
  EXPECT_EQ(compile.err, kRtlCalibrationError);
}

}  // namespace
}  // namespace sega
