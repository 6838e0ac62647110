// Full validation grid (§IV): sweep Wstore 4K..128K across all eight
// precisions, print the knee summary per cell, and write sweep.csv /
// sweep.json for downstream analysis.
//
// The grid runs on the parallel sweep engine with a JSONL checkpoint in the
// output directory — kill it mid-run and rerun to resume; completed cells
// are not recomputed and the final output is byte-identical either way.
//
//   $ ./sweep_grid [outdir]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "compiler/sweep.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sega;
  const std::filesystem::path outdir = argc > 1 ? argv[1] : "out";
  std::filesystem::create_directories(outdir);

  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec;
  spec.eval.conditions.input_sparsity = 0.1;  // the paper's Fig. 8 condition
  spec.dse.population = 48;
  spec.dse.generations = 32;
  spec.dse.seed = 42;
  spec.checkpoint = (outdir / "sweep.ckpt.jsonl").string();
  std::string error;
  const SweepResult result = run_sweep(compiler, spec, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  TextTable table({"Wstore", "precision", "front", "knee design",
                   "area (mm^2)", "TOPS/W", "TOPS/mm^2"});
  for (const auto& cell : result.cells) {
    table.add_row({strfmt("%lldK", static_cast<long long>(cell.wstore / 1024)),
                   cell.precision.name, strfmt("%zu", cell.front_size),
                   cell.knee.point.to_string(),
                   strfmt("%.4f", cell.knee.metrics.area_mm2),
                   strfmt("%.1f", cell.knee.metrics.tops_per_w),
                   strfmt("%.2f", cell.knee.metrics.tops_per_mm2)});
  }
  std::fputs(table.render().c_str(), stdout);

  {
    std::ofstream f(outdir / "sweep.csv");
    f << result.to_csv();
  }
  {
    std::ofstream f(outdir / "sweep.json");
    f << result.to_json().dump(2) << "\n";
  }
  std::printf("\n%zu cells -> %s/sweep.{csv,json}\n", result.cells.size(),
              outdir.string().c_str());
  return 0;
}
