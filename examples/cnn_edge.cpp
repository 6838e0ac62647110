// Edge-CNN scenario (Fig. 1): INT8 inference under a tight area budget at
// 10 % input sparsity.  Walks the Pareto front, applies an area cap, and
// compares the area-winner against the unconstrained knee on a small CNN
// backbone.
//
//   $ ./cnn_edge [area_budget_mm2]
#include <cstdio>
#include <cstdlib>

#include "compiler/compiler.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/mapping.h"

int main(int argc, char** argv) {
  using namespace sega;
  const double area_budget_mm2 = argc > 1 ? std::atof(argv[1]) : 0.8;
  if (area_budget_mm2 <= 0.0) {
    std::fprintf(stderr, "usage: cnn_edge [area_budget_mm2 > 0]\n");
    return 2;
  }

  const Workload cnn = make_cnn_backbone(
      {
          {"conv1", 16, 32, 3, 3},
          {"conv2", 32, 64, 3, 3},
          {"conv3", 64, 64, 3, 3},
          {"conv4", 64, 128, 3, 3},
      },
      precision_int8());
  std::printf("Workload: %s — largest layer %s (%lld weights)\n",
              cnn.name.c_str(), cnn.largest_layer().name.c_str(),
              static_cast<long long>(cnn.largest_layer().weights()));

  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec;
  spec.wstore = cnn.recommended_wstore();
  spec.precision = cnn.precision;
  spec.eval.conditions.input_sparsity = 0.1;  // ReLU-induced zeros
  spec.generate_rtl = false;
  spec.generate_layout = false;
  const CompilerResult result = compiler.run(spec);
  std::fputs(result.summary().c_str(), stdout);

  // Area-constrained distillation: best throughput under the budget.
  const EvaluatedDesign* constrained = nullptr;
  for (const auto& ed : result.pareto_front) {
    if (ed.metrics.area_mm2 > area_budget_mm2) continue;
    if (!constrained ||
        ed.metrics.throughput_tops > constrained->metrics.throughput_tops) {
      constrained = &ed;
    }
  }
  if (!constrained) {
    std::printf("\nNo design fits %.3f mm^2 — relax the budget.\n",
                area_budget_mm2);
    return 1;
  }
  const EvaluatedDesign& knee = result.selected.front().design;

  std::printf("\nArea budget %.3f mm^2:\n", area_budget_mm2);
  TextTable table({"pick", "design", "area (mm^2)", "TOPS", "TOPS/W",
                   "CNN latency (us)", "CNN energy (nJ)"});
  for (const auto& [label, ed] :
       {std::pair<const char*, const EvaluatedDesign&>{"knee", knee},
        {"area-capped", *constrained}}) {
    const MappingReport m = map_workload(cnn, ed);
    table.add_row({label, ed.point.to_string(),
                   strfmt("%.4f", ed.metrics.area_mm2),
                   strfmt("%.3f", ed.metrics.throughput_tops),
                   strfmt("%.1f", ed.metrics.tops_per_w),
                   strfmt("%.3f", m.total_latency_ns * 1e-3),
                   strfmt("%.2f", m.total_energy_nj)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
