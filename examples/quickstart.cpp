// Quickstart: compile a DCIM macro for 8K INT8 weights and print the
// Pareto front, the auto-selected knee design and its generated layout.
//
//   $ ./quickstart
#include <cstdio>

#include "compiler/compiler.h"

int main() {
  using namespace sega;

  // 1. Pick a technology (Table III costs + TSMC28-like calibration).
  Compiler compiler(Technology::tsmc28());

  // 2. Describe what you need: storage capacity and data precision.
  CompilerSpec spec;
  spec.wstore = 8192;
  spec.precision = precision_int8();
  spec.eval.conditions.supply_v = 0.9;
  spec.distill = DistillPolicy::kKnee;  // let the compiler pick the knee

  // 3. Run: NSGA-II design-space exploration, distillation, generation.
  const CompilerResult result = compiler.run(spec);

  // 4. Inspect.
  std::fputs(result.summary().c_str(), stdout);
  const SelectedDesign& sel = result.selected.front();
  std::printf("\nGenerated Verilog: %zu bytes (%s + primitive library)\n",
              sel.verilog.size(), sel.design.point.to_string().c_str());
  std::printf("Macro layout: %.1f um x %.1f um = %.4f mm^2 (utilization %.0f%%)\n",
              sel.layout.width_um, sel.layout.height_um, sel.layout.area_mm2,
              sel.layout.utilization() * 100.0);
  for (const auto& region : sel.layout.regions) {
    std::printf("  %-12s %8.1f um x %6.1f um  (%lld cells)\n",
                region.name.c_str(), region.width_um, region.height_um,
                static_cast<long long>(region.cell_count));
  }

  // 5. The machine-readable report round-trips through JSON.
  std::printf("\nReport (truncated): %.120s...\n",
              result.report().dump().c_str());
  return 0;
}
