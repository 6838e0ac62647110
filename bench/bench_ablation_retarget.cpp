// Ablation: technology retargeting.
//
// §III-B.1: "we normalize all costs to NOR gates based on TSMC28 ... If the
// technology process changes, the cost will also be changed."  The whole
// PDK dependence is three scale factors plus per-cell normalized costs, so
// retargeting is a techlib swap.  This bench compiles the same spec against
// the TSMC28-like preset, the generic 40nm-class preset, and a custom
// techlib parsed from text, and shows how the Pareto knee moves.
#include <cstdio>

#include "compiler/compiler.h"
#include "tech/techlib_parser.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace sega;

  const char* custom_lib = R"(
    # hypothetical 16nm-class node: smaller, faster, thriftier
    technology "custom16" {
      units { area_um2_per_gate 0.055  delay_ns_per_gate 0.011
              energy_fj_per_gate 0.045  nominal_supply_v 0.8 }
    })";
  std::string err;
  const auto custom = parse_techlib(custom_lib, &err);
  if (!custom) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }

  std::printf("Technology retargeting: INT8, Wstore = 8K, same spec\n\n");
  TextTable table({"technology", "knee design", "area (mm^2)", "clock (ns)",
                   "E/MVM (nJ)", "TOPS/W"});
  for (const Technology& tech :
       {Technology::tsmc28(), Technology::generic40(), *custom}) {
    Compiler compiler(tech);
    CompilerSpec spec;
    spec.wstore = 8192;
    spec.precision = precision_int8();
    spec.eval.conditions.supply_v = tech.nominal_supply_v();
    spec.generate_rtl = false;
    spec.generate_layout = false;
    spec.dse.seed = 13;
    const CompilerResult result = compiler.run(spec);
    const auto& knee = result.selected.front().design;
    table.add_row({tech.name(), knee.point.to_string(),
                   strfmt("%.4f", knee.metrics.area_mm2),
                   strfmt("%.3f", knee.metrics.delay_ns),
                   strfmt("%.4f", knee.metrics.energy_per_mvm_nj),
                   strfmt("%.1f", knee.metrics.tops_per_w)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nShape checks: the 40nm-class node is larger/slower/hungrier, the "
      "16nm-class node smaller/thriftier;\nthe *relative* trade-off "
      "structure (and often the knee geometry itself) is stable across "
      "nodes.\n");
  return 0;
}
