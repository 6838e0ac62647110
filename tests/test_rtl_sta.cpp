#include "rtl/sta.h"

#include <gtest/gtest.h>

#include "cost/components.h"
#include "cost/macro_model.h"
#include "rtl/builders.h"
#include "rtl/harness.h"
#include "rtl/macro_builder.h"
#include "util/math.h"

namespace sega {
namespace {

class StaTest : public ::testing::Test {
 protected:
  Technology tech = Technology::tsmc28();
};

TEST_F(StaTest, InverterChainAccumulatesDelay) {
  Netlist nl("chain");
  const auto x = nl.add_input("x", 1);
  NetId cur = x[0];
  for (int i = 0; i < 5; ++i) {
    const NetId next = nl.new_net();
    nl.add_cell(CellKind::kInv, {cur}, {next});
    cur = next;
  }
  nl.add_output("y", {cur});
  const StaResult sta = run_sta(nl, tech);
  EXPECT_DOUBLE_EQ(sta.critical_delay(), 5 * tech.cell(CellKind::kInv).delay);
  EXPECT_EQ(sta.critical_path().cells.size(), 5u);
}

TEST_F(StaTest, TakesWorstInputBranch) {
  // y = NOR(long-chain(x), x): arrival = chain + NOR.
  Netlist nl("branch");
  const auto x = nl.add_input("x", 1);
  NetId cur = x[0];
  for (int i = 0; i < 3; ++i) {
    const NetId next = nl.new_net();
    nl.add_cell(CellKind::kInv, {cur}, {next});
    cur = next;
  }
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kNor, {cur, x[0]}, {y});
  nl.add_output("y", {y});
  const StaResult sta = run_sta(nl, tech);
  EXPECT_DOUBLE_EQ(sta.critical_delay(),
                   3 * tech.cell(CellKind::kInv).delay +
                       tech.cell(CellKind::kNor).delay);
}

TEST_F(StaTest, RegisterOutputsLaunchAtZero) {
  Netlist nl("reg");
  const auto d = nl.add_input("d", 1);
  const NetId q = nl.new_net();
  nl.add_cell(CellKind::kDff, {d[0]}, {q});
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {q}, {y});
  nl.add_output("y", {y});
  const StaResult sta = run_sta(nl, tech);
  EXPECT_DOUBLE_EQ(sta.arrival(q), 0.0);
  EXPECT_DOUBLE_EQ(sta.arrival(y), tech.cell(CellKind::kInv).delay);
}

TEST_F(StaTest, RippleAdderMatchesTable2Form) {
  // STA of the generated ripple adder must equal the Table II closed form
  // exactly: the carry chain is HA + (w-1) FA.
  for (int w : {2, 4, 8, 16}) {
    Netlist nl("add");
    const auto a = nl.add_input("a", w);
    const auto b = nl.add_input("b", w);
    nl.add_output("s", build_adder(nl, a, b));
    const StaResult sta = run_sta(nl, tech);
    EXPECT_DOUBLE_EQ(sta.critical_delay(), add_cost(tech, w).delay) << w;
  }
}

TEST_F(StaTest, SelectorMatchesTable2Form) {
  for (int n : {2, 4, 8, 16}) {
    Netlist nl("sel");
    const auto d = nl.add_input("d", n);
    const auto s = nl.add_input("s", ceil_log2(static_cast<std::uint64_t>(n)));
    nl.add_output("y", {build_selector(nl, d, s)});
    const StaResult sta = run_sta(nl, tech);
    EXPECT_DOUBLE_EQ(sta.critical_delay(), sel_cost(tech, n).delay) << n;
  }
}

TEST_F(StaTest, AdderTreeMatchesTable4Form) {
  for (const auto& [h, k] : {std::pair{4, 2}, {8, 4}, {16, 8}}) {
    Netlist nl("tree");
    std::vector<Bus> ins;
    for (int r = 0; r < h; ++r) {
      ins.push_back(nl.add_input("x" + std::to_string(r), k));
    }
    nl.add_output("sum", build_adder_tree(nl, ins));
    const StaResult sta = run_sta(nl, tech);
    // The tree's real critical path: the Table IV form sums full adder
    // delays per level, while the hardware's carry chains overlap between
    // levels, so STA must come in at or under the model (model = safe
    // upper bound) and within the final level's slack.
    const double model = adder_tree_cost(tech, h, k).delay;
    EXPECT_LE(sta.critical_delay(), model + 1e-9) << h << "x" << k;
    // ... but never faster than the final (widest) adder's own carry chain.
    const int levels = ilog2(static_cast<std::uint64_t>(h));
    EXPECT_GE(sta.critical_delay(),
              add_cost(tech, k + levels - 1).delay - 1e-9)
        << h << "x" << k;
  }
}

TEST_F(StaTest, BarrelShifterRealPathVsPaperForm) {
  // The paper's printed D_shift = log2(N) * D_sel(N) is quadratic in
  // log2(N); the real mux-tree path is one D_sel(N).  STA confirms the
  // generated shifter achieves the smaller real delay (the model is a
  // conservative envelope; see DESIGN.md §4).
  for (int w : {4, 8, 16}) {
    Netlist nl("sh");
    const auto d = nl.add_input("d", w);
    const auto s = nl.add_input("s", ceil_log2(static_cast<std::uint64_t>(w)));
    nl.add_output("y", build_right_shifter(nl, d, s));
    const StaResult sta = run_sta(nl, tech);
    EXPECT_DOUBLE_EQ(sta.critical_delay(), sel_cost(tech, w).delay) << w;
    EXPECT_LE(sta.critical_delay(), shift_cost(tech, w).delay) << w;
  }
}

TEST_F(StaTest, MacroRegisterSetupWithinModelClockPeriod) {
  // The macro's register setup path (array stage: buffer select + weight
  // select + multiply + adder tree + accumulator loop) must fit within the
  // cost model's clock period for the same design.
  DesignPoint dp;
  dp.precision = *precision_from_name("INT4");
  dp.arch = ArchKind::kMulCim;
  dp.n = 16;
  dp.h = 16;
  dp.l = 4;
  dp.k = 2;
  const DcimMacro macro = build_dcim_macro(dp);
  const StaResult sta = run_sta(macro.netlist, tech);
  const MacroMetrics m = evaluate_macro(tech, dp);
  EXPECT_GT(sta.worst_register_setup(), 0.0);
  EXPECT_LE(sta.worst_register_setup(), m.delay_gates + 1e-9);
  // And the model is not wildly conservative either (within 3x).
  EXPECT_GE(sta.worst_register_setup(), m.delay_gates / 3.0);
}

TEST_F(StaTest, FpMacroOutputsTimed) {
  DesignPoint dp;
  dp.precision = *precision_from_name("FP8");
  dp.arch = ArchKind::kFpCim;
  dp.n = 16;
  dp.h = 4;
  dp.l = 2;
  dp.k = 4;
  const DcimMacro macro = build_dcim_macro(dp);
  const StaResult sta = run_sta(macro.netlist, tech);
  // The INT-to-FP converter path makes primary outputs later than register
  // setup in this small config.
  EXPECT_GT(sta.worst_output(), 0.0);
  EXPECT_GT(sta.critical_delay(), 0.0);
  EXPECT_GE(sta.critical_delay(), sta.worst_output() - 1e-9);
}

TEST_F(StaTest, CriticalPathIsConnected) {
  Netlist nl("conn");
  const auto a = nl.add_input("a", 4);
  const auto b = nl.add_input("b", 4);
  nl.add_output("s", build_adder(nl, a, b));
  const StaResult sta = run_sta(nl, tech);
  const auto& path = sta.critical_path().cells;
  ASSERT_FALSE(path.empty());
  // Each step's output feeds the next step's input.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto& prev = nl.cells()[path[i]];
    const auto& next = nl.cells()[path[i + 1]];
    bool connected = false;
    for (const NetId out : prev.outputs) {
      for (const NetId in : next.inputs) {
        if (in == out) connected = true;
      }
    }
    EXPECT_TRUE(connected) << "path break at step " << i;
  }
}

TEST_F(StaTest, EmptyNetlistHasNoCriticalPath) {
  Netlist nl("empty");
  const StaResult sta = run_sta(nl, tech);
  EXPECT_EQ(sta.critical_delay(), 0.0);
  EXPECT_EQ(sta.critical_path().endpoint, kNoNet);
  EXPECT_TRUE(sta.critical_path().cells.empty());
  EXPECT_EQ(sta.worst_register_setup(), 0.0);
  EXPECT_EQ(sta.worst_output(), 0.0);
}

TEST_F(StaTest, HarnessTopologyTimesLikeAFreshLevelization) {
  // RtlCostModel propagates over the topology its harness already built;
  // that must time the macro exactly like run_sta's own levelization.
  DesignPoint dp;
  dp.precision = *precision_from_name("INT8");
  dp.arch = ArchKind::kMulCim;
  dp.n = 32;
  dp.h = 8;
  dp.l = 2;
  dp.k = 4;
  dp.pipelined_tree = true;
  const DcimHarness harness(dp);
  const Netlist& nl = harness.macro().netlist;
  const StaResult fresh = run_sta(nl, tech);
  const StaResult borrowed = run_sta(nl, harness.topology(), tech);
  EXPECT_EQ(borrowed.critical_delay(), fresh.critical_delay());
  EXPECT_EQ(borrowed.critical_path().endpoint, fresh.critical_path().endpoint);
  EXPECT_EQ(borrowed.critical_path().cells, fresh.critical_path().cells);
  EXPECT_EQ(borrowed.worst_register_setup(), fresh.worst_register_setup());
  EXPECT_EQ(borrowed.worst_output(), fresh.worst_output());
}

}  // namespace
}  // namespace sega
