// End-to-end verification: the template-generated macro netlists compute the
// matrix-vector products the architecture promises, at the gate level.
#include "rtl/harness.h"

#include <gtest/gtest.h>

#include "arch/space.h"
#include "cost/macro_model.h"
#include "util/rng.h"

namespace sega {
namespace {

DesignPoint int_point(const Precision& p, std::int64_t n, std::int64_t h,
                      std::int64_t l, std::int64_t k) {
  DesignPoint dp;
  dp.arch = arch_for(p);
  dp.precision = p;
  dp.n = n;
  dp.h = h;
  dp.l = l;
  dp.k = k;
  return dp;
}

/// Reference unsigned MVM for one group and slot.
std::uint64_t reference_mac(const std::vector<std::uint64_t>& inputs,
                            const std::vector<std::uint64_t>& weights) {
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < inputs.size(); ++r) acc += inputs[r] * weights[r];
  return acc;
}

struct IntConfig {
  std::int64_t n, h, l, k;
  const char* precision;
};

class MacroIntTest : public ::testing::TestWithParam<IntConfig> {};

TEST_P(MacroIntTest, MatchesReferenceMvm) {
  const auto cfg = GetParam();
  const auto p = precision_from_name(cfg.precision);
  ASSERT_TRUE(p.has_value());
  DcimHarness harness(int_point(*p, cfg.n, cfg.h, cfg.l, cfg.k));
  const int groups = harness.macro().groups;
  const int bx = p->input_bits();
  const int bw = p->weight_bits();

  Rng rng(2024);
  for (std::int64_t slot = 0; slot < std::min<std::int64_t>(cfg.l, 2); ++slot) {
    std::vector<std::vector<std::uint64_t>> weights(
        static_cast<std::size_t>(groups));
    for (auto& g : weights) {
      g.resize(static_cast<std::size_t>(cfg.h));
      for (auto& w : g) {
        w = static_cast<std::uint64_t>(rng.uniform_int(0, (1 << bw) - 1));
      }
    }
    harness.load_weights(weights, slot);

    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::uint64_t> inputs(static_cast<std::size_t>(cfg.h));
      for (auto& x : inputs) {
        x = static_cast<std::uint64_t>(rng.uniform_int(0, (1 << bx) - 1));
      }
      const auto out = harness.compute_int(inputs, slot);
      ASSERT_EQ(static_cast<int>(out.size()), groups);
      for (int g = 0; g < groups; ++g) {
        EXPECT_EQ(out[static_cast<std::size_t>(g)],
                  reference_mac(inputs, weights[static_cast<std::size_t>(g)]))
            << "group " << g << " slot " << slot;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MacroIntTest,
    ::testing::Values(
        IntConfig{8, 4, 2, 2, "INT2"},    // minimal geometry
        IntConfig{16, 4, 4, 4, "INT4"},   // full-parallel input (k = Bx)
        IntConfig{16, 8, 2, 1, "INT4"},   // fully bit-serial (k = 1)
        IntConfig{32, 8, 2, 3, "INT8"},   // k does not divide Bx (ceil)
        IntConfig{32, 16, 1, 4, "INT8"},  // L = 1 (no selection tree)
        IntConfig{64, 4, 4, 8, "INT16"}   // wide weights
        ));

TEST(MacroIntEdgeTest, AllZeroInputsGiveZero) {
  const auto p = precision_int4();
  DcimHarness harness(int_point(*precision_from_name("INT4"), 16, 4, 4, 2));
  std::vector<std::vector<std::uint64_t>> weights(
      static_cast<std::size_t>(harness.macro().groups),
      std::vector<std::uint64_t>(4, 15));
  harness.load_weights(weights, 0);
  const auto out = harness.compute_int({0, 0, 0, 0}, 0);
  for (const auto v : out) EXPECT_EQ(v, 0u);
  (void)p;
}

TEST(MacroIntEdgeTest, MaxInputsMaxWeights) {
  // Saturating case exercises the full accumulator width.
  DcimHarness harness(int_point(*precision_from_name("INT4"), 16, 8, 2, 2));
  std::vector<std::vector<std::uint64_t>> weights(
      static_cast<std::size_t>(harness.macro().groups),
      std::vector<std::uint64_t>(8, 15));
  harness.load_weights(weights, 0);
  const std::vector<std::uint64_t> inputs(8, 15);
  const auto out = harness.compute_int(inputs, 0);
  for (const auto v : out) EXPECT_EQ(v, 8u * 15u * 15u);
}

TEST(MacroIntEdgeTest, SlotIsolation) {
  // Weights in other slots must not disturb the selected slot.
  DcimHarness harness(int_point(*precision_from_name("INT4"), 16, 4, 4, 4));
  const int groups = harness.macro().groups;
  for (std::int64_t slot = 0; slot < 4; ++slot) {
    std::vector<std::vector<std::uint64_t>> w(
        static_cast<std::size_t>(groups),
        std::vector<std::uint64_t>(4, static_cast<std::uint64_t>(slot + 1)));
    harness.load_weights(w, slot);
  }
  const std::vector<std::uint64_t> inputs = {1, 2, 3, 4};  // sum 10
  for (std::int64_t slot = 0; slot < 4; ++slot) {
    const auto out = harness.compute_int(inputs, slot);
    for (const auto v : out) {
      EXPECT_EQ(v, 10u * static_cast<std::uint64_t>(slot + 1)) << slot;
    }
  }
}

TEST(MacroIntEdgeTest, BackToBackOperandsIndependent) {
  DcimHarness harness(int_point(*precision_from_name("INT8"), 32, 4, 1, 4));
  const int groups = harness.macro().groups;
  std::vector<std::vector<std::uint64_t>> w(
      static_cast<std::size_t>(groups), {3, 7, 11, 13});
  harness.load_weights(w, 0);
  const auto out1 = harness.compute_int({100, 200, 50, 25}, 0);
  const auto out2 = harness.compute_int({1, 1, 1, 1}, 0);
  for (const auto v : out2) EXPECT_EQ(v, 3u + 7u + 11u + 13u);
  for (const auto v : out1) {
    EXPECT_EQ(v, 100u * 3 + 200u * 7 + 50u * 11 + 25u * 13);
  }
}

TEST(MacroCensusTest, IntMacroMatchesCostModelExactly) {
  // bx=4, h=16 -> accumulator width 8 (pow2) and k | Bx: every cell kind
  // must match the Table V assembly exactly.
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = int_point(*precision_from_name("INT4"), 16, 16, 4, 2);
  const DcimMacro macro = build_dcim_macro(dp);
  const MacroMetrics metrics = evaluate_macro(tech, dp);
  EXPECT_TRUE(macro.netlist.census() == metrics.gates)
      << "netlist " << macro.netlist.census().to_string() << "\n model "
      << metrics.gates.to_string();
}

TEST(MacroCensusTest, FpMacroCoreMatchesCostModel) {
  // FP macro: FA/HA/DFF/SRAM/NOR must match; MUX2/OR/INV carry documented
  // glue (alignment flush, LZD encoder, buffer inverters).
  const Technology tech = Technology::tsmc28();
  DesignPoint dp;
  dp.arch = ArchKind::kFpCim;
  dp.precision = precision_fp8_e4m3();  // bm=4
  dp.n = 16;
  dp.h = 4;
  dp.l = 2;
  dp.k = 4;
  const DcimMacro macro = build_dcim_macro(dp);
  const MacroMetrics metrics = evaluate_macro(tech, dp);
  const GateCount rtl = macro.netlist.census();
  EXPECT_EQ(rtl[CellKind::kSram], metrics.gates[CellKind::kSram]);
  EXPECT_EQ(rtl[CellKind::kDff], metrics.gates[CellKind::kDff]);
  EXPECT_EQ(rtl[CellKind::kFa], metrics.gates[CellKind::kFa]);
  EXPECT_EQ(rtl[CellKind::kHa], metrics.gates[CellKind::kHa]);
  EXPECT_GE(rtl[CellKind::kMux2], metrics.gates[CellKind::kMux2]);
  // NOR: model counts the multipliers; RTL adds flush/zero gating.
  EXPECT_GE(rtl[CellKind::kNor], metrics.gates[CellKind::kNor]);
}

TEST(MacroCensusTest, CellCountPredictsEveryElaboratedCell) {
  // build_dcim_macro sizes its netlist to dcim_macro_cell_count before it
  // elaborates, so the count must be exact, beyond the cost model's census:
  // padded shifter candidates, non-power-of-two accumulators, FP glue, the
  // signed fusion subtractor and the pipelined tree's register banks.
  for (const char* name :
       {"INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16", "FP32"}) {
    const auto all =
        DesignSpace(256, *precision_from_name(name)).enumerate_all();
    for (std::size_t i = 0; i < all.size(); i += all.size() / 5 + 1) {
      DesignPoint dp = all[i];
      SCOPED_TRACE(dp.to_string());
      EXPECT_EQ(dcim_macro_cell_count(dp),
                build_dcim_macro(dp).netlist.cells().size());
      dp.pipelined_tree = true;
      EXPECT_EQ(dcim_macro_cell_count(dp),
                build_dcim_macro(dp).netlist.cells().size())
          << "pipelined";
      if (dp.arch == ArchKind::kMulCim) {
        dp.pipelined_tree = false;
        dp.signed_weights = true;
        EXPECT_EQ(dcim_macro_cell_count(dp),
                  build_dcim_macro(dp).netlist.cells().size())
            << "signed";
      }
    }
  }
}

TEST(MacroFpTest, FpMacroComputesAlignedMvm) {
  // FP8 E4M3, small geometry.  All-positive stimuli (see DESIGN.md on
  // signedness); reference implements the same alignment truncation.
  DesignPoint dp;
  dp.arch = ArchKind::kFpCim;
  dp.precision = precision_fp8_e4m3();  // be=4, bm(compute)=4
  dp.n = 16;
  dp.h = 4;
  dp.l = 2;
  dp.k = 4;
  DcimHarness harness(dp);
  const int groups = harness.macro().groups;  // 16/4 = 4

  Rng rng(9);
  std::vector<std::vector<std::uint64_t>> weights(
      static_cast<std::size_t>(groups));
  for (auto& g : weights) {
    g.resize(4);
    for (auto& w : g) w = static_cast<std::uint64_t>(rng.uniform_int(0, 15));
  }
  harness.load_weights(weights, 0);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> exps(4), mants(4);
    std::uint64_t emax = 0;
    for (int r = 0; r < 4; ++r) {
      exps[static_cast<std::size_t>(r)] =
          static_cast<std::uint64_t>(rng.uniform_int(0, 15));
      mants[static_cast<std::size_t>(r)] =
          static_cast<std::uint64_t>(rng.uniform_int(0, 15));
      emax = std::max(emax, exps[static_cast<std::size_t>(r)]);
    }
    const auto out = harness.compute_fp(exps, mants, 0);
    EXPECT_EQ(out.max_exp, emax);

    for (int g = 0; g < groups; ++g) {
      // Reference: align (truncate), integer MAC, normalize to FP.
      std::uint64_t acc = 0;
      for (int r = 0; r < 4; ++r) {
        const std::uint64_t off = emax - exps[static_cast<std::size_t>(r)];
        const std::uint64_t aligned =
            off >= 4 ? 0 : (mants[static_cast<std::size_t>(r)] >> off);
        acc += aligned * weights[static_cast<std::size_t>(g)]
                                [static_cast<std::size_t>(r)];
      }
      if (acc == 0) {
        EXPECT_EQ(out.mantissa[static_cast<std::size_t>(g)], 0u);
        EXPECT_EQ(out.exponent[static_cast<std::size_t>(g)], 0u);
      } else {
        const int p = 63 - __builtin_clzll(acc);
        const int br = harness.macro().out_width;
        const std::uint64_t norm = acc << (br - 1 - p);
        const std::uint64_t mant_expect =
            (norm >> (br - 4)) & 0xF;  // top bm=4 bits
        EXPECT_EQ(out.mantissa[static_cast<std::size_t>(g)], mant_expect);
        // The exponent rides a BE-bit bus: congruent mod 2^BE (results whose
        // true exponent exceeds the field wrap, a documented range limit of
        // the narrow-exponent formats).
        EXPECT_EQ(out.exponent[static_cast<std::size_t>(g)],
                  static_cast<std::uint64_t>(p + 7) & 0xF);  // bias 2^3-1
      }
    }
  }
}

TEST(MacroStructureTest, SramIndexLayout) {
  const DesignPoint dp = int_point(*precision_from_name("INT4"), 16, 4, 4, 2);
  const DcimMacro macro = build_dcim_macro(dp);
  EXPECT_EQ(macro.netlist.sram_cells().size(),
            static_cast<std::size_t>(16 * 4 * 4));
  EXPECT_EQ(macro.sram_index(0, 0, 0), 0u);
  EXPECT_EQ(macro.sram_index(0, 0, 1), 1u);
  EXPECT_EQ(macro.sram_index(0, 1, 0), 4u);
  EXPECT_EQ(macro.sram_index(1, 0, 0), 16u);
}

TEST(MacroStructureTest, PortInventory) {
  const DesignPoint dp = int_point(*precision_from_name("INT8"), 32, 4, 2, 3);
  const DcimMacro macro = build_dcim_macro(dp);
  EXPECT_EQ(macro.cycles, 3);  // ceil(8/3)
  EXPECT_NE(macro.netlist.find_port("slice"), nullptr);
  EXPECT_NE(macro.netlist.find_port("wsel"), nullptr);
  EXPECT_NE(macro.netlist.find_port("inb0"), nullptr);
  EXPECT_NE(macro.netlist.find_port("inb3"), nullptr);
  EXPECT_NE(macro.netlist.find_port("out0"), nullptr);
  EXPECT_EQ(macro.groups, 4);
  EXPECT_EQ(macro.netlist.find_port("out3")->nets.size(),
            static_cast<std::size_t>(macro.out_width));
}

}  // namespace
}  // namespace sega
