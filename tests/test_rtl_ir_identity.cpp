// Byte-identity pins for everything computed from an elaborated netlist.
//
// For a handful of small valid design points (one per arithmetic family,
// plus a pipelined adder tree and signed weights) this test stores literal
// fnv1a32 digests of:
//   - write_verilog() text;
//   - write_def(floorplan_macro()) text;
//   - run_sta(): critical arrival bits, endpoint net and path cells;
//   - estimate_layout_cost(): nets, wire_total_um and wire_max_um bits;
//   - the memo entry line RtlCostModel::evaluate() persists, under the
//     wide and the scalar simulation engine alike.
//
// Cell order, net numbering and group numbering are part of every one of
// these bytes, so any change to how a netlist is stored, levelized or
// walked that moves an output shows up here as a digest mismatch.  A change
// that is meant to alter an output updates the literals in the same commit;
// the failure message prints the full replacement table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cost/cost_cache.h"
#include "cost/eval_context.h"
#include "cost/layout_cost.h"
#include "cost/rtl_cost_model.h"
#include "layout/def_writer.h"
#include "layout/floorplan.h"
#include "rtl/macro_builder.h"
#include "rtl/sta.h"
#include "rtl/verilog.h"
#include "test_support.h"
#include "util/strings.h"

namespace sega {
namespace {

struct Pinned {
  const char* label;
  const char* precision;
  std::int64_t n, h, l, k;
  bool signed_weights;
  bool pipelined_tree;
  std::uint32_t verilog;
  std::uint32_t def;
  std::uint32_t sta;
  std::uint32_t layout;
  std::uint32_t memo;
};

// clang-format off
const Pinned kPinned[] = {
    {"int4",      "INT4",  16, 16, 4, 2, false, false,
     0xfefe9f2eu, 0xfb491a72u, 0x85674826u, 0xcdf46ec7u, 0x33bcb676u},
    {"int8",      "INT8",  32,  8, 2, 4, false, false,
     0xfa4c6d4au, 0x93c0412fu, 0xbb66d85au, 0x93637811u, 0x7a172260u},
    {"int16",     "INT16", 64,  4, 1, 8, false, false,
     0x7f5c8728u, 0x9eced484u, 0xedba9e5au, 0x2d5050edu, 0xc73b9ef7u},
    {"fp8",       "FP8",   16,  4, 2, 4, false, false,
     0x7ed17023u, 0x22a3967fu, 0xf2d4d41eu, 0xa572b6d4u, 0x6a4491dbu},
    {"fp16",      "FP16",  64,  4, 1, 4, false, false,
     0x32d28269u, 0x03f0ec9cu, 0x3923da7fu, 0x0b5a802du, 0x0850736cu},
    {"bf16",      "BF16",  32,  4, 2, 8, false, false,
     0xad3b94feu, 0x8e0214afu, 0xf9224c98u, 0x163e5cceu, 0xb249ea80u},
    {"pipelined", "INT4",  16, 16, 4, 2, false, true,
     0xff20d0f8u, 0x6e67546bu, 0x542bc767u, 0x43ff4d9du, 0xa56ef508u},
    {"signed",    "INT8",  32,  8, 2, 8, true,  false,
     0xe38619bau, 0x0ee375ffu, 0x07211041u, 0x2f2add54u, 0x9e8b205bu},
};
// clang-format on

DesignPoint point_of(const Pinned& p) {
  DesignPoint dp;
  dp.precision = *precision_from_name(p.precision);
  dp.arch = arch_for(dp.precision);
  dp.n = p.n;
  dp.h = p.h;
  dp.l = p.l;
  dp.k = p.k;
  dp.signed_weights = p.signed_weights;
  dp.pipelined_tree = p.pipelined_tree;
  return dp;
}

std::string bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return strfmt("%016llx", static_cast<unsigned long long>(u));
}

std::uint32_t sta_digest(const Netlist& nl, const Technology& tech) {
  const StaResult sta = run_sta(nl, tech);
  std::string text = bits_of(sta.critical_delay());
  text += strfmt(" %u", sta.critical_path().endpoint);
  for (const std::size_t ci : sta.critical_path().cells) {
    text += strfmt(" %zu", ci);
  }
  return fnv1a32(text);
}

std::uint32_t layout_digest(const EvalContext& ctx, const DcimMacro& macro) {
  const LayoutCost lc = estimate_layout_cost(ctx, macro);
  return fnv1a32(strfmt("%zu ", lc.nets) + bits_of(lc.wire_total_um) + " " +
                 bits_of(lc.wire_max_um));
}

/// The entry line (the memo's second line, after the header) a cold
/// CostCache persists for @p dp under @p engine.
std::uint32_t memo_digest(const Technology& tech, const DesignPoint& dp,
                          RtlSimEngine engine, const std::string& path) {
  RtlCostModelOptions options;
  options.threads = 1;
  options.sim_engine = engine;
  const RtlCostModel model(tech, EvalConditions{}, options);
  CostCache cache(model);
  cache.evaluate(dp);
  std::string error;
  EXPECT_TRUE(cache.save(path, &error)) << error;
  const auto lines = test::read_jsonl_lines(path);
  EXPECT_EQ(lines.size(), 2u);
  return lines.size() == 2 ? fnv1a32(lines[1]) : 0u;
}

TEST(RtlIrIdentityTest, NetlistConsumersAreByteIdentical) {
  const Technology tech = Technology::tsmc28();
  const EvalContext ctx(tech, EvalConditions{});
  test::ScopedTempDir dir("rtl_ir_identity");
  std::ostringstream table;
  bool all_match = true;
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.label);
    const DesignPoint dp = point_of(p);
    const DcimMacro macro = build_dcim_macro(dp);
    const Netlist& nl = macro.netlist;

    const std::uint32_t verilog = fnv1a32(write_verilog(nl));
    const std::uint32_t def =
        fnv1a32(write_def(floorplan_macro(tech, macro), nl));
    const std::uint32_t sta = sta_digest(nl, tech);
    const std::uint32_t layout = layout_digest(ctx, macro);
    const std::string memo_path = dir.file(std::string(p.label) + ".jsonl");
    const std::uint32_t wide =
        memo_digest(tech, dp, RtlSimEngine::kWide, memo_path);
    const std::uint32_t scalar =
        memo_digest(tech, dp, RtlSimEngine::kScalar, memo_path);

    EXPECT_EQ(verilog, p.verilog) << "write_verilog";
    EXPECT_EQ(def, p.def) << "write_def";
    EXPECT_EQ(sta, p.sta) << "run_sta";
    EXPECT_EQ(layout, p.layout) << "estimate_layout_cost";
    EXPECT_EQ(wide, p.memo) << "memo entry, wide engine";
    EXPECT_EQ(scalar, p.memo) << "memo entry, scalar engine";
    all_match = all_match && verilog == p.verilog && def == p.def &&
                sta == p.sta && layout == p.layout && wide == p.memo &&
                scalar == p.memo;
    table << strfmt(
        "    {\"%s\", \"%s\", %lld, %lld, %lld, %lld, %s, %s, "
        "0x%08xu, 0x%08xu, 0x%08xu, 0x%08xu, 0x%08xu},\n",
        p.label, p.precision, static_cast<long long>(p.n),
        static_cast<long long>(p.h), static_cast<long long>(p.l),
        static_cast<long long>(p.k), p.signed_weights ? "true" : "false",
        p.pipelined_tree ? "true" : "false", verilog, def, sta, layout,
        wide);
  }
  EXPECT_TRUE(all_match) << "digests as computed:\n" << table.str();
}

}  // namespace
}  // namespace sega
