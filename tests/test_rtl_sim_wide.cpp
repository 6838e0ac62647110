// GateSimWide — the 64-lane bit-parallel engine — differentially fuzzed
// against the scalar GateSim reference: over randomized netlists, stimulus,
// forced mid-trace writes and trace barriers, every lane's port reads and
// the summed per-kind / per-group toggle attribution must be bit-equal to
// independent scalar runs, at full lane count and odd remainder tails.
// Plus the trace-contract regressions this PR hardened: forced writes are
// programming (never billed), over-width set_input values and pre-trace
// accessor use are hard precondition failures.
#include "rtl/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cost/rtl_cost_model.h"
#include "rtl/harness.h"
#include "test_support.h"
#include "util/rng.h"

namespace sega {
namespace {

using test::expect_same_metrics;

// ------------------------------------------------------------- fuzz harness

struct FuzzEvent {
  enum Kind { kNone, kSram, kRegister, kClearRegisters, kBarrier };
  Kind kind = kNone;
  std::size_t index = 0;  // SRAM index / DFF cell index
  bool value = false;
};

/// One randomized sequential netlist plus a lane-replayable stimulus
/// schedule.  Forced events and barriers are shared across lanes (both
/// engines apply them to every lane); input values are per lane per step.
struct FuzzCase {
  Netlist nl{"fuzz"};
  std::vector<std::string> input_ports;
  std::vector<int> input_widths;
  std::string output_port;
  std::size_t sram_count = 0;
  std::vector<std::size_t> dff_cells;

  // stimulus[t][p][lane] = value of input port p at step t for that lane.
  std::vector<std::vector<std::vector<std::uint64_t>>> stimulus;
  std::vector<bool> initial_sram;
  std::vector<FuzzEvent> events;  // one per step (kNone = plain step)
};

FuzzCase make_fuzz_case(std::uint64_t seed, int lanes, int steps) {
  Rng rng(seed);
  FuzzCase fc;
  Netlist& nl = fc.nl;

  // Input ports.
  const int n_ports = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<NetId> pool;
  for (int p = 0; p < n_ports; ++p) {
    const int width = static_cast<int>(rng.uniform_int(1, 8));
    const std::string name = "in" + std::to_string(p);
    for (const NetId n : nl.add_input(name, width)) pool.push_back(n);
    fc.input_ports.push_back(name);
    fc.input_widths.push_back(width);
  }

  // SRAM bit cells (programmable storage in the pool).
  fc.sram_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
  for (std::size_t i = 0; i < fc.sram_count; ++i) {
    const NetId q = nl.new_net();
    nl.add_cell(CellKind::kSram, {}, {q});
    pool.push_back(q);
  }

  // Random combinational cells + DFFs across a few component groups.  New
  // cells only read existing nets and drive fresh ones, so the graph is a
  // DAG by construction.
  const std::array<const char*, 3> groups = {"core", "alpha", "beta"};
  const std::array<CellKind, 6> comb = {CellKind::kNor, CellKind::kOr,
                                        CellKind::kInv, CellKind::kMux2,
                                        CellKind::kHa,  CellKind::kFa};
  const int n_cells = static_cast<int>(rng.uniform_int(30, 90));
  for (int c = 0; c < n_cells; ++c) {
    nl.set_active_group(
        groups[static_cast<std::size_t>(rng.uniform_int(0, 2))]);
    if (rng.chance(0.15)) {  // sequential
      const NetId d =
          pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1))];
      const NetId q = nl.new_net();
      fc.dff_cells.push_back(nl.add_cell(CellKind::kDff, {d}, {q}));
      pool.push_back(q);
      continue;
    }
    const CellKind kind =
        comb[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const auto [n_in, n_out] = Netlist::cell_arity(kind);
    std::vector<NetId> ins, outs;
    for (int i = 0; i < n_in; ++i) {
      ins.push_back(pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))]);
    }
    for (int i = 0; i < n_out; ++i) {
      const NetId o = nl.new_net();
      outs.push_back(o);
      pool.push_back(o);
    }
    nl.add_cell(kind, ins, outs);
  }

  // Observe the freshest logic: the last (up to) 8 nets become the output.
  fc.output_port = "y";
  std::vector<NetId> outs(pool.end() - std::min<std::size_t>(8, pool.size()),
                          pool.end());
  nl.add_output(fc.output_port, outs);

  // Initial SRAM program + per-step stimulus / forced-event schedule.
  for (std::size_t i = 0; i < fc.sram_count; ++i) {
    fc.initial_sram.push_back(rng.chance(0.5));
  }
  fc.stimulus.resize(static_cast<std::size_t>(steps + 1));
  for (auto& step : fc.stimulus) {
    step.resize(fc.input_ports.size());
    for (std::size_t p = 0; p < fc.input_ports.size(); ++p) {
      step[p].resize(static_cast<std::size_t>(lanes));
      const std::int64_t hi = (std::int64_t{1} << fc.input_widths[p]) - 1;
      for (auto& v : step[p]) {
        v = static_cast<std::uint64_t>(rng.uniform_int(0, hi));
      }
    }
  }
  fc.events.resize(static_cast<std::size_t>(steps));
  for (auto& ev : fc.events) {
    const double roll = rng.uniform();
    if (roll < 0.12) {
      ev.kind = FuzzEvent::kSram;
      ev.index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fc.sram_count) - 1));
      ev.value = rng.chance(0.5);
    } else if (roll < 0.22 && !fc.dff_cells.empty()) {
      ev.kind = FuzzEvent::kRegister;
      ev.index = fc.dff_cells[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fc.dff_cells.size()) - 1))];
      ev.value = rng.chance(0.5);
    } else if (roll < 0.27) {
      ev.kind = FuzzEvent::kClearRegisters;
    } else if (roll < 0.32) {
      ev.kind = FuzzEvent::kBarrier;
    }
  }
  return fc;
}

struct TraceResult {
  std::array<std::int64_t, kCellKindCount> toggles{};
  std::vector<double> group_energy;
  double energy = 0.0;
  std::int64_t cycles = 0;
  std::vector<std::uint64_t> final_outputs;  // per lane
};

template <typename SimT>
void apply_event(SimT& sim, const FuzzEvent& ev) {
  switch (ev.kind) {
    case FuzzEvent::kNone:
      break;
    case FuzzEvent::kSram:
      sim.set_sram(ev.index, ev.value);
      break;
    case FuzzEvent::kRegister:
      sim.set_register(ev.index, ev.value);
      break;
    case FuzzEvent::kClearRegisters:
      sim.clear_registers();
      break;
    case FuzzEvent::kBarrier:
      sim.trace_barrier();
      break;
  }
}

TraceResult run_scalar_lanes(const FuzzCase& fc, int lanes,
                             const Technology& tech) {
  TraceResult r;
  r.group_energy.assign(fc.nl.group_names().size(), 0.0);
  r.final_outputs.resize(static_cast<std::size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    GateSim sim(fc.nl);
    for (std::size_t i = 0; i < fc.sram_count; ++i) {
      sim.set_sram(i, fc.initial_sram[i]);
    }
    for (std::size_t p = 0; p < fc.input_ports.size(); ++p) {
      sim.set_input(fc.input_ports[p],
                    fc.stimulus[0][p][static_cast<std::size_t>(lane)]);
    }
    sim.begin_energy_trace();
    for (std::size_t t = 0; t < fc.events.size(); ++t) {
      apply_event(sim, fc.events[t]);
      for (std::size_t p = 0; p < fc.input_ports.size(); ++p) {
        sim.set_input(fc.input_ports[p],
                      fc.stimulus[t + 1][p][static_cast<std::size_t>(lane)]);
      }
      sim.step();
    }
    for (std::size_t k = 0; k < r.toggles.size(); ++k) {
      r.toggles[k] += sim.toggle_counts()[k];
    }
    for (std::size_t g = 0; g < r.group_energy.size(); ++g) {
      r.group_energy[g] +=
          sim.traced_energy_of_group(tech, static_cast<int>(g));
    }
    r.energy += sim.traced_energy(tech);
    r.cycles += sim.traced_cycles();
    r.final_outputs[static_cast<std::size_t>(lane)] =
        sim.read_output(fc.output_port);
  }
  return r;
}

TraceResult run_wide_lanes(const FuzzCase& fc, int lanes,
                           const Technology& tech) {
  GateSimWide sim(fc.nl);
  sim.set_active_lanes(lanes);
  for (std::size_t i = 0; i < fc.sram_count; ++i) {
    sim.set_sram(i, fc.initial_sram[i]);
  }
  auto drive = [&](std::size_t t) {
    for (std::size_t p = 0; p < fc.input_ports.size(); ++p) {
      std::vector<std::uint64_t> bits(
          static_cast<std::size_t>(fc.input_widths[p]), 0);
      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t v =
            fc.stimulus[t][p][static_cast<std::size_t>(lane)];
        for (int b = 0; b < fc.input_widths[p]; ++b) {
          if ((v >> b) & 1u) {
            bits[static_cast<std::size_t>(b)] |= std::uint64_t{1} << lane;
          }
        }
      }
      sim.set_input_lanes(fc.input_ports[p], bits);
    }
  };
  drive(0);
  sim.begin_energy_trace();
  for (std::size_t t = 0; t < fc.events.size(); ++t) {
    apply_event(sim, fc.events[t]);
    drive(t + 1);
    sim.step();
  }
  TraceResult r;
  r.toggles = sim.toggle_counts();
  r.group_energy.resize(fc.nl.group_names().size());
  for (std::size_t g = 0; g < r.group_energy.size(); ++g) {
    r.group_energy[g] = sim.traced_energy_of_group(tech, static_cast<int>(g));
  }
  r.energy = sim.traced_energy(tech);
  r.cycles = sim.traced_cycles();
  for (int lane = 0; lane < lanes; ++lane) {
    r.final_outputs.push_back(sim.read_output_lane(fc.output_port, lane));
  }
  return r;
}

void expect_same_trace(const TraceResult& wide, const TraceResult& scalar,
                       std::uint64_t seed, int lanes) {
  for (std::size_t k = 0; k < wide.toggles.size(); ++k) {
    EXPECT_EQ(wide.toggles[k], scalar.toggles[k])
        << "seed " << seed << " lanes " << lanes << " kind " << k;
  }
  ASSERT_EQ(wide.group_energy.size(), scalar.group_energy.size());
  for (std::size_t g = 0; g < wide.group_energy.size(); ++g) {
    EXPECT_DOUBLE_EQ(wide.group_energy[g], scalar.group_energy[g])
        << "seed " << seed << " lanes " << lanes << " group " << g;
  }
  EXPECT_DOUBLE_EQ(wide.energy, scalar.energy) << "seed " << seed;
  EXPECT_EQ(wide.cycles, scalar.cycles) << "seed " << seed;
  ASSERT_EQ(wide.final_outputs.size(), scalar.final_outputs.size());
  for (std::size_t lane = 0; lane < wide.final_outputs.size(); ++lane) {
    EXPECT_EQ(wide.final_outputs[lane], scalar.final_outputs[lane])
        << "seed " << seed << " lane " << lane;
  }
}

TEST(GateSimWideFuzzTest, RandomNetlistsMatchScalarAtEveryLaneCount) {
  const Technology tech = Technology::tsmc28();
  // Full width, a single lane, and odd remainder tails.
  const int lane_counts[] = {1, 5, 63, 64};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int lanes : lane_counts) {
      const FuzzCase fc = make_fuzz_case(seed * 977, lanes, 12);
      const TraceResult scalar = run_scalar_lanes(fc, lanes, tech);
      const TraceResult wide = run_wide_lanes(fc, lanes, tech);
      expect_same_trace(wide, scalar, seed, lanes);
    }
  }
}

TEST(GateSimWideFuzzTest, InactiveTailLanesAreNeverBilled) {
  // The same stimulus traced with 3 active lanes out of a 64-lane word must
  // bill exactly the 3 scalar lanes, regardless of what the dead lanes do.
  const Technology tech = Technology::tsmc28();
  const FuzzCase fc = make_fuzz_case(4242, 3, 10);
  const TraceResult scalar = run_scalar_lanes(fc, 3, tech);
  const TraceResult wide = run_wide_lanes(fc, 3, tech);
  expect_same_trace(wide, scalar, 4242, 3);
}

// ------------------------------------------------- harness batch protocol

DesignPoint int4_point() {
  DesignPoint dp;
  dp.precision = *precision_from_name("INT4");
  dp.arch = ArchKind::kMulCim;
  dp.n = 16;
  dp.h = 16;
  dp.l = 4;
  dp.k = 2;
  return dp;
}

DesignPoint fp8_point() {
  DesignPoint dp;
  dp.precision = *precision_from_name("FP8");
  dp.arch = ArchKind::kFpCim;
  dp.n = 16;
  dp.h = 4;
  dp.l = 2;
  dp.k = 4;
  return dp;
}

/// Streams @p n_ops random INT operands through the scalar protocol and the
/// lane-packed batches (split into <=64-lane blocks), asserting outputs and
/// traced activity bit-equal.
void check_int_batch(const DesignPoint& dp, std::uint64_t seed, int n_ops) {
  const Technology tech = Technology::tsmc28();
  DcimHarness harness(dp);
  Rng rng(seed);
  const int bw = dp.precision.weight_bits();
  const int bx = dp.precision.input_bits();
  for (std::int64_t slot = 0; slot < dp.l; ++slot) {
    std::vector<std::vector<std::uint64_t>> weights(
        static_cast<std::size_t>(harness.macro().groups),
        std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
    for (auto& g : weights) {
      for (auto& w : g) {
        w = static_cast<std::uint64_t>(
            rng.uniform_int(0, (std::int64_t{1} << bw) - 1));
      }
    }
    harness.load_weights(weights, slot);
  }
  std::vector<std::vector<std::uint64_t>> operands(
      static_cast<std::size_t>(n_ops),
      std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
  std::vector<std::int64_t> slots(static_cast<std::size_t>(n_ops));
  for (int op = 0; op < n_ops; ++op) {
    for (auto& v : operands[static_cast<std::size_t>(op)]) {
      v = static_cast<std::uint64_t>(
          rng.uniform_int(0, (std::int64_t{1} << bx) - 1));
    }
    slots[static_cast<std::size_t>(op)] = op % dp.l;
  }

  GateSim& scalar = harness.sim();
  scalar.begin_energy_trace();
  std::vector<std::vector<std::uint64_t>> scalar_out;
  for (int op = 0; op < n_ops; ++op) {
    scalar_out.push_back(
        harness.compute_int(operands[static_cast<std::size_t>(op)],
                            slots[static_cast<std::size_t>(op)]));
  }

  GateSimWide& wide = harness.wide_sim();
  wide.begin_energy_trace();
  std::vector<std::vector<std::uint64_t>> wide_out;
  for (int base = 0; base < n_ops; base += GateSimWide::kLanes) {
    const int lanes = std::min(GateSimWide::kLanes, n_ops - base);
    const std::vector<std::vector<std::uint64_t>> block(
        operands.begin() + base, operands.begin() + base + lanes);
    const std::vector<std::int64_t> block_slots(
        slots.begin() + base, slots.begin() + base + lanes);
    auto results = harness.compute_int_batch(block, block_slots);
    for (auto& r : results) wide_out.push_back(std::move(r));
  }

  ASSERT_EQ(wide_out.size(), scalar_out.size());
  for (int op = 0; op < n_ops; ++op) {
    EXPECT_EQ(wide_out[static_cast<std::size_t>(op)],
              scalar_out[static_cast<std::size_t>(op)])
        << "operand " << op;
  }
  EXPECT_EQ(wide.traced_cycles(), scalar.traced_cycles());
  for (std::size_t k = 0; k < kCellKindCount; ++k) {
    EXPECT_EQ(wide.toggle_counts()[k], scalar.toggle_counts()[k])
        << "kind " << k;
  }
  EXPECT_DOUBLE_EQ(wide.traced_energy(tech), scalar.traced_energy(tech));
  const auto& names = harness.macro().netlist.group_names();
  for (std::size_t g = 0; g < names.size(); ++g) {
    EXPECT_DOUBLE_EQ(wide.traced_energy_of_group(tech, static_cast<int>(g)),
                     scalar.traced_energy_of_group(tech, static_cast<int>(g)))
        << names[g];
  }
}

TEST(DcimHarnessBatchTest, IntBatchMatchesScalarProtocol) {
  // Lane counts 1 and 64, plus odd remainder tails (7, 64+1).
  check_int_batch(int4_point(), 11, 1);
  check_int_batch(int4_point(), 12, 7);
  check_int_batch(int4_point(), 13, 64);
  check_int_batch(int4_point(), 14, 65);
}

TEST(DcimHarnessBatchTest, PipelinedTreeBatchMatchesScalarProtocol) {
  DesignPoint dp = int4_point();
  dp.pipelined_tree = true;
  check_int_batch(dp, 21, 7);
}

TEST(DcimHarnessBatchTest, FpBatchMatchesScalarProtocol) {
  const DesignPoint dp = fp8_point();
  const Technology tech = Technology::tsmc28();
  DcimHarness harness(dp);
  Rng rng(31);
  const int bw = dp.precision.weight_bits();
  const int be = dp.precision.exp_bits;
  const int bm = dp.precision.input_bits();
  for (std::int64_t slot = 0; slot < dp.l; ++slot) {
    std::vector<std::vector<std::uint64_t>> weights(
        static_cast<std::size_t>(harness.macro().groups),
        std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
    for (auto& g : weights) {
      for (auto& w : g) {
        w = static_cast<std::uint64_t>(
            rng.uniform_int(0, (std::int64_t{1} << bw) - 1));
      }
    }
    harness.load_weights(weights, slot);
  }
  const int n_ops = 5;
  std::vector<std::vector<std::uint64_t>> exponents(
      n_ops, std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
  auto mantissas = exponents;
  std::vector<std::int64_t> slots(n_ops);
  for (int op = 0; op < n_ops; ++op) {
    for (auto& e : exponents[static_cast<std::size_t>(op)]) {
      e = static_cast<std::uint64_t>(
          rng.uniform_int(0, (std::int64_t{1} << be) - 1));
    }
    for (auto& m : mantissas[static_cast<std::size_t>(op)]) {
      m = static_cast<std::uint64_t>(
          rng.uniform_int(0, (std::int64_t{1} << bm) - 1));
    }
    slots[static_cast<std::size_t>(op)] = op % dp.l;
  }

  GateSim& scalar = harness.sim();
  scalar.begin_energy_trace();
  std::vector<DcimHarness::FpOutput> scalar_out;
  for (int op = 0; op < n_ops; ++op) {
    scalar_out.push_back(
        harness.compute_fp(exponents[static_cast<std::size_t>(op)],
                           mantissas[static_cast<std::size_t>(op)],
                           slots[static_cast<std::size_t>(op)]));
  }
  GateSimWide& wide = harness.wide_sim();
  wide.begin_energy_trace();
  const auto wide_out = harness.compute_fp_batch(exponents, mantissas, slots);

  ASSERT_EQ(wide_out.size(), scalar_out.size());
  for (int op = 0; op < n_ops; ++op) {
    const auto& w = wide_out[static_cast<std::size_t>(op)];
    const auto& s = scalar_out[static_cast<std::size_t>(op)];
    EXPECT_EQ(w.mantissa, s.mantissa) << "operand " << op;
    EXPECT_EQ(w.exponent, s.exponent) << "operand " << op;
    EXPECT_EQ(w.max_exp, s.max_exp) << "operand " << op;
  }
  EXPECT_EQ(wide.traced_cycles(), scalar.traced_cycles());
  for (std::size_t k = 0; k < kCellKindCount; ++k) {
    EXPECT_EQ(wide.toggle_counts()[k], scalar.toggle_counts()[k]);
  }
  EXPECT_DOUBLE_EQ(wide.traced_energy(tech), scalar.traced_energy(tech));
}

// ------------------------------------------------ cost-model bit-identity

TEST(RtlCostModelEngineTest, WideAndScalarEnginesProduceIdenticalMetrics) {
  const Technology tech = Technology::tsmc28();
  RtlCostModelOptions scalar_opts;
  scalar_opts.threads = 1;
  scalar_opts.sim_engine = RtlSimEngine::kScalar;
  RtlCostModelOptions wide_opts;
  wide_opts.threads = 1;
  wide_opts.sim_engine = RtlSimEngine::kWide;

  EvalConditions sparse;
  sparse.input_sparsity = 0.4;
  DesignPoint pipelined = int4_point();
  pipelined.pipelined_tree = true;
  const std::vector<DesignPoint> points = {int4_point(), fp8_point(),
                                           pipelined};
  for (const DesignPoint& dp : points) {
    const RtlCostModel scalar(tech, sparse, scalar_opts);
    const RtlCostModel wide(tech, sparse, wide_opts);
    EXPECT_EQ(scalar.sim_engine(), RtlSimEngine::kScalar);
    EXPECT_EQ(wide.sim_engine(), RtlSimEngine::kWide);
    expect_same_metrics(wide.evaluate(dp), scalar.evaluate(dp));
  }
}

TEST(RtlCostModelEngineTest, AutoEngineResolvesEnvOverride) {
  const Technology tech = Technology::tsmc28();
  ASSERT_EQ(setenv("SEGA_RTL_SIM", "scalar", 1), 0);
  EXPECT_EQ(RtlCostModel(tech).sim_engine(), RtlSimEngine::kScalar);
  ASSERT_EQ(setenv("SEGA_RTL_SIM", "wide", 1), 0);
  EXPECT_EQ(RtlCostModel(tech).sim_engine(), RtlSimEngine::kWide);
  ASSERT_EQ(unsetenv("SEGA_RTL_SIM"), 0);
  EXPECT_EQ(RtlCostModel(tech).sim_engine(), RtlSimEngine::kWide);
}

// ----------------------------------------------- forced-write trace fixes

TEST(EnergyTraceContractTest, MidTraceReprogrammingIsNotComputeEnergy) {
  // SRAM -> INV: reprogramming the bit cell mid-trace must bill the
  // datapath's response (the inverter) but never the forced storage flip
  // itself.
  Netlist nl("reprogram");
  const NetId q = nl.new_net();
  nl.add_cell(CellKind::kSram, {}, {q});
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {q}, {y});
  nl.add_output("y", {y});
  GateSim sim(nl);
  sim.begin_energy_trace();
  sim.step();  // settled, quiet
  sim.set_sram(0, true);
  sim.step();
  EXPECT_EQ(sim.toggle_counts()[static_cast<std::size_t>(CellKind::kSram)], 0);
  EXPECT_EQ(sim.toggle_counts()[static_cast<std::size_t>(CellKind::kInv)], 1);
}

TEST(EnergyTraceContractTest, ForcedRegisterWritesAreNotComputeEnergy) {
  // Self-holding DFF feeding an inverter: set_register / clear_registers
  // mid-trace update the baseline, so the DFF bills nothing while the
  // inverter bills one event per forced flip it responds to.
  Netlist nl("force");
  const NetId q = nl.new_net();
  nl.add_cell(CellKind::kDff, {q}, {q});
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {q}, {y});
  nl.add_output("y", {y});
  GateSim sim(nl);
  sim.begin_energy_trace();
  sim.step();
  sim.set_register(0, true);
  sim.step();
  sim.clear_registers();
  sim.step();
  EXPECT_EQ(sim.toggle_counts()[static_cast<std::size_t>(CellKind::kDff)], 0);
  EXPECT_EQ(sim.toggle_counts()[static_cast<std::size_t>(CellKind::kInv)], 2);
}

TEST(EnergyTraceContractTest, BarrierExcludesPendingActivity) {
  // A barrier right before the step swallows the input-driven cone: the
  // settled state becomes the new baseline, so nothing is billed.
  Netlist nl("barrier");
  const auto x = nl.add_input("x", 1);
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {x[0]}, {y});
  nl.add_output("y", {y});
  GateSim sim(nl);
  sim.set_input("x", 0);
  sim.begin_energy_trace();
  sim.set_input("x", 1);
  sim.trace_barrier();
  sim.step();
  EXPECT_DOUBLE_EQ(sim.traced_energy(Technology::tsmc28()), 0.0);
}

// --------------------------------------------------- hard trace contracts

TEST(GateSimContractDeathTest, SetInputRejectsOverWidthValues) {
  Netlist nl("width");
  nl.add_input("x", 3);
  nl.add_output("y", nl.add_input("z", 1));
  GateSim sim(nl);
  sim.set_input("x", 7);  // in range
  EXPECT_DEATH(sim.set_input("x", 8), "precondition");
  GateSimWide wide(nl);
  wide.set_input_all("x", 7);
  EXPECT_DEATH(wide.set_input_all("x", 8), "precondition");
}

TEST(GateSimContractDeathTest, TraceAccessorsRequireAnActiveTrace) {
  Netlist nl("early");
  const auto x = nl.add_input("x", 1);
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {x[0]}, {y});
  nl.add_output("y", {y});
  const Technology tech = Technology::tsmc28();
  GateSim sim(nl);
  EXPECT_DEATH(sim.traced_energy(tech), "precondition");
  EXPECT_DEATH(sim.traced_energy_of_group(tech, 0), "precondition");
  EXPECT_DEATH(sim.toggle_counts(), "precondition");
  EXPECT_DEATH(sim.traced_cycles(), "precondition");
  GateSimWide wide(nl);
  EXPECT_DEATH(wide.traced_energy(tech), "precondition");
  EXPECT_DEATH(wide.traced_energy_of_group(tech, 0), "precondition");
}

TEST(GateSimContractDeathTest, ReadOutputLaneRequiresActiveLane) {
  Netlist nl("lanes");
  nl.add_output("y", nl.add_input("x", 2));
  GateSimWide wide(nl);
  wide.set_active_lanes(3);
  wide.read_output_lane("y", 2);  // in range
  EXPECT_DEATH(wide.read_output_lane("y", 3), "precondition");
  EXPECT_DEATH(wide.set_active_lanes(65), "precondition");
}

}  // namespace
}  // namespace sega
