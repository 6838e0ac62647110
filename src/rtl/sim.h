// Levelized gate-level simulators for sega::Netlist.
//
// Two engines share one topological structure (SimTopology), which static
// timing analysis (rtl/sta.h) reads as well.  An engine either builds its
// own or borrows one that outlives it; DcimHarness levelizes each netlist
// once and lends that topology to whichever engines it builds.
//
//  * GateSim — the scalar reference: one byte per net, one workload vector
//    per settle pass.  This is the verification back-end that proves the
//    template-generated netlists compute the MVMs the behavioral model and
//    the cost model assume.
//  * GateSimWide — the 64-lane bit-parallel engine: one std::uint64_t word
//    per net, bit k of every word belonging to independent lane k.  Gates
//    evaluate as word-level boolean ops, so one settle pass advances 64
//    workload vectors at once; switching activity is derived by popcount of
//    XOR between successive settled lane words.  Bit-identity rule: with the
//    same stimulus per lane, every lane's trajectory, toggle attribution and
//    traced cycle count are exactly the scalar engine's (asserted by the
//    differential fuzz suite in test_rtl_sim_wide).
//
// Combinational cells are evaluated once per settle in topological order
// (construction rejects combinational loops).  DFFs update on step(); SRAM
// bits are programmable storage.
//
// Energy-trace contract (both engines):
//  * begin_energy_trace() opens the window; every trace accessor below hard
//    -errors (precondition) until it has been called.
//  * record happens on step(): the settled state is compared against the
//    previous settled baseline and transitions are billed to the driving
//    cell's kind and component group.
//  * Forced state writes (set_sram, set_register, clear_registers) are
//    *programming*, not compute activity: they update the trace baseline of
//    the forced net, so the forced flip itself is never billed.  The
//    datapath's combinational response to the new state is real switching
//    and is billed at the next record.
//  * trace_barrier() re-baselines the whole settled state without clearing
//    counters: everything applied since the last record (operand setup,
//    forced writes and their settled cones) is excluded from the
//    measurement.  The harness uses it to open each operand's window on a
//    fully-specified state, which is what makes operand traces history-free
//    and therefore lane-packable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/netlist.h"
#include "util/assert.h"

namespace sega {

/// Topological evaluation structure shared by the scalar and lane-packed
/// engines and by STA: validates the netlist, levelizes the combinational
/// cells with Kahn's algorithm over a compressed dependents table (aborts on
/// loops), and records per-net driver metadata for energy attribution.
/// Immutable once built, so any number of engines may read it at once.
struct SimTopology {
  /// net_driver_kind of a net no cell drives (ports, constants).
  static constexpr std::uint8_t kUndriven = 0xFF;

  explicit SimTopology(const Netlist& nl);

  std::vector<std::uint32_t> eval_order;       ///< combinational cells
  std::vector<std::uint32_t> dff_cells;        ///< DFF cells, ascending
  std::vector<std::uint8_t> net_driver_kind;   ///< per net: CellKind, or
                                               ///< kUndriven
  std::vector<std::uint8_t> net_driver_group;  ///< per net; 0 ("core")
                                               ///< when undriven
};

class GateSim {
 public:
  /// Builds evaluation order; aborts (contract violation) on malformed
  /// netlists or combinational loops.
  explicit GateSim(const Netlist& nl);
  /// Borrows @p topo, which must be @p nl's and outlive the engine.
  GateSim(const Netlist& nl, const SimTopology& topo);

  /// Drive an input port with an unsigned value (width <= 64).  Bits above
  /// the port width must be zero: value >> width == 0.
  void set_input(const std::string& port, std::uint64_t value);

  /// Read an output port as an unsigned value (width <= 64); settles
  /// combinational logic first.
  std::uint64_t read_output(const std::string& port);

  /// Program the @p i-th SRAM bit cell (index into netlist.sram_cells()).
  void set_sram(std::size_t i, bool value);

  /// Force the state of the DFF at cell index @p cell (e.g. accumulator
  /// clear between operands).
  void set_register(std::size_t cell, bool value);

  /// Set every DFF to 0.
  void clear_registers();

  /// One clock edge: settle combinational logic, then capture all DFF
  /// inputs into their outputs.
  void step();

  /// Settle combinational logic without clocking.
  void eval();

  /// Current value of an arbitrary net (settles first).
  bool net_value(NetId n);

  // --- activity-based energy tracing ---
  // Counts output transitions between consecutive settled clock cycles and
  // weights them by the per-cell switching energies of a Technology: a
  // gate-level dynamic-energy measurement to cross-check the analytical
  // model (which assumes one event per cell per cycle before the activity
  // factor).
  /// Start (or restart) tracing; the current settled state becomes the
  /// baseline.
  void begin_energy_trace();
  /// Re-baseline on the current settled state without clearing counters
  /// (see the forced-write / operand-window contract above).  No-op when
  /// tracing is inactive.
  void trace_barrier();
  /// Switching events recorded per cell kind since begin_energy_trace.
  const std::array<std::int64_t, kCellKindCount>& toggle_counts() const {
    SEGA_EXPECTS(tracing_);
    return toggles_;
  }
  /// Normalized traced energy: sum over events of the cell's Table III
  /// switching energy.
  double traced_energy(const Technology& tech) const;
  /// Traced energy restricted to one component group (netlist.group_names()
  /// index): events are attributed to the group of the driving cell, so the
  /// per-group energies sum to traced_energy().  Lets a measured cost model
  /// report the same per-component energy breakdown the analytic model
  /// derives from the census.
  double traced_energy_of_group(const Technology& tech, int group) const;
  /// Clock cycles observed since begin_energy_trace.
  std::int64_t traced_cycles() const {
    SEGA_EXPECTS(tracing_);
    return traced_cycles_;
  }

 private:
  const Netlist& nl_;
  std::unique_ptr<const SimTopology> owned_topo_;  // null when borrowed
  const SimTopology& topo_;
  std::vector<std::uint8_t> values_;       // per net
  std::vector<std::uint8_t> dff_next_;     // step() scratch, hoisted out of
                                           // the clock loop
  bool dirty_ = true;

  bool tracing_ = false;
  std::vector<std::uint8_t> trace_prev_;   // per net, last settled cycle
  std::array<std::int64_t, kCellKindCount> toggles_{};
  // Per-(component group, cell kind) switching events, groups indexed as
  // netlist.group_names().
  std::vector<std::array<std::int64_t, kCellKindCount>> toggles_by_group_;
  std::int64_t traced_cycles_ = 0;

  void eval_cell(CellKind kind, const NetId* pins);
  void record_toggles();
  void note_forced_write(NetId n);
};

/// 64-lane bit-parallel engine: lane k of every per-net word is an
/// independent simulation.  SRAM programming and forced register writes
/// apply to all lanes (weights and resets are shared across a workload
/// block); input ports take either per-lane packed words or one broadcast
/// value.  Toggle counts are summed over the active lanes by popcount, so
/// with L active lanes one record equals L scalar records.
class GateSimWide {
 public:
  static constexpr int kLanes = 64;

  explicit GateSimWide(const Netlist& nl);
  /// Borrows @p topo, which must be @p nl's and outlive the engine.
  GateSimWide(const Netlist& nl, const SimTopology& topo);

  /// Lanes [0, lanes) are live: billed by the energy trace and meaningful
  /// to read.  Lanes >= lanes still simulate (bitwise ops are lane-blind)
  /// but are masked out of every measurement — the odd-tail mechanism for
  /// operand counts not divisible by 64.
  void set_active_lanes(int lanes);
  int active_lanes() const { return active_lanes_; }

  /// Drive bit i of @p port with bit_words[i]; bit k of each word is lane
  /// k's value.  bit_words.size() must equal the port width.
  void set_input_lanes(const std::string& port,
                       const std::vector<std::uint64_t>& bit_words);
  /// Drive every lane with the same unsigned value (control inputs: slice,
  /// valid).  Same width contract as GateSim::set_input.
  void set_input_all(const std::string& port, std::uint64_t value);
  /// Read an output port as lane @p lane's unsigned value; settles first.
  std::uint64_t read_output_lane(const std::string& port, int lane);

  /// Program the @p i-th SRAM bit cell in every lane.
  void set_sram(std::size_t i, bool value);
  /// Force the DFF at cell index @p cell in every lane.
  void set_register(std::size_t cell, bool value);
  /// Set every DFF to 0 in every lane.
  void clear_registers();
  /// One clock edge (all lanes).
  void step();
  /// Settle combinational logic without clocking.
  void eval();

  // --- energy tracing (same contract as GateSim) ---
  void begin_energy_trace();
  void trace_barrier();
  const std::array<std::int64_t, kCellKindCount>& toggle_counts() const {
    SEGA_EXPECTS(tracing_);
    return toggles_;
  }
  double traced_energy(const Technology& tech) const;
  double traced_energy_of_group(const Technology& tech, int group) const;
  /// Lane-weighted cycle count: each record adds the number of active
  /// lanes, so this equals the scalar engine's total over the same lanes.
  std::int64_t traced_cycles() const {
    SEGA_EXPECTS(tracing_);
    return traced_cycles_;
  }

 private:
  const Netlist& nl_;
  std::unique_ptr<const SimTopology> owned_topo_;  // null when borrowed
  const SimTopology& topo_;
  std::vector<std::uint64_t> values_;      // per net, one bit per lane
  std::vector<std::uint64_t> dff_next_;    // step() scratch
  int active_lanes_ = kLanes;
  std::uint64_t lane_mask_ = ~std::uint64_t{0};
  bool dirty_ = true;

  bool tracing_ = false;
  std::vector<std::uint64_t> trace_prev_;  // per net, last settled cycle
  std::array<std::int64_t, kCellKindCount> toggles_{};
  std::vector<std::array<std::int64_t, kCellKindCount>> toggles_by_group_;
  std::int64_t traced_cycles_ = 0;

  void eval_cell(CellKind kind, const NetId* pins);
  void record_toggles();
  void note_forced_write(NetId n);
};

}  // namespace sega
