// Static timing analysis over the structural netlist.
//
// Propagates arrival times through the levelized combinational graph (the
// SimTopology the simulators read) using the technology's per-cell delays
// (Table III), treating DFF/SRAM outputs and primary inputs as time-zero
// launch points.  This is the gate-level
// cross-check of the analytical delay models of Tables II/IV/V: the cost
// model predicts pipeline-stage delays from closed forms; STA measures the
// real longest path of the generated netlist.
//
// Units: normalized gate delays (multiply by Technology::delay_ns_per_gate
// for ns).
#pragma once

#include <string>
#include <vector>

#include "rtl/netlist.h"
#include "rtl/sim.h"
#include "tech/technology.h"

namespace sega {

/// One worst-path report.
struct TimingPath {
  double arrival = 0.0;            ///< normalized gate delays
  NetId endpoint = kNoNet;         ///< net where the path ends; kNoNet
                                   ///< when the netlist has no nets
  std::vector<std::size_t> cells;  ///< cell indices along the path,
                                   ///< launch-side first
};

class StaResult {
 public:
  /// Worst arrival over the whole netlist (critical path).
  double critical_delay() const { return critical_.arrival; }
  const TimingPath& critical_path() const { return critical_; }

  /// Arrival time of a specific net.
  double arrival(NetId net) const;

  /// Worst arrival among the D inputs of DFF cells (register setup paths) —
  /// the clock-period constraint of the macro.
  double worst_register_setup() const { return worst_register_setup_; }

  /// Worst arrival among primary output nets.
  double worst_output() const { return worst_output_; }

 private:
  friend StaResult run_sta(const Netlist& nl, const SimTopology& topo,
                           const Technology& tech);
  std::vector<double> arrivals_;
  TimingPath critical_;
  double worst_register_setup_ = 0.0;
  double worst_output_ = 0.0;
};

/// Run STA: levelize the netlist, then propagate.  Precondition: the
/// netlist validates and is loop-free (the same precondition as GateSim;
/// checked).
StaResult run_sta(const Netlist& nl, const Technology& tech);

/// Propagate over an existing levelization of @p nl (e.g. the one
/// DcimHarness owns), skipping the validate-and-levelize pass.
StaResult run_sta(const Netlist& nl, const SimTopology& topo,
                  const Technology& tech);

}  // namespace sega
