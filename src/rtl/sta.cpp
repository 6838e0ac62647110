#include "rtl/sta.h"

#include <algorithm>
#include <cstdint>

#include "util/assert.h"

namespace sega {

double StaResult::arrival(NetId net) const {
  SEGA_EXPECTS(net < arrivals_.size());
  return arrivals_[net];
}

StaResult run_sta(const Netlist& nl, const Technology& tech) {
  return run_sta(nl, SimTopology(nl), tech);
}

StaResult run_sta(const Netlist& nl, const SimTopology& topo,
                  const Technology& tech) {
  SEGA_EXPECTS(topo.net_driver_kind.size() == nl.net_count());
  StaResult result;
  result.arrivals_.assign(nl.net_count(), 0.0);
  if (nl.net_count() == 0) return result;  // no net, no path
  double* arrival = result.arrivals_.data();
  // Per net, the cell whose output set its arrival (for path recovery);
  // kNone for launch points.
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> via(nl.net_count(), kNone);

  for (const std::uint32_t ci : topo.eval_order) {
    const CellKind kind = nl.cell_kind(ci);
    const NetId* pins = nl.cell_pins(ci);
    const auto [ni, no] = Netlist::cell_arity(kind);
    double in_arrival = 0.0;
    for (int i = 0; i < ni; ++i) {
      in_arrival = std::max(in_arrival, arrival[pins[i]]);
    }
    const double out_arrival = in_arrival + tech.cell(kind).delay;
    for (int o = 0; o < no; ++o) {
      const NetId out = pins[kFirstOutputSlot + static_cast<std::size_t>(o)];
      arrival[out] = out_arrival;
      via[out] = ci;
    }
  }

  // Critical endpoint = max arrival over all nets.
  NetId worst_net = 0;
  for (NetId n = 0; n < result.arrivals_.size(); ++n) {
    if (arrival[n] > arrival[worst_net]) worst_net = n;
  }
  result.critical_.arrival = arrival[worst_net];
  result.critical_.endpoint = worst_net;
  // Recover the path by walking back through worst-input edges.
  std::vector<std::size_t> rev;
  NetId cursor = worst_net;
  while (via[cursor] != kNone) {
    const std::uint32_t ci = via[cursor];
    rev.push_back(ci);
    const int ni = Netlist::cell_arity(nl.cell_kind(ci)).first;
    if (ni == 0) break;
    const NetId* pins = nl.cell_pins(ci);
    NetId next = pins[0];
    for (int i = 0; i < ni; ++i) {
      if (arrival[pins[i]] > arrival[next]) next = pins[i];
    }
    cursor = next;
  }
  result.critical_.cells.assign(rev.rbegin(), rev.rend());

  // Register setup and primary-output views.
  for (const std::uint32_t ci : topo.dff_cells) {
    result.worst_register_setup_ =
        std::max(result.worst_register_setup_, arrival[nl.cell_pins(ci)[0]]);
  }
  for (const auto& port : nl.ports()) {
    if (port.dir != PortDir::kOutput) continue;
    for (const NetId n : port.nets) {
      result.worst_output_ = std::max(result.worst_output_, arrival[n]);
    }
  }
  return result;
}

}  // namespace sega
