#include "rtl/sim.h"

namespace sega {

namespace {

bool is_sequential(CellKind kind) {
  return kind == CellKind::kDff || kind == CellKind::kSram;
}

int popcount64(std::uint64_t v) { return __builtin_popcountll(v); }

/// First output (Q of a DFF or SRAM bit) and first input (D) of a cell.
NetId q_of(const Netlist& nl, std::size_t cell) {
  return nl.cell_pins(cell)[kFirstOutputSlot];
}
NetId d_of(const Netlist& nl, std::size_t cell) {
  return nl.cell_pins(cell)[0];
}

/// Checks that @p value fits in @p width bits (width <= 64).
void expect_fits(std::uint64_t value, std::size_t width) {
  SEGA_EXPECTS(width <= 64);
  if (width < 64) SEGA_EXPECTS((value >> width) == 0);
}

double energy_of_counts(const std::array<std::int64_t, kCellKindCount>& counts,
                        const Technology& tech) {
  double e = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    e += static_cast<double>(counts[i]) *
         tech.cell(static_cast<CellKind>(i)).energy;
  }
  return e;
}

}  // namespace

SimTopology::SimTopology(const Netlist& nl) {
  const auto err = nl.validate();
  SEGA_EXPECTS(!err.has_value());
  const std::size_t cells = nl.cells().size();

  // Per-net driver kind and component group for energy tracing, and each
  // net's combinational driver cell (if any).
  constexpr std::uint32_t kNone = kNoNet;
  net_driver_kind.assign(nl.net_count(), kUndriven);
  net_driver_group.assign(nl.net_count(), 0);
  std::vector<std::uint32_t> comb_driver(nl.net_count(), kNone);
  std::size_t comb_cells = 0;
  for (std::size_t ci = 0; ci < cells; ++ci) {
    const CellKind kind = nl.cell_kind(ci);
    const NetId* pins = nl.cell_pins(ci);
    const auto group = static_cast<std::uint8_t>(nl.cell_group(ci));
    const bool sequential = is_sequential(kind);
    for (int o = 0; o < Netlist::cell_arity(kind).second; ++o) {
      const NetId out = pins[kFirstOutputSlot + static_cast<std::size_t>(o)];
      net_driver_kind[out] = static_cast<std::uint8_t>(kind);
      net_driver_group[out] = group;
      if (!sequential) comb_driver[out] = static_cast<std::uint32_t>(ci);
    }
    if (kind == CellKind::kDff) {
      dff_cells.push_back(static_cast<std::uint32_t>(ci));
    }
    if (!sequential) ++comb_cells;
  }

  // Dependents of every combinational cell in compressed-row form: one
  // entry per input pin a combinational driver feeds (a cell fed twice by
  // the same driver is listed twice), rows in sink-index then pin order.
  std::vector<std::uint32_t> row(cells + 1, 0);
  std::vector<std::uint8_t> pending(cells, 0);
  const auto for_each_comb_input = [&](auto&& visit) {
    for (std::size_t ci = 0; ci < cells; ++ci) {
      const CellKind kind = nl.cell_kind(ci);
      if (is_sequential(kind)) continue;
      const NetId* pins = nl.cell_pins(ci);
      for (int i = 0; i < Netlist::cell_arity(kind).first; ++i) {
        const std::uint32_t drv = comb_driver[pins[i]];
        if (drv != kNone) visit(drv, static_cast<std::uint32_t>(ci));
      }
    }
  };
  for_each_comb_input([&](std::uint32_t drv, std::uint32_t ci) {
    ++row[drv + 1];
    ++pending[ci];
  });
  for (std::size_t ci = 0; ci < cells; ++ci) row[ci + 1] += row[ci];
  std::vector<std::uint32_t> dependents(row[cells]);
  std::vector<std::uint32_t> cursor(row.begin(), row.end() - 1);
  for_each_comb_input([&](std::uint32_t drv, std::uint32_t ci) {
    dependents[cursor[drv]++] = ci;
  });

  // Kahn's algorithm, FIFO: eval_order doubles as the ready queue.
  eval_order.reserve(comb_cells);
  for (std::size_t ci = 0; ci < cells; ++ci) {
    if (!is_sequential(nl.cell_kind(ci)) && pending[ci] == 0) {
      eval_order.push_back(static_cast<std::uint32_t>(ci));
    }
  }
  for (std::size_t head = 0; head < eval_order.size(); ++head) {
    const std::uint32_t ci = eval_order[head];
    for (std::uint32_t k = row[ci]; k < row[ci + 1]; ++k) {
      const std::uint32_t dep = dependents[k];
      if (--pending[dep] == 0) eval_order.push_back(dep);
    }
  }
  // A shortfall means a combinational loop.
  SEGA_ENSURES(eval_order.size() == comb_cells);
}

// ------------------------------------------------------------------ GateSim

GateSim::GateSim(const Netlist& nl)
    : nl_(nl),
      owned_topo_(std::make_unique<const SimTopology>(nl)),
      topo_(*owned_topo_),
      values_(nl.net_count(), 0),
      dff_next_(topo_.dff_cells.size(), 0) {}

GateSim::GateSim(const Netlist& nl, const SimTopology& topo)
    : nl_(nl),
      topo_(topo),
      values_(nl.net_count(), 0),
      dff_next_(topo_.dff_cells.size(), 0) {}

void GateSim::eval_cell(CellKind kind, const NetId* pins) {
  auto in = [&](std::size_t i) { return values_[pins[i]] != 0; };
  std::uint8_t* out = values_.data();
  const NetId q0 = pins[kFirstOutputSlot];
  switch (kind) {
    case CellKind::kNor:
      out[q0] = !(in(0) || in(1));
      break;
    case CellKind::kOr:
      out[q0] = in(0) || in(1);
      break;
    case CellKind::kInv:
      out[q0] = !in(0);
      break;
    case CellKind::kMux2:
      out[q0] = in(2) ? in(1) : in(0);
      break;
    case CellKind::kHa: {
      const bool a = in(0), b = in(1);
      out[q0] = a != b;
      out[pins[kFirstOutputSlot + 1]] = a && b;
      break;
    }
    case CellKind::kFa: {
      const int s = int{in(0)} + int{in(1)} + int{in(2)};
      out[q0] = (s & 1) != 0;
      out[pins[kFirstOutputSlot + 1]] = s >= 2;
      break;
    }
    case CellKind::kDff:
    case CellKind::kSram:
      SEGA_ASSERT(false);  // sequential cells never enter eval_order
  }
}

void GateSim::eval() {
  if (!dirty_) return;
  // Constants are undriven nets pinned every settle.
  if (const auto c0 = nl_.const0_id()) values_[*c0] = 0;
  if (const auto c1 = nl_.const1_id()) values_[*c1] = 1;
  for (const std::uint32_t ci : topo_.eval_order) {
    eval_cell(nl_.cell_kind(ci), nl_.cell_pins(ci));
  }
  dirty_ = false;
}

void GateSim::set_input(const std::string& port, std::uint64_t value) {
  const Port* p = nl_.find_port(port);
  SEGA_EXPECTS(p != nullptr && p->dir == PortDir::kInput);
  expect_fits(value, p->nets.size());
  for (std::size_t i = 0; i < p->nets.size(); ++i) {
    values_[p->nets[i]] = (value >> i) & 1u;
  }
  dirty_ = true;
}

std::uint64_t GateSim::read_output(const std::string& port) {
  const Port* p = nl_.find_port(port);
  SEGA_EXPECTS(p != nullptr && p->dir == PortDir::kOutput);
  SEGA_EXPECTS(p->nets.size() <= 64);
  eval();
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < p->nets.size(); ++i) {
    if (values_[p->nets[i]]) v |= std::uint64_t{1} << i;
  }
  return v;
}

void GateSim::note_forced_write(NetId n) {
  // Forced writes are programming, not compute activity: refresh the trace
  // baseline of the forced net so the flip itself is never billed (the
  // datapath's settled response to it still is).
  if (tracing_) trace_prev_[n] = values_[n];
}

void GateSim::set_sram(std::size_t i, bool value) {
  SEGA_EXPECTS(i < nl_.sram_cells().size());
  const NetId q = q_of(nl_, nl_.sram_cells()[i]);
  values_[q] = value ? 1 : 0;
  note_forced_write(q);
  dirty_ = true;
}

void GateSim::set_register(std::size_t cell, bool value) {
  SEGA_EXPECTS(cell < nl_.cells().size());
  SEGA_EXPECTS(nl_.cell_kind(cell) == CellKind::kDff);
  const NetId q = q_of(nl_, cell);
  values_[q] = value ? 1 : 0;
  note_forced_write(q);
  dirty_ = true;
}

void GateSim::clear_registers() {
  for (const std::uint32_t ci : topo_.dff_cells) {
    const NetId q = q_of(nl_, ci);
    values_[q] = 0;
    note_forced_write(q);
  }
  dirty_ = true;
}

void GateSim::step() {
  eval();
  if (tracing_) record_toggles();
  // Two-phase DFF update: sample all D inputs, then commit.
  for (std::size_t i = 0; i < topo_.dff_cells.size(); ++i) {
    dff_next_[i] = values_[d_of(nl_, topo_.dff_cells[i])];
  }
  for (std::size_t i = 0; i < topo_.dff_cells.size(); ++i) {
    values_[q_of(nl_, topo_.dff_cells[i])] = dff_next_[i];
  }
  dirty_ = true;
}

void GateSim::begin_energy_trace() {
  eval();
  tracing_ = true;
  trace_prev_ = values_;
  toggles_.fill(0);
  toggles_by_group_.assign(nl_.group_names().size(), {});
  traced_cycles_ = 0;
}

void GateSim::trace_barrier() {
  if (!tracing_) return;
  eval();
  trace_prev_ = values_;
}

void GateSim::record_toggles() {
  // Called on a settled state just before the clock edge: one cycle's
  // steady-state transitions relative to the previous settled state.
  for (std::size_t n = 0; n < values_.size(); ++n) {
    const std::uint8_t kind = topo_.net_driver_kind[n];
    if (kind == SimTopology::kUndriven) continue;  // ports/constants are free
    if (values_[n] != trace_prev_[n]) {
      ++toggles_[kind];
      ++toggles_by_group_[static_cast<std::size_t>(topo_.net_driver_group[n])]
                         [kind];
    }
    trace_prev_[n] = values_[n];
  }
  ++traced_cycles_;
}

double GateSim::traced_energy(const Technology& tech) const {
  SEGA_EXPECTS(tracing_);
  return energy_of_counts(toggles_, tech);
}

double GateSim::traced_energy_of_group(const Technology& tech,
                                       int group) const {
  SEGA_EXPECTS(tracing_);
  SEGA_EXPECTS(group >= 0 &&
               static_cast<std::size_t>(group) < nl_.group_names().size());
  return energy_of_counts(
      toggles_by_group_[static_cast<std::size_t>(group)], tech);
}

bool GateSim::net_value(NetId n) {
  SEGA_EXPECTS(n < nl_.net_count());
  eval();
  return values_[n] != 0;
}

// -------------------------------------------------------------- GateSimWide

GateSimWide::GateSimWide(const Netlist& nl)
    : nl_(nl),
      owned_topo_(std::make_unique<const SimTopology>(nl)),
      topo_(*owned_topo_),
      values_(nl.net_count(), 0),
      dff_next_(topo_.dff_cells.size(), 0) {}

GateSimWide::GateSimWide(const Netlist& nl, const SimTopology& topo)
    : nl_(nl),
      topo_(topo),
      values_(nl.net_count(), 0),
      dff_next_(topo_.dff_cells.size(), 0) {}

void GateSimWide::set_active_lanes(int lanes) {
  SEGA_EXPECTS(lanes >= 1 && lanes <= kLanes);
  active_lanes_ = lanes;
  lane_mask_ = lanes == kLanes ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << lanes) - 1;
}

void GateSimWide::eval_cell(CellKind kind, const NetId* pins) {
  auto in = [&](std::size_t i) { return values_[pins[i]]; };
  std::uint64_t* out = values_.data();
  const NetId q0 = pins[kFirstOutputSlot];
  switch (kind) {
    case CellKind::kNor:
      out[q0] = ~(in(0) | in(1));
      break;
    case CellKind::kOr:
      out[q0] = in(0) | in(1);
      break;
    case CellKind::kInv:
      out[q0] = ~in(0);
      break;
    case CellKind::kMux2: {
      const std::uint64_t sel = in(2);
      out[q0] = (sel & in(1)) | (~sel & in(0));
      break;
    }
    case CellKind::kHa: {
      const std::uint64_t a = in(0), b = in(1);
      out[q0] = a ^ b;
      out[pins[kFirstOutputSlot + 1]] = a & b;
      break;
    }
    case CellKind::kFa: {
      const std::uint64_t a = in(0), b = in(1), cin = in(2);
      const std::uint64_t axb = a ^ b;
      out[q0] = axb ^ cin;
      out[pins[kFirstOutputSlot + 1]] = (a & b) | (cin & axb);  // majority
      break;
    }
    case CellKind::kDff:
    case CellKind::kSram:
      SEGA_ASSERT(false);  // sequential cells never enter eval_order
  }
}

void GateSimWide::eval() {
  if (!dirty_) return;
  if (const auto c0 = nl_.const0_id()) values_[*c0] = 0;
  if (const auto c1 = nl_.const1_id()) values_[*c1] = ~std::uint64_t{0};
  for (const std::uint32_t ci : topo_.eval_order) {
    eval_cell(nl_.cell_kind(ci), nl_.cell_pins(ci));
  }
  dirty_ = false;
}

void GateSimWide::set_input_lanes(const std::string& port,
                                  const std::vector<std::uint64_t>& bit_words) {
  const Port* p = nl_.find_port(port);
  SEGA_EXPECTS(p != nullptr && p->dir == PortDir::kInput);
  SEGA_EXPECTS(bit_words.size() == p->nets.size());
  for (std::size_t i = 0; i < p->nets.size(); ++i) {
    values_[p->nets[i]] = bit_words[i];
  }
  dirty_ = true;
}

void GateSimWide::set_input_all(const std::string& port, std::uint64_t value) {
  const Port* p = nl_.find_port(port);
  SEGA_EXPECTS(p != nullptr && p->dir == PortDir::kInput);
  expect_fits(value, p->nets.size());
  for (std::size_t i = 0; i < p->nets.size(); ++i) {
    values_[p->nets[i]] = ((value >> i) & 1u) ? ~std::uint64_t{0} : 0;
  }
  dirty_ = true;
}

std::uint64_t GateSimWide::read_output_lane(const std::string& port,
                                            int lane) {
  const Port* p = nl_.find_port(port);
  SEGA_EXPECTS(p != nullptr && p->dir == PortDir::kOutput);
  SEGA_EXPECTS(p->nets.size() <= 64);
  SEGA_EXPECTS(lane >= 0 && lane < active_lanes_);
  eval();
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < p->nets.size(); ++i) {
    if ((values_[p->nets[i]] >> lane) & 1u) v |= std::uint64_t{1} << i;
  }
  return v;
}

void GateSimWide::note_forced_write(NetId n) {
  if (tracing_) trace_prev_[n] = values_[n];
}

void GateSimWide::set_sram(std::size_t i, bool value) {
  SEGA_EXPECTS(i < nl_.sram_cells().size());
  const NetId q = q_of(nl_, nl_.sram_cells()[i]);
  values_[q] = value ? ~std::uint64_t{0} : 0;
  note_forced_write(q);
  dirty_ = true;
}

void GateSimWide::set_register(std::size_t cell, bool value) {
  SEGA_EXPECTS(cell < nl_.cells().size());
  SEGA_EXPECTS(nl_.cell_kind(cell) == CellKind::kDff);
  const NetId q = q_of(nl_, cell);
  values_[q] = value ? ~std::uint64_t{0} : 0;
  note_forced_write(q);
  dirty_ = true;
}

void GateSimWide::clear_registers() {
  for (const std::uint32_t ci : topo_.dff_cells) {
    const NetId q = q_of(nl_, ci);
    values_[q] = 0;
    note_forced_write(q);
  }
  dirty_ = true;
}

void GateSimWide::step() {
  eval();
  if (tracing_) record_toggles();
  for (std::size_t i = 0; i < topo_.dff_cells.size(); ++i) {
    dff_next_[i] = values_[d_of(nl_, topo_.dff_cells[i])];
  }
  for (std::size_t i = 0; i < topo_.dff_cells.size(); ++i) {
    values_[q_of(nl_, topo_.dff_cells[i])] = dff_next_[i];
  }
  dirty_ = true;
}

void GateSimWide::begin_energy_trace() {
  eval();
  tracing_ = true;
  trace_prev_ = values_;
  toggles_.fill(0);
  toggles_by_group_.assign(nl_.group_names().size(), {});
  traced_cycles_ = 0;
}

void GateSimWide::trace_barrier() {
  if (!tracing_) return;
  eval();
  trace_prev_ = values_;
}

void GateSimWide::record_toggles() {
  // One settled cycle for every active lane at once: the XOR against the
  // previous settled word marks the lanes where this net switched, and the
  // popcount bills them all in one step — the structural ~64x over the
  // scalar per-net comparison.
  for (std::size_t n = 0; n < values_.size(); ++n) {
    const std::uint8_t kind = topo_.net_driver_kind[n];
    if (kind == SimTopology::kUndriven) continue;
    const std::uint64_t diff = (values_[n] ^ trace_prev_[n]) & lane_mask_;
    if (diff != 0) {
      const int events = popcount64(diff);
      toggles_[kind] += events;
      toggles_by_group_[static_cast<std::size_t>(topo_.net_driver_group[n])]
                       [kind] += events;
    }
    trace_prev_[n] = values_[n];
  }
  traced_cycles_ += active_lanes_;
}

double GateSimWide::traced_energy(const Technology& tech) const {
  SEGA_EXPECTS(tracing_);
  return energy_of_counts(toggles_, tech);
}

double GateSimWide::traced_energy_of_group(const Technology& tech,
                                           int group) const {
  SEGA_EXPECTS(tracing_);
  SEGA_EXPECTS(group >= 0 &&
               static_cast<std::size_t>(group) < nl_.group_names().size());
  return energy_of_counts(
      toggles_by_group_[static_cast<std::size_t>(group)], tech);
}

}  // namespace sega
