#include "rtl/netlist.h"

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

Netlist::Netlist(std::string module_name) : name_(std::move(module_name)) {
  SEGA_EXPECTS(is_verilog_identifier(name_));
}

NetId Netlist::new_net() {
  SEGA_EXPECTS(net_count_ < kNoNet);
  return static_cast<NetId>(net_count_++);
}

std::vector<NetId> Netlist::new_bus(int width) {
  SEGA_EXPECTS(width >= 0);
  std::vector<NetId> bus(static_cast<std::size_t>(width));
  for (auto& n : bus) n = new_net();
  return bus;
}

NetId Netlist::const0() {
  if (!const0_) const0_ = new_net();
  return *const0_;
}

NetId Netlist::const1() {
  if (!const1_) const1_ = new_net();
  return *const1_;
}

std::vector<NetId> Netlist::add_input(const std::string& name, int width) {
  SEGA_EXPECTS(is_verilog_identifier(name));
  const bool fresh = port_index_.emplace(name, ports_.size()).second;
  SEGA_EXPECTS(fresh);
  Port p;
  p.name = name;
  p.dir = PortDir::kInput;
  p.nets = new_bus(width);
  ports_.push_back(p);
  return ports_.back().nets;
}

void Netlist::add_output(const std::string& name, std::vector<NetId> nets) {
  SEGA_EXPECTS(is_verilog_identifier(name));
  const bool fresh = port_index_.emplace(name, ports_.size()).second;
  SEGA_EXPECTS(fresh);
  Port p;
  p.name = name;
  p.dir = PortDir::kOutput;
  p.nets = std::move(nets);
  ports_.push_back(std::move(p));
}

const Port* Netlist::find_port(const std::string& name) const {
  const auto it = port_index_.find(name);
  return it == port_index_.end() ? nullptr : &ports_[it->second];
}

std::size_t Netlist::add_cell(CellKind kind,
                              std::initializer_list<NetId> inputs,
                              std::initializer_list<NetId> outputs) {
  return add_cell(kind, Span<const NetId>(inputs.begin(), inputs.size()),
                  Span<const NetId>(outputs.begin(), outputs.size()));
}

std::size_t Netlist::add_cell(CellKind kind, Span<const NetId> inputs,
                              Span<const NetId> outputs) {
  const auto [ni, no] = cell_arity(kind);
  SEGA_EXPECTS(static_cast<int>(inputs.size()) == ni);
  SEGA_EXPECTS(static_cast<int>(outputs.size()) == no);
  for (const NetId n : inputs) SEGA_EXPECTS(n < net_count_);
  for (const NetId n : outputs) SEGA_EXPECTS(n < net_count_);
  // Cell indices travel as NetId-wide integers through the topology.
  SEGA_EXPECTS(kinds_.size() < kNoNet);
  const std::size_t index = kinds_.size();
  kinds_.push_back(static_cast<std::uint8_t>(kind));
  groups_.push_back(active_group_);
  NetId slots[kCellPinSlots] = {kNoNet, kNoNet, kNoNet, kNoNet, kNoNet};
  for (std::size_t i = 0; i < inputs.size(); ++i) slots[i] = inputs[i];
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    slots[kFirstOutputSlot + i] = outputs[i];
  }
  pins_.insert(pins_.end(), slots, slots + kCellPinSlots);
  if (kind == CellKind::kSram) sram_cells_.push_back(index);
  return index;
}

int Netlist::set_active_group(const std::string& name) {
  for (std::size_t i = 0; i < group_names_.size(); ++i) {
    if (group_names_[i] == name) {
      active_group_ = static_cast<std::uint8_t>(i);
      return active_group_;
    }
  }
  // Group ids are stored in one byte per cell.
  SEGA_EXPECTS(group_names_.size() <= 0xFF);
  group_names_.push_back(name);
  active_group_ = static_cast<std::uint8_t>(group_names_.size() - 1);
  return active_group_;
}

int Netlist::cell_group(std::size_t cell_index) const {
  SEGA_EXPECTS(cell_index < groups_.size());
  return groups_[cell_index];
}

GateCount Netlist::census_of_group(int group) const {
  GateCount gc;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (groups_[i] == group) ++gc[cell_kind(i)];
  }
  return gc;
}

std::vector<GateCount> Netlist::census_by_group() const {
  std::vector<GateCount> by_group(group_names_.size());
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    ++by_group[groups_[i]][cell_kind(i)];
  }
  return by_group;
}

GateCount Netlist::census() const {
  GateCount gc;
  for (const std::uint8_t kind : kinds_) ++gc[static_cast<CellKind>(kind)];
  return gc;
}

std::optional<std::string> Netlist::validate() const {
  // Arity and pin ranges are enforced by add_cell; what remains are the
  // whole-netlist properties.
  std::vector<std::uint8_t> driver_count(net_count_, 0);
  for (const RtlCell cell : cells()) {
    for (const NetId n : cell.outputs) {
      if (++driver_count[n] > 1) {
        return strfmt("net %u has multiple drivers", n);
      }
    }
  }
  for (const auto& p : ports_) {
    for (const NetId n : p.nets) {
      if (n >= net_count_) {
        return strfmt("port %s references unknown net", p.name.c_str());
      }
      if (p.dir == PortDir::kInput && driver_count[n] > 0) {
        return strfmt("input port %s net %u is also cell-driven",
                      p.name.c_str(), n);
      }
    }
  }
  if (const0_ && driver_count[*const0_] > 0) return "const0 net is driven";
  if (const1_ && driver_count[*const1_] > 0) return "const1 net is driven";
  return std::nullopt;
}

}  // namespace sega
