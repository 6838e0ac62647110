// Structural netlist IR — the output of the template-based generator and the
// input of the gate-level simulator, the Verilog writer and the layout
// engine.
//
// The netlist is flat: a single module whose cells are the leaf standard
// cells of sega::tech (NOR/OR/INV/MUX2/HA/FA/DFF/SRAM bit).  Flatness keeps
// the simulator and placer simple while remaining faithful: the paper's
// generator also stitches leaf compute cells by script.
//
// Storage: every cell is one kind byte, one group byte and five fixed pin
// slots in a single flat NetId array — inputs in slots [0, 3), outputs in
// slots [3, 5), unused slots kNoNet — so a cell costs 22 heap bytes and
// needs no per-cell allocation.  cells() views that storage in place.
//
// Conventions:
//  * Buses are std::vector<NetId>, least-significant bit first.
//  * Every net has at most one driver (checked).
//  * SRAM bit cells have no inputs; their stored value is test/program data
//    set through the simulator (weights are pre-stored, per the paper).
//  * DFF cells are clocked by the single implicit clock (the paper's macro
//    is single-clock).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/gate_count.h"
#include "tech/cells.h"
#include "util/span.h"

namespace sega {

using NetId = std::uint32_t;
inline constexpr NetId kNoNet = 0xFFFFFFFFu;

/// Pin slots per cell: three input slots, then two output slots.
inline constexpr std::size_t kCellPinSlots = 5;
/// Slot of a cell's first output (HA/FA sum, every other kind's only one).
inline constexpr std::size_t kFirstOutputSlot = 3;

/// One leaf cell instance, viewed in place inside its netlist.
struct RtlCell {
  CellKind kind = CellKind::kNor;
  Span<const NetId> inputs;
  Span<const NetId> outputs;  ///< HA/FA have {sum, carry}; others one output
};

/// The cells of a netlist in insertion order: a cheap, indexable and
/// iterable view that stays valid until the next add_cell().
class CellList {
 public:
  class iterator {
   public:
    iterator(const CellList* list, std::size_t i) : list_(list), i_(i) {}
    RtlCell operator*() const { return (*list_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& other) const { return i_ != other.i_; }

   private:
    const CellList* list_;
    std::size_t i_;
  };

  CellList(const std::uint8_t* kinds, const NetId* pins, std::size_t size)
      : kinds_(kinds), pins_(pins), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RtlCell operator[](std::size_t i) const;
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size_); }

 private:
  const std::uint8_t* kinds_;
  const NetId* pins_;
  std::size_t size_;
};

/// Port direction.
enum class PortDir { kInput, kOutput };

struct Port {
  std::string name;
  PortDir dir = PortDir::kInput;
  std::vector<NetId> nets;  ///< LSB first
};

class Netlist {
 public:
  explicit Netlist(std::string module_name);

  const std::string& name() const { return name_; }

  // --- nets ---
  NetId new_net();
  std::vector<NetId> new_bus(int width);
  std::size_t net_count() const { return net_count_; }

  /// Constant nets (created on first use; driven by no cell — the simulator
  /// and the Verilog writer special-case them).
  NetId const0();
  NetId const1();
  bool is_const0(NetId n) const { return const0_ && n == *const0_; }
  bool is_const1(NetId n) const { return const1_ && n == *const1_; }
  std::optional<NetId> const0_id() const { return const0_; }
  std::optional<NetId> const1_id() const { return const1_; }

  // --- ports ---
  /// Declare a fresh input bus.
  std::vector<NetId> add_input(const std::string& name, int width);
  /// Declare existing nets as an output bus.
  void add_output(const std::string& name, std::vector<NetId> nets);
  const std::vector<Port>& ports() const { return ports_; }
  /// Find a port by name; nullptr when absent.  O(1): a name index is kept
  /// next to ports().
  const Port* find_port(const std::string& name) const;

  // --- cells ---
  /// Append a cell; returns its index.  The pin counts must match the
  /// kind's arity and every pin must name an existing net.
  std::size_t add_cell(CellKind kind, std::initializer_list<NetId> inputs,
                       std::initializer_list<NetId> outputs);
  std::size_t add_cell(CellKind kind, Span<const NetId> inputs,
                       Span<const NetId> outputs);
  /// Make room for @p cells cells, @p sram_cells of them SRAM bit cells, so
  /// a generator that knows its cell count fills the arrays without ever
  /// regrowing them.
  void reserve_cells(std::size_t cells, std::size_t sram_cells) {
    kinds_.reserve(cells);
    groups_.reserve(cells);
    pins_.reserve(kCellPinSlots * cells);
    sram_cells_.reserve(sram_cells);
  }
  CellList cells() const {
    return CellList(kinds_.data(), pins_.data(), kinds_.size());
  }
  /// Unchecked hot-loop access for the simulators, STA and layout walks.
  CellKind cell_kind(std::size_t cell_index) const {
    return static_cast<CellKind>(kinds_[cell_index]);
  }
  /// The kCellPinSlots pin slots of one cell (see the storage note above).
  const NetId* cell_pins(std::size_t cell_index) const {
    return pins_.data() + kCellPinSlots * cell_index;
  }

  // --- component groups ---
  // Generators tag the cells of each architectural component ("sram",
  // "adder_tree", ...) so the layout engine can regionize the floorplan and
  // tests can cross-check per-component censuses.  Cells added outside any
  // group belong to group 0 ("core").
  /// Make @p name the active group (created on first use); returns its id.
  int set_active_group(const std::string& name);
  int cell_group(std::size_t cell_index) const;
  const std::vector<std::string>& group_names() const { return group_names_; }

  /// Leaf-cell census (cross-checked against the cost models in tests).
  GateCount census() const;

  /// Census restricted to one component group.
  GateCount census_of_group(int group) const;

  /// Every group's census in one pass, indexed as group_names().
  std::vector<GateCount> census_by_group() const;

  /// Indices of all SRAM bit cells, in insertion order.  The macro builder
  /// inserts them in a documented order (column-major, L-major inside the
  /// compute unit) so weights can be loaded programmatically.
  const std::vector<std::size_t>& sram_cells() const { return sram_cells_; }

  /// Structural validation: every net has at most one driver, no input
  /// port or constant net is cell-driven, ports reference existing nets.
  /// (Cell arities and pin ranges are add_cell preconditions.)  Returns an
  /// error description, or nullopt when the netlist is well-formed.
  std::optional<std::string> validate() const;

  /// Expected input/output arity of a cell kind, e.g. NOR = {2,1}.
  static constexpr std::pair<int, int> cell_arity(CellKind kind) {
    switch (kind) {
      case CellKind::kNor: return {2, 1};
      case CellKind::kOr: return {2, 1};
      case CellKind::kInv: return {1, 1};
      case CellKind::kMux2: return {3, 1};  // {d0, d1, sel}
      case CellKind::kHa: return {2, 2};    // {a, b} -> {sum, carry}
      case CellKind::kFa: return {3, 2};    // {a, b, cin} -> {sum, cout}
      case CellKind::kDff: return {1, 1};   // {d} -> {q}, implicit clock
      case CellKind::kSram: return {0, 1};  // programmed storage -> {q}
    }
    return {0, 0};
  }

 private:
  std::string name_;
  std::size_t net_count_ = 0;
  std::vector<std::uint8_t> kinds_;   // CellKind per cell
  std::vector<std::uint8_t> groups_;  // component group per cell
  std::vector<NetId> pins_;           // kCellPinSlots per cell
  std::vector<Port> ports_;
  std::unordered_map<std::string, std::size_t> port_index_;  // name -> ports_
  std::vector<std::size_t> sram_cells_;
  std::optional<NetId> const0_;
  std::optional<NetId> const1_;
  std::vector<std::string> group_names_{"core"};
  std::uint8_t active_group_ = 0;
};

inline RtlCell CellList::operator[](std::size_t i) const {
  SEGA_EXPECTS(i < size_);
  const auto kind = static_cast<CellKind>(kinds_[i]);
  const auto [ni, no] = Netlist::cell_arity(kind);
  const NetId* pins = pins_ + kCellPinSlots * i;
  return RtlCell{kind, Span<const NetId>(pins, static_cast<std::size_t>(ni)),
                 Span<const NetId>(pins + kFirstOutputSlot,
                                   static_cast<std::size_t>(no))};
}

}  // namespace sega
