#include "layout/def_writer.h"

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

namespace {

long long db(double um) { return static_cast<long long>(um * 1000.0 + 0.5); }

const char* def_cell_name(CellKind kind) {
  switch (kind) {
    case CellKind::kNor: return "SEGA_NOR";
    case CellKind::kOr: return "SEGA_OR";
    case CellKind::kInv: return "SEGA_INV";
    case CellKind::kMux2: return "SEGA_MUX2";
    case CellKind::kHa: return "SEGA_HA";
    case CellKind::kFa: return "SEGA_FA";
    case CellKind::kDff: return "SEGA_DFF";
    case CellKind::kSram: return "SEGA_SRAM_BIT";
  }
  SEGA_ASSERT(false);
  return "";
}

}  // namespace

std::string write_def(const MacroLayout& layout, const Netlist& nl) {
  std::string out;
  out += "VERSION 5.8 ;\n";
  out += "DIVIDERCHAR \"/\" ;\n";
  out += "BUSBITCHARS \"[]\" ;\n";
  out += strfmt("DESIGN %s ;\n", layout.name.c_str());
  out += "UNITS DISTANCE MICRONS 1000 ;\n";
  out += strfmt("DIEAREA ( 0 0 ) ( %lld %lld ) ;\n", db(layout.width_um),
                db(layout.height_um));

  // Regions.
  out += strfmt("REGIONS %zu ;\n", layout.regions.size());
  for (const auto& r : layout.regions) {
    out += strfmt("- region_%s ( %lld %lld ) ( %lld %lld ) ;\n",
                  r.name.c_str(), db(r.x_um), db(r.y_um),
                  db(r.x_um + r.width_um), db(r.y_um + r.height_um));
  }
  out += "END REGIONS\n";

  // Components: one macro block for the memory + every placed cell.
  std::size_t count = 1;  // memory block
  for (const auto& r : layout.regions) count += r.placement.cells.size();
  out += strfmt("COMPONENTS %zu ;\n", count);
  const RegionLayout* mem = layout.region("memory");
  SEGA_ASSERT(mem != nullptr);
  out += strfmt("- sram_array SEGA_SRAM_ARRAY + FIXED ( %lld %lld ) N ;\n",
                db(mem->x_um), db(mem->y_um));
  for (const auto& r : layout.regions) {
    for (const auto& pc : r.placement.cells) {
      out += strfmt("- u%zu %s + FIXED ( %lld %lld ) N ;\n", pc.cell_index,
                    def_cell_name(nl.cell_kind(pc.cell_index)),
                    db(r.x_um + pc.x), db(r.y_um + pc.y));
    }
  }
  out += "END COMPONENTS\n";
  out += "END DESIGN\n";
  return out;
}

}  // namespace sega
