#include "rtl/verilog.h"

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

std::string verilog_cell_library() {
  return R"(// SEGA-DCIM primitive cell library (behavioral bodies).
module sega_nor (input wire a, input wire b, output wire y);
  assign y = ~(a | b);
endmodule

module sega_or (input wire a, input wire b, output wire y);
  assign y = a | b;
endmodule

module sega_inv (input wire a, output wire y);
  assign y = ~a;
endmodule

module sega_mux2 (input wire d0, input wire d1, input wire s, output wire y);
  assign y = s ? d1 : d0;
endmodule

module sega_ha (input wire a, input wire b, output wire sum, output wire c);
  assign sum = a ^ b;
  assign c = a & b;
endmodule

module sega_fa (input wire a, input wire b, input wire cin,
                output wire sum, output wire cout);
  assign sum = a ^ b ^ cin;
  assign cout = (a & b) | (a & cin) | (b & cin);
endmodule

module sega_dff (input wire clk, input wire d, output reg q);
  initial q = 1'b0;
  always @(posedge clk) q <= d;
endmodule

// 6T SRAM bit: weights are programmed before computation and held static.
module sega_sram_bit #(parameter INIT = 1'b0) (output wire q);
  assign q = INIT;
endmodule
)";
}

namespace {

std::string net_name(const Netlist& nl, NetId n) {
  if (nl.is_const0(n)) return "1'b0";
  if (nl.is_const1(n)) return "1'b1";
  return strfmt("n%u", n);
}

}  // namespace

std::string write_verilog(const Netlist& nl) {
  return write_verilog(nl, {});
}

std::string write_verilog(const Netlist& nl,
                          const std::vector<bool>& sram_init) {
  SEGA_EXPECTS(!nl.validate().has_value());
  SEGA_EXPECTS(sram_init.empty() ||
               sram_init.size() == nl.sram_cells().size());
  std::string out;
  out += strfmt("module %s (\n  input wire clk", nl.name().c_str());
  for (const auto& p : nl.ports()) {
    out += strfmt(",\n  %s wire [%zu:0] %s",
                  p.dir == PortDir::kInput ? "input" : "output",
                  p.nets.empty() ? 0 : p.nets.size() - 1, p.name.c_str());
  }
  out += "\n);\n\n";

  // Net declarations; const nets are inlined as literals.
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const NetId id = static_cast<NetId>(n);
    if (nl.is_const0(id) || nl.is_const1(id)) continue;
    out += strfmt("  wire n%zu;\n", n);
  }

  // Port <-> net binding.
  for (const auto& p : nl.ports()) {
    for (std::size_t i = 0; i < p.nets.size(); ++i) {
      if (p.dir == PortDir::kInput) {
        out += strfmt("  assign %s = %s[%zu];\n",
                      net_name(nl, p.nets[i]).c_str(), p.name.c_str(), i);
      } else {
        out += strfmt("  assign %s[%zu] = %s;\n", p.name.c_str(), i,
                      net_name(nl, p.nets[i]).c_str());
      }
    }
  }
  out += "\n";

  // Cell instances.
  std::size_t uid = 0;
  std::size_t sram_seq = 0;
  for (const RtlCell c : nl.cells()) {
    const auto nn = [&](NetId n) { return net_name(nl, n); };
    switch (c.kind) {
      case CellKind::kNor:
        out += strfmt("  sega_nor u%zu (.a(%s), .b(%s), .y(%s));\n", uid,
                      nn(c.inputs[0]).c_str(), nn(c.inputs[1]).c_str(),
                      nn(c.outputs[0]).c_str());
        break;
      case CellKind::kOr:
        out += strfmt("  sega_or u%zu (.a(%s), .b(%s), .y(%s));\n", uid,
                      nn(c.inputs[0]).c_str(), nn(c.inputs[1]).c_str(),
                      nn(c.outputs[0]).c_str());
        break;
      case CellKind::kInv:
        out += strfmt("  sega_inv u%zu (.a(%s), .y(%s));\n", uid,
                      nn(c.inputs[0]).c_str(), nn(c.outputs[0]).c_str());
        break;
      case CellKind::kMux2:
        out += strfmt("  sega_mux2 u%zu (.d0(%s), .d1(%s), .s(%s), .y(%s));\n",
                      uid, nn(c.inputs[0]).c_str(), nn(c.inputs[1]).c_str(),
                      nn(c.inputs[2]).c_str(), nn(c.outputs[0]).c_str());
        break;
      case CellKind::kHa:
        out += strfmt("  sega_ha u%zu (.a(%s), .b(%s), .sum(%s), .c(%s));\n",
                      uid, nn(c.inputs[0]).c_str(), nn(c.inputs[1]).c_str(),
                      nn(c.outputs[0]).c_str(), nn(c.outputs[1]).c_str());
        break;
      case CellKind::kFa:
        out += strfmt(
            "  sega_fa u%zu (.a(%s), .b(%s), .cin(%s), .sum(%s), .cout(%s));\n",
            uid, nn(c.inputs[0]).c_str(), nn(c.inputs[1]).c_str(),
            nn(c.inputs[2]).c_str(), nn(c.outputs[0]).c_str(),
            nn(c.outputs[1]).c_str());
        break;
      case CellKind::kDff:
        out += strfmt("  sega_dff u%zu (.clk(clk), .d(%s), .q(%s));\n", uid,
                      nn(c.inputs[0]).c_str(), nn(c.outputs[0]).c_str());
        break;
      case CellKind::kSram: {
        if (sram_init.empty()) {
          out += strfmt("  sega_sram_bit u%zu (.q(%s));\n", uid,
                        nn(c.outputs[0]).c_str());
        } else {
          out += strfmt("  sega_sram_bit #(.INIT(1'b%d)) u%zu (.q(%s));\n",
                        sram_init[sram_seq] ? 1 : 0, uid,
                        nn(c.outputs[0]).c_str());
        }
        ++sram_seq;
        break;
      }
    }
    ++uid;
  }
  out += "endmodule\n";
  return out;
}

}  // namespace sega
