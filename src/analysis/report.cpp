#include "analysis/report.hpp"

#include <sstream>

#include "cdfg/analysis.hpp"
#include "support/strings.hpp"

namespace pmsched {
namespace analysis {

std::string renderDesignReport(const DesignReportInputs& in) {
  const Graph& g = in.design.graph;
  const OpPowerModel model = OpPowerModel::paperWeights();
  std::ostringstream os;

  os << "# Design report: " << g.name() << "\n\n";

  // ---- statistics -----------------------------------------------------------
  const OpStats stats = countOps(g);
  os << "## Circuit\n\n"
     << "| metric | value |\n|---|---|\n"
     << "| operations | " << stats.totalUnits() << " (MUX " << stats.mux << ", COMP "
     << stats.comp << ", + " << stats.add << ", - " << stats.sub << ", * " << stats.mul
     << ") |\n"
     << "| critical path (incl. control edges) | " << criticalPathLength(g) << " steps |\n"
     << "| scheduled at | " << in.schedule.steps() << " steps |\n"
     << "| control edges added | " << g.controlEdgeCount() << " |\n\n";

  // ---- power management decisions -------------------------------------------
  os << "## Power management\n\n"
     << "| mux | managed | gated (true side) | gated (false side) | reason |\n"
     << "|---|---|---|---|---|\n";
  for (const MuxPmInfo& info : in.design.muxes) {
    auto names = [&](const std::vector<NodeId>& nodes) {
      std::vector<std::string> out;
      for (const NodeId n : nodes)
        if (isScheduled(g.kind(n))) out.push_back(g.node(n).name);
      return out.empty() ? std::string("—") : join(out, ", ");
    };
    os << "| " << g.node(info.mux).name << " | " << (info.managed ? "yes" : "no") << " | "
       << names(info.gatedTrue) << " | " << names(info.gatedFalse) << " | "
       << (info.reason.empty() ? "—" : info.reason) << " |\n";
  }
  os << "\n";

  // ---- activation conditions -------------------------------------------------
  os << "## Gated operations\n\n"
     << "| operation | activation condition | p(execute) |\n|---|---|---|\n";
  bool anyGated = false;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    const GateDnf& cond = in.activation.condition(n);
    if (dnfIsTrue(cond)) continue;
    anyGated = true;
    os << "| " << g.node(n).name << " | `"
       << dnfToString(cond, g) << "` | "
       << in.activation.probability[n].toFixed(4) << " |\n";
  }
  if (!anyGated) os << "| — | (nothing gated) | |\n";
  os << "\n";

  // ---- schedule ---------------------------------------------------------------
  os << "## Schedule\n\n```\n" << in.schedule.render(g) << "```\n\n";

  // ---- allocation --------------------------------------------------------------
  os << "## Allocation\n\n";
  os << "Units:\n\n| unit | operations |\n|---|---|\n";
  for (const FunctionalUnit& unit : in.binding.units) {
    std::vector<std::string> ops;
    for (const NodeId n : unit.ops) ops.push_back(g.node(n).name);
    os << "| " << resourceName(unit.cls) << unit.index << " | " << join(ops, ", ") << " |\n";
  }
  os << "\nRegisters: " << in.binding.registers.size() << ", interconnect 2:1 muxes: "
     << in.binding.interconnectMuxes << "\n";
  const AreaModel area = estimateArea(in.binding);
  os << "Datapath area estimate: " << fixed(area.total(), 0) << " NAND2-eq (units "
     << fixed(area.unitArea, 0) << ", registers " << fixed(area.registerArea, 0)
     << ", interconnect " << fixed(area.interconnectArea, 0) << ")\n\n";

  // ---- controller ---------------------------------------------------------------
  os << "## Controller\n\n"
     << "| metric | value |\n|---|---|\n"
     << "| states | " << in.controller.stateCount() << " |\n"
     << "| register loads | " << in.controller.loads.size() << " |\n"
     << "| gated loads | " << in.controller.gatedLoadCount() << " |\n"
     << "| condition literals | " << in.controller.conditionLiterals() << " |\n"
     << "| status bits | " << in.controller.statusCaptures.size() << " |\n"
     << "| area estimate | " << fixed(in.controller.estimatedArea(), 0) << " NAND2-eq |\n\n";

  // ---- power summary --------------------------------------------------------------
  os << "## Power (paper weights, datapath)\n\n"
     << "| | value |\n|---|---|\n"
     << "| without PM | " << fixed(in.activation.fullPower(model), 2) << " |\n"
     << "| with PM (expected) | " << fixed(in.activation.expectedPower(model), 2) << " |\n"
     << "| reduction | " << fixed(in.activation.reductionPercent(model), 2) << "% |\n";
  return os.str();
}

}  // namespace analysis
}  // namespace pmsched
