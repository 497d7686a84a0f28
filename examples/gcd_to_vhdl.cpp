// End-to-end flow on the GCD circuit, starting from behavioral source:
//
//   SIL source -> CDFG -> power-management transform -> resource-minimal
//   schedule -> binding -> controller -> VHDL (datapath + controller +
//   self-checking testbench)
//
// This is the paper's flow (Silage -> HYPER -> scheduling with power
// management -> VHDL) on our substrates. VHDL files are written to the
// current directory.

#include <fstream>
#include <iostream>

#include "alloc/binding.hpp"
#include "ctrl/controller.hpp"
#include "lang/elaborate.hpp"
#include "lang/library.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "vhdl/emit.hpp"

int main() {
  using namespace pmsched;

  std::cout << "GCD: behavioral source to power-managed VHDL\n"
            << "============================================\n\n";
  std::cout << "-- SIL source --\n" << lang::gcdSource() << "\n";

  const Graph g = lang::compile(lang::gcdSource());
  const OpStats stats = countOps(g);
  std::cout << "CDFG: " << stats.totalUnits() << " operations (" << stats.mux << " MUX, "
            << stats.comp << " COMP, " << stats.sub << " SUB), critical path "
            << criticalPathLength(g) << "\n\n";

  const int steps = 7;  // the paper's most relaxed GCD budget
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);
  std::cout << "Power management at " << steps << " steps: " << design.managedCount()
            << " managed muxes\n";
  for (const MuxPmInfo& info : design.muxes) {
    if (!info.managed || !info.hasGatedWork()) continue;
    std::cout << "  mux '" << design.graph.node(info.mux).name << "' gates:";
    for (const NodeId n : info.gatedTrue)
      std::cout << " " << design.graph.node(n).name << "(T)";
    for (const NodeId n : info.gatedFalse)
      std::cout << " " << design.graph.node(n).name << "(F)";
    std::cout << "\n";
  }

  const MinimizedSchedule minimized = minimizeSchedule(design.graph, steps);
  const Schedule& sched = minimized.schedule;
  std::cout << "\nSchedule (" << steps << " steps, units " << minimized.units.toString()
            << "):\n"
            << sched.render(design.graph) << "\n";

  const Binding binding = bindDesign(design.graph, sched);
  const ActivationResult activation = analyzeActivation(design);
  const ControllerSpec ctrl =
      synthesizeController(design, sched, binding, activation);
  std::cout << "Controller: " << ctrl.stateCount() << " states, " << ctrl.loads.size()
            << " loads (" << ctrl.gatedLoadCount() << " gated), ~"
            << ctrl.estimatedArea() << " NAND2-eq\n\n";

  const std::string datapath = vhdl::emitDatapath(design, sched, ctrl);
  const std::string controller = vhdl::emitController(design, sched, ctrl);
  const std::string testbench =
      vhdl::emitTestbench(design, sched, ctrl, /*vectors=*/8, /*seed=*/7);

  for (const auto& [file, text] : {std::pair<const char*, const std::string&>{
                                       "gcd_datapath.vhd", datapath},
                                   {"gcd_controller.vhd", controller},
                                   {"gcd_tb.vhd", testbench}}) {
    std::ofstream out(file);
    out << text;
    std::cout << "wrote " << file << " (" << text.size() << " bytes)\n";
  }

  std::cout << "\n-- controller excerpt --\n"
            << controller.substr(0, controller.find("end architecture")) << "...\n";
  return 0;
}
