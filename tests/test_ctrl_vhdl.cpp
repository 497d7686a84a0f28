// Tests for controller synthesis and the VHDL writers.

#include <gtest/gtest.h>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "ctrl/controller.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "support/strings.hpp"
#include "vhdl/emit.hpp"

namespace pmsched {
namespace {

struct Flow {
  PowerManagedDesign design;
  Schedule sched;
  Binding binding;
  ActivationResult activation;
  ControllerSpec ctrl;
};

Flow runFlow(const Graph& g, int steps, bool pm) {
  Flow flow{.design = pm ? applyPowerManagement(g, steps) : unmanagedDesign(g, steps),
            .sched = {},
            .binding = {},
            .activation = {},
            .ctrl = {}};
  if (pm) applySharedGating(flow.design);
  const ResourceVector units = minimizeResources(flow.design.graph, steps);
  flow.sched = *listSchedule(flow.design.graph, steps, units).schedule;
  flow.binding = bindDesign(flow.design.graph, flow.sched);
  flow.activation = analyzeActivation(flow.design);
  flow.ctrl = synthesizeController(flow.design, flow.sched, flow.binding, flow.activation);
  return flow;
}

TEST(Controller, OneLoadPerRegisteredValue) {
  const Flow flow = runFlow(circuits::gcd(), 7, true);
  int registered = 0;
  for (NodeId n = 0; n < flow.design.graph.size(); ++n)
    if (isScheduled(flow.design.graph.kind(n)) && flow.binding.registerOf[n] >= 0)
      ++registered;
  EXPECT_EQ(static_cast<int>(flow.ctrl.loads.size()), registered);
}

TEST(Controller, GatedLoadsOnlyWithPowerManagement) {
  const Flow baseline = runFlow(circuits::gcd(), 7, false);
  EXPECT_EQ(baseline.ctrl.gatedLoadCount(), 0);

  const Flow pm = runFlow(circuits::gcd(), 7, true);
  EXPECT_GT(pm.ctrl.gatedLoadCount(), 0);
  EXPECT_GT(pm.ctrl.conditionLiterals(), 0);
}

TEST(Controller, PmControllerIsMoreComplex) {
  // The paper: "the controller is somewhat more complex" with PM.
  const Flow baseline = runFlow(circuits::dealer(), 6, false);
  const Flow pm = runFlow(circuits::dealer(), 6, true);
  EXPECT_GT(pm.ctrl.estimatedArea(), baseline.ctrl.estimatedArea());
  EXPECT_EQ(pm.ctrl.stateCount(), baseline.ctrl.stateCount());
}

TEST(Controller, StatusCapturedBeforeUse) {
  const Flow flow = runFlow(circuits::dealer(), 6, true);
  for (const LoadAction& load : flow.ctrl.loads) {
    for (const GateTerm& term : flow.ctrl.condition(load)) {
      for (const GateLiteral& lit : term) {
        if (!isScheduled(flow.design.graph.kind(lit.select))) continue;
        EXPECT_LT(flow.sched.stepOf(lit.select), load.step);
      }
    }
  }
}

TEST(Controller, LoadsSortedByStep) {
  const Flow flow = runFlow(circuits::vender(), 6, true);
  for (std::size_t i = 1; i < flow.ctrl.loads.size(); ++i)
    EXPECT_LE(flow.ctrl.loads[i - 1].step, flow.ctrl.loads[i].step);
}

TEST(Vhdl, DatapathStructurallyComplete) {
  const Flow flow = runFlow(circuits::gcd(), 7, true);
  const std::string text = vhdl::emitDatapath(flow.design, flow.sched, flow.ctrl);

  EXPECT_NE(text.find("entity gcd_datapath is"), std::string::npos);
  EXPECT_NE(text.find("architecture rtl of gcd_datapath"), std::string::npos);
  // Every input/output port present.
  for (const NodeId n : flow.design.graph.nodesOfKind(OpKind::Input))
    EXPECT_NE(text.find("pi_" + flow.design.graph.node(n).name), std::string::npos);
  for (const NodeId n : flow.design.graph.nodesOfKind(OpKind::Output))
    EXPECT_NE(text.find("po_" + flow.design.graph.node(n).name), std::string::npos);
  // Every load enable declared and used.
  for (const LoadAction& load : flow.ctrl.loads) {
    const std::string ld = "ld_" + flow.design.graph.node(load.value).name;
    EXPECT_NE(text.find(ld + " : in std_logic"), std::string::npos) << ld;
    EXPECT_NE(text.find("if " + ld + " = '1'"), std::string::npos) << ld;
  }
  EXPECT_NE(text.find("rising_edge(clk)"), std::string::npos);
}

TEST(Vhdl, ControllerEncodesGatedEnables) {
  const Flow flow = runFlow(circuits::gcd(), 7, true);
  const std::string text = vhdl::emitController(flow.design, flow.sched, flow.ctrl);

  EXPECT_NE(text.find("entity gcd_controller is"), std::string::npos);
  EXPECT_NE(text.find("signal state"), std::string::npos);
  // Gated loads must reference a status bit in their enable expression.
  bool sawGated = false;
  for (const LoadAction& load : flow.ctrl.loads) {
    if (!load.isGated()) continue;
    sawGated = true;
    EXPECT_NE(text.find("st_"), std::string::npos);
  }
  EXPECT_TRUE(sawGated);
}

TEST(Vhdl, BaselineControllerHasNoConditions) {
  const Flow flow = runFlow(circuits::gcd(), 7, false);
  const std::string text = vhdl::emitController(flow.design, flow.sched, flow.ctrl);
  EXPECT_EQ(text.find(" and ("), std::string::npos);
}

TEST(Vhdl, TestbenchAssertsInterpreterValues) {
  const Flow flow = runFlow(circuits::absdiff(), 3, true);
  const std::string text =
      vhdl::emitTestbench(flow.design, flow.sched, flow.ctrl, /*vectors=*/3, /*seed=*/11);
  EXPECT_NE(text.find("entity absdiff_tb is"), std::string::npos);
  // Three vectors -> three asserts on the single output.
  std::size_t count = 0;
  for (std::size_t pos = text.find("assert po_abs_out"); pos != std::string::npos;
       pos = text.find("assert po_abs_out", pos + 1))
    ++count;
  EXPECT_EQ(count, 3u);
  EXPECT_NE(text.find("report \"testbench done\""), std::string::npos);
}

TEST(Vhdl, TestbenchAssertsUseEachOutputsOwnWidth) {
  // Every vector asserts every output once, at the width of the node that
  // output's name resolves to (one bit as a '0'/'1' literal).
  for (const Graph& g : {circuits::dealer(), circuits::vender(), circuits::cordic()}) {
    const int steps = criticalPathLength(g) + 2;
    const Flow flow = runFlow(g, steps, true);
    const std::string text =
        vhdl::emitTestbench(flow.design, flow.sched, flow.ctrl, /*vectors=*/4, /*seed=*/5);
    const Graph& dg = flow.design.graph;
    for (const NodeId out : dg.nodesOfKind(OpKind::Output)) {
      const std::string& name = dg.node(out).name;
      const int width = dg.node(*dg.findByName(name)).width;
      const std::string head = "assert po_" + sanitizeIdentifier(name) + " = ";
      const std::string widthText =
          width == 1 ? std::string(" = '") : ", " + std::to_string(width) + ") report";
      std::size_t asserts = 0;
      for (std::size_t pos = text.find(head); pos != std::string::npos;
           pos = text.find(head, pos + 1)) {
        const std::string line = text.substr(pos, text.find('\n', pos) - pos);
        EXPECT_NE(line.find(widthText), std::string::npos) << g.name() << ": " << line;
        ++asserts;
      }
      EXPECT_EQ(asserts, 4u) << g.name() << " output " << name;
    }
  }
}

TEST(Vhdl, EmittedTextIsBalanced) {
  // Sanity: every 'entity' has an 'end entity;', every process an
  // 'end process;'.
  const Flow flow = runFlow(circuits::dealer(), 6, true);
  for (const std::string& text : {vhdl::emitDatapath(flow.design, flow.sched, flow.ctrl),
                                 vhdl::emitController(flow.design, flow.sched, flow.ctrl)}) {
    auto countOf = [&](const std::string& needle) {
      std::size_t count = 0;
      for (std::size_t pos = text.find(needle); pos != std::string::npos;
           pos = text.find(needle, pos + 1))
        ++count;
      return count;
    };
    EXPECT_EQ(countOf("entity"), 2u);  // declaration + "end entity;"
    EXPECT_EQ(countOf("process ("), countOf("end process;"));
  }
}

}  // namespace
}  // namespace pmsched
