// Tests for the extra HLS benchmark circuits (FIR, ARF, EWF, diffeq) and
// their behaviour across the scheduling substrate — these are the classic
// scheduler stress workloads, all conditional-free.

#include <gtest/gtest.h>

#include "cdfg/analysis.hpp"
#include "cdfg/interpreter.hpp"
#include "circuits/circuits.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"

namespace pmsched {
namespace {

TEST(HlsCircuits, FirComputesConvolution) {
  const Graph g = circuits::fir8();
  std::map<std::string, std::int64_t> in;
  // x_i = 1 for all taps: y = sum of coefficients 1,3,5,...,15 = 64 -> wraps.
  for (int i = 0; i < 8; ++i) in[std::string("x").append(std::to_string(i))] = 1;
  const auto out = evaluateGraph(g, in);
  EXPECT_EQ(out.at("y"), truncateToWidth(64, 8));

  // Impulse response: only tap 3 set -> y = c3 = 7.
  std::map<std::string, std::int64_t> impulse{{"x3", 1}};
  EXPECT_EQ(evaluateGraph(g, impulse).at("y"), 7);
}

TEST(HlsCircuits, FirTreeHasLogDepth) {
  const Graph g = circuits::fir8();
  const OpStats stats = countOps(g);
  EXPECT_EQ(stats.mul, 8);
  EXPECT_EQ(stats.add, 7);
  EXPECT_EQ(criticalPathLength(g), 4);  // mul + 3 adder-tree levels
}

TEST(HlsCircuits, ArfIsMultiplierDominated) {
  const Graph g = circuits::arf();
  const OpStats stats = countOps(g);
  EXPECT_EQ(stats.mul, 16);
  EXPECT_EQ(stats.add, 8);
  EXPECT_EQ(stats.mux, 0);
  EXPECT_EQ(criticalPathLength(g), 8);  // 4 mul/add rounds
}

TEST(HlsCircuits, NoPowerManagementWithoutConditionals) {
  for (const Graph& g : {circuits::fir8(), circuits::arf()}) {
    const PowerManagedDesign design = applyPowerManagement(g, criticalPathLength(g) + 4);
    EXPECT_EQ(design.managedCount(), 0) << g.name();
  }
}

TEST(HlsCircuits, ResourceSweepTradesUnitsForSteps) {
  // The classic HLS time/area trade-off must be visible: FIR at CP needs
  // several multipliers; doubling the budget must need at most half plus
  // rounding.
  const Graph g = circuits::fir8();
  const int cp = criticalPathLength(g);
  const int atCp = minimizeResources(g, cp).of(ResourceClass::Multiplier);
  const int relaxed = minimizeResources(g, cp + 7).of(ResourceClass::Multiplier);
  EXPECT_GT(atCp, relaxed);
  EXPECT_EQ(relaxed, 1);  // 8 muls over 11 steps: one unit suffices
}

TEST(HlsCircuits, EwfSchedulesAtItsCriticalPathAndBeyond) {
  // Our EWF variant is a deep adder chain (CP 42 — it follows the serial
  // feedback formulation, not the classic 14-step parallel one); what
  // matters here is that the scheduler handles a long, skinny graph.
  const Graph g = circuits::ewf();
  const int cp = criticalPathLength(g);
  EXPECT_EQ(cp, 42);
  const ResourceVector atCp = minimizeResources(g, cp);
  EXPECT_LE(atCp.of(ResourceClass::Adder), 4);
  EXPECT_NO_THROW((void)minimizeResources(g, cp + 5));
}

TEST(HlsCircuits, DiffeqLoopTestIsTheOnlyComparison) {
  const Graph g = circuits::diffeq();
  EXPECT_EQ(countOps(g).comp, 1);
  EXPECT_EQ(countOps(g).mul, 6);
}

}  // namespace
}  // namespace pmsched
