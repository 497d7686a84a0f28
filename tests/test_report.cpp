// Tests for the Markdown design report.

#include <gtest/gtest.h>

#include "alloc/binding.hpp"
#include "analysis/report.hpp"
#include "circuits/circuits.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"

namespace pmsched {
namespace {

std::string reportFor(const Graph& g, int steps) {
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);
  nameSlackRejects(g, design);
  const ResourceVector units = minimizeResources(design.graph, steps);
  const Schedule sched = *listSchedule(design.graph, steps, units).schedule;
  const Binding binding = bindDesign(design.graph, sched);
  const ActivationResult activation = analyzeActivation(design);
  const ControllerSpec ctrl = synthesizeController(design, sched, binding, activation);
  return analysis::renderDesignReport({design, sched, binding, activation, ctrl});
}

TEST(Report, ContainsEverySection) {
  const std::string text = reportFor(circuits::dealer(), 6);
  for (const char* heading : {"# Design report: dealer", "## Circuit", "## Power management",
                              "## Gated operations", "## Schedule", "## Allocation",
                              "## Controller", "## Power (paper weights, datapath)"})
    EXPECT_NE(text.find(heading), std::string::npos) << heading;
}

TEST(Report, ShowsGatedConditionsAndProbabilities) {
  const std::string text = reportFor(circuits::dealer(), 6);
  EXPECT_NE(text.find("(c1=0) | (c1=1 & c2=0)"), std::string::npos)
      << "the shared adder's condition must be printed";
  EXPECT_NE(text.find("0.7500"), std::string::npos);
  EXPECT_NE(text.find("33.33%"), std::string::npos);
}

TEST(Report, ExplainsUnmanagedMuxes) {
  // The whole row, named node included: the transform leaves the reason
  // unnamed and nameSlackRejects() must name the node push() would.
  const std::string text = reportFor(circuits::absdiff(), 2);
  EXPECT_NE(text.find("| abs_mux | no | a_minus_b | b_minus_a | insufficient slack: node "
                      "'a_gt_b' would need ASAP > ALAP |\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("(nothing gated)"), std::string::npos);
}

TEST(Report, ListsUnitsWithBoundOps) {
  const std::string text = reportFor(circuits::gcd(), 7);
  EXPECT_NE(text.find("| COMP0 |"), std::string::npos);
  EXPECT_NE(text.find("| -0 | d |"), std::string::npos);  // the lone subtractor
}

}  // namespace
}  // namespace pmsched
