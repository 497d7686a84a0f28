// Pipeline invariants at realistic sizes: every graph the random generator
// makes and every paper circuit, under every mux ordering, strict and
// shared gating, greedy and (on small graphs) exact search, at budgets from
// the critical path up. Each run of the full design job must either
// succeed with a schedule that validates against the design graph and
// activation conditions the schedule can honour, or fail with a typed
// InfeasibleError/BudgetExceededError. A SynthesisError is a bug.
//
// The condition check needs no schedule: a unit's latch enable reads its
// condition's selects, so every scheduled select in a node's resolved
// condition must reach the node over data and control edges. A gate-level
// check simulates a few shared designs against the CDFG interpreter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "rtl/power_harness.hpp"
#include "sched/condition.hpp"
#include "sched/power_transform.hpp"
#include "server/service.hpp"
#include "support/diagnostics.hpp"
#include "support/random_dfg.hpp"
#include "support/rng.hpp"

namespace pmsched {
namespace {

constexpr MuxOrdering kOrderings[] = {MuxOrdering::OutputFirst, MuxOrdering::InputFirst,
                                      MuxOrdering::BySavings};

std::string describe(const DesignJob& job) {
  static const char* const kOrderingNames[] = {"output", "input", "savings"};
  return job.graph.name() + " @" + std::to_string(job.steps) + " " +
         kOrderingNames[static_cast<int>(job.ordering)] + (job.shared ? " shared" : " strict") +
         (job.optimal ? " optimal" : "");
}

/// Every scheduled node's condition support is ordered before the node: the
/// count of (node, select) pairs where the select does not reach the node.
int unorderedConditions(const PowerManagedDesign& design, const std::string& what) {
  const Graph& g = design.graph;
  const ConditionTable conditions = resolveActivationConditions(design);
  std::vector<std::vector<NodeId>> needers(g.size());  // per select
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n)) || conditions.index[n] == 0) continue;
    for (const NodeId sel : dnfSupport(conditions.of(n)))
      if (isScheduled(g.kind(sel))) needers[sel].push_back(n);
  }
  int bad = 0;
  std::vector<char> reached(g.size());
  std::vector<NodeId> stack;
  for (NodeId sel = 0; sel < g.size(); ++sel) {
    if (needers[sel].empty()) continue;
    std::fill(reached.begin(), reached.end(), 0);
    stack.assign(1, sel);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      const auto visit = [&](NodeId s) {
        if (!reached[s]) {
          reached[s] = 1;
          stack.push_back(s);
        }
      };
      for (const NodeId s : g.fanouts(v)) visit(s);
      for (const NodeId s : g.controlSuccessors(v)) visit(s);
    }
    for (const NodeId n : needers[sel]) {
      if (reached[n]) continue;
      if (++bad <= 3)
        ADD_FAILURE() << what << ": select '" << g.node(sel).name << "' in the condition of '"
                      << g.node(n).name << "' does not reach it";
    }
  }
  return bad;
}

/// One run of the design job against the invariants. Returns whether it
/// produced a design (false: a typed infeasible or budget verdict).
bool expectInvariants(const DesignJob& job) {
  const std::string what = describe(job);
  DesignOutcome out;
  try {
    out = runDesignJob(job);
  } catch (const InfeasibleError&) {
    return false;
  } catch (const BudgetExceededError&) {
    return false;
  } catch (const SynthesisError& e) {
    ADD_FAILURE() << what << ": " << e.what();
    return false;
  }
  EXPECT_NO_THROW(out.schedule.validate(out.design.graph, out.design.latency)) << what;
  EXPECT_EQ(unorderedConditions(out.design, what), 0) << what;
  return true;
}

/// Every ordering, strict and shared, at cp, cp+1, cp+2 and cp+8; the exact
/// search too when `optimal`. Returns the number of designs produced.
int expectInvariantsAcrossJobs(const Graph& g, bool optimal) {
  const int cp = criticalPathLength(g);
  int designs = 0;
  DesignJob job;
  job.graph = g;
  for (const int slack : {0, 1, 2, 8}) {
    job.steps = cp + slack;
    for (const bool shared : {false, true}) {
      job.shared = shared;
      job.optimal = false;
      for (const MuxOrdering ordering : kOrderings) {
        job.ordering = ordering;
        designs += expectInvariants(job) ? 1 : 0;
      }
      if (optimal) {
        job.optimal = true;
        job.ordering = MuxOrdering::OutputFirst;
        designs += expectInvariants(job) ? 1 : 0;
      }
    }
  }
  return designs;
}

TEST(PipelineInvariants, RandomLadder) {
  // Fewer seeds as the graphs grow; exact search on the small rungs only.
  struct Rung {
    int layers;
    int perLayer;
    std::uint64_t seeds;
  };
  int designs = 0;
  for (const Rung rung : {Rung{8, 4, 6}, Rung{8, 8, 4}, Rung{16, 4, 4}, Rung{16, 8, 4},
                          Rung{32, 8, 3}, Rung{64, 8, 3}, Rung{128, 16, 2}, Rung{256, 16, 1},
                          Rung{512, 16, 3}}) {
    for (std::uint64_t seed = 1; seed <= rung.seeds; ++seed) {
      const Graph g = randomLayeredDfg(rung.layers, rung.perLayer, seed);
      designs += expectInvariantsAcrossJobs(g, /*optimal=*/rung.layers * rung.perLayer <= 128);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(designs, 0);
}

TEST(PipelineInvariants, PaperCircuitsAtTableIIBudgets) {
  for (const auto& entry : circuits::paperCircuits()) {
    DesignJob job;
    job.graph = entry.build();
    for (const int steps : circuits::tableIISteps(entry.name)) {
      job.steps = steps;
      for (const bool shared : {false, true})
        for (const bool optimal : {false, true})
          for (const MuxOrdering ordering : kOrderings) {
            job.shared = shared;
            job.optimal = optimal;
            job.ordering = ordering;
            EXPECT_TRUE(expectInvariants(job)) << describe(job);
          }
    }
  }
}

TEST(PipelineInvariants, SharedDesignsSimulateLikeTheInterpreter) {
  // Shared-mode points where a managed mux's condition reaches its gated
  // cones: the mapped machine must compute what the CDFG computes on every
  // vector.
  struct Case {
    Graph graph;
    int steps;
    MuxOrdering ordering;
  };
  std::vector<Case> cases;
  for (const auto& [layers, perLayer, seed, ordering] :
       {std::tuple{8, 4, 4, MuxOrdering::OutputFirst},
        std::tuple{8, 8, 1, MuxOrdering::OutputFirst},
        std::tuple{16, 4, 4, MuxOrdering::BySavings},
        std::tuple{16, 8, 1, MuxOrdering::InputFirst}}) {
    Graph g = randomLayeredDfg(layers, perLayer, static_cast<std::uint64_t>(seed));
    const int steps = criticalPathLength(g) + 2;
    cases.push_back({std::move(g), steps, ordering});
  }
  cases.push_back({circuits::vender(), 5, MuxOrdering::InputFirst});

  for (const Case& c : cases) {
    DesignJob job;
    job.graph = c.graph;
    job.steps = c.steps;
    job.ordering = c.ordering;
    const std::string what = describe(job);
    const DesignOutcome out = runDesignJob(job);
    Rng rng(0xDAC1996);
    const RtlPowerResult sim = measurePower(
        mapDesign(out.design, out.schedule, out.binding, out.activation, RtlOptions{true}),
        out.design.graph, 50, rng, true);
    EXPECT_EQ(sim.samples, 50) << what;
    EXPECT_EQ(sim.functionalMismatches, 0) << what;
  }
}

}  // namespace
}  // namespace pmsched
