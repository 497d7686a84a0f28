#pragma once
// Test-only reference for the design-space sweep (src/explore/explore.cpp):
// the plain per-point loop, one full runDesignJob() per step budget, with
// the sweep's typed skips and its dominance rule (a point enters the front
// unless an earlier front point is at least as powerful and at most as
// large). exploreDesignSpace reuses a saturated base design instead of
// re-running the pipeline and prunes on an area bound; the differential in
// test_explore.cpp requires the two to emit byte-identical fronts and the
// same skips. bench_perf times this loop against the sweep.

#include <algorithm>
#include <vector>

#include "cdfg/analysis.hpp"
#include "explore/explore.hpp"
#include "power/power_model.hpp"
#include "sched/resources.hpp"
#include "server/service.hpp"
#include "support/diagnostics.hpp"
#include "support/fault_injector.hpp"

namespace pmsched {

/// Every budget of `req`'s range as a full run. Fills the front, the skips
/// and the range; the stats stay zero.
inline ExploreResult explorePerPointReference(const ExploreRequest& req) {
  req.graph.validate();
  ExploreResult res;
  res.circuit = req.graph.name();
  res.ops = countOps(req.graph).totalUnits();
  res.criticalPath = criticalPathLength(req.graph);
  res.minSteps = req.minSteps > 0 ? req.minSteps : res.criticalPath;
  res.maxSteps = req.maxSteps > 0 ? req.maxSteps : res.minSteps + std::max(req.span, 0);
  res.ordering = req.ordering;
  res.optimal = req.optimal;
  res.shared = req.shared;

  const UnitCosts costs = UnitCosts::defaults();
  for (int s = res.minSteps; s <= res.maxSteps; ++s) {
    try {
      fault::point("explore-point");
    } catch (const FaultInjectedError& e) {
      res.skipped.push_back({s, "fault", e.what()});
      continue;
    }
    DesignJob job;
    job.graph = req.graph;
    job.steps = s;
    job.ordering = req.ordering;
    job.optimal = req.optimal;
    job.shared = req.shared;
    try {
      const DesignOutcome out = runDesignJob(job);
      const double power = out.activation.reductionPercent(OpPowerModel::paperWeights());
      const double area = costs.costOf(out.units);
      const bool dominated =
          std::any_of(res.front.begin(), res.front.end(), [&](const ExplorePoint& p) {
            return p.power >= power && p.area <= area;
          });
      if (!dominated) res.front.push_back(ExplorePoint{s, out.summary, power, area});
    } catch (const InfeasibleError& e) {
      res.skipped.push_back({s, "infeasible", e.what()});
    } catch (const SynthesisError& e) {
      res.skipped.push_back({s, "synthesis", e.what()});
    }
  }
  return res;
}

}  // namespace pmsched
