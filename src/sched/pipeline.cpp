#include "sched/pipeline.hpp"

#include "sched/shared_gating.hpp"

namespace pmsched {

PipelineResult pipelineSchedule(const Graph& g, const PipelineOptions& opts) {
  if (opts.stages < 1) throw InfeasibleError("pipelineSchedule: stages must be >= 1");
  if (opts.effectiveSteps < 1)
    throw InfeasibleError("pipelineSchedule: effectiveSteps must be >= 1");

  const int latency = opts.stages * opts.effectiveSteps;
  const int ii = opts.stages > 1 ? opts.effectiveSteps : 0;

  PipelineResult result;
  result.latency = latency;

  if (opts.powerManage) {
    result.design = applyPowerManagement(g, latency, opts.ordering);
    if (opts.sharedGating) applySharedGating(result.design);
  } else {
    result.design = unmanagedDesign(g, latency);  // same budget, no gating
  }

  MinimizedSchedule minimized =
      minimizeSchedule(result.design.graph, latency, UnitCosts::defaults(), ii);
  result.schedule = std::move(minimized.schedule);
  result.units = minimized.units;
  return result;
}

}  // namespace pmsched
