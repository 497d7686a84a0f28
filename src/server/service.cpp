#include "server/service.hpp"

#include "cdfg/analysis.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "support/run_budget.hpp"
#include "support/strings.hpp"

namespace pmsched {

DesignOutcome runDesignJob(const DesignJob& job, const RunBudget* budget) {
  DesignOutcome out;
  out.trace.start();
  out.design = job.optimal
                   ? applyPowerManagementOptimal(job.graph, job.steps, 24, budget)
                   : applyPowerManagement(job.graph, job.steps, job.ordering,
                                          LatencyModel::unit(), budget);
  const std::uint64_t transformWrites = out.design.oracleFrameWrites;
  out.trace.close(Stage::Transform).frameWrites = transformWrites;
  if (job.shared) {
    out.sharedGated = applySharedGating(out.design, budget, &out.sharedGatingSlackRejects);
    out.trace.close(Stage::SharedGating).frameWrites =
        out.design.oracleFrameWrites - transformWrites;
  }
  finishDesignJob(out, job, budget);
  return out;
}

GraphConstants GraphConstants::of(const Graph& g) {
  return GraphConstants{countOps(g).totalUnits(), criticalPathLength(g)};
}

namespace {

/// Both finishDesignJob() forms. A null `activation` analyzes `design` into
/// out.activation at the activation stage.
void finishTail(DesignOutcome& out, const PowerManagedDesign& design,
                const ActivationResult* activation, const DesignJob& job,
                const RunBudget* budget, const FinishOptions& fin) {
  if (!out.trace.running()) out.trace.start();
  MinimizedSchedule minimized = fin.minimized != nullptr
                                    ? std::move(*fin.minimized)
                                    : minimizeSchedule(design.graph, job.steps, design.frames);
  out.units = minimized.units;
  out.schedule = std::move(minimized.schedule);
  out.trace.close(Stage::Minimize).listRuns = static_cast<std::uint64_t>(minimized.runs);
  out.binding = bindDesign(design.graph, out.schedule);
  out.trace.close(Stage::Bind);
  if (activation == nullptr) {
    out.activation = analyzeActivation(design, budget);
    activation = &out.activation;
  }
  out.trace.close(Stage::Activation);
  out.controller = synthesizeController(design, out.schedule, out.binding, *activation);
  out.trace.close(Stage::Controller);
  out.trace.stop();

  DesignSummary& s = out.summary;
  const GraphConstants constants =
      fin.constants != nullptr ? *fin.constants : GraphConstants::of(job.graph);
  s.ops = constants.ops;
  s.criticalPath = constants.criticalPath;
  s.steps = job.steps;
  s.managed = design.managedCount();
  s.sharedGated = out.sharedGated;
  s.units = out.units.toString();
  s.reductionPercent = fixed(activation->reductionPercent(OpPowerModel::paperWeights()), 2);

  // One stable degradation verdict, mirroring the CLI's summary line: the
  // budget's first-trip kind wins, then the first logged event, then the
  // transform's own reason.
  s.degraded = design.degraded || activation->degraded ||
               (budget != nullptr && budget->degraded());
  if (s.degraded) {
    if (budget != nullptr && budget->exhaustedWhy())
      s.degradeReason = budgetKindName(*budget->exhaustedWhy());
    else if (budget != nullptr && !budget->events().empty())
      s.degradeReason = budgetKindName(budget->events().front().kind);
    else if (!design.degradeReason.empty())
      s.degradeReason = design.degradeReason;
    else
      s.degradeReason = "stage-local limit";
  }
}

}  // namespace

void finishDesignJob(DesignOutcome& out, const DesignJob& job, const RunBudget* budget,
                     const FinishOptions& fin) {
  finishTail(out, out.design, nullptr, job, budget, fin);
}

void finishDesignJob(DesignOutcome& out, const PowerManagedDesign& design,
                     const ActivationResult& activation, const DesignJob& job,
                     const RunBudget* budget, const FinishOptions& fin) {
  finishTail(out, design, &activation, job, budget, fin);
}

}  // namespace pmsched
