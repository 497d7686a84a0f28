#include "explore/explore.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "cdfg/analysis.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/resources.hpp"
#include "sched/timeframe.hpp"
#include "support/fault_injector.hpp"
#include "support/json.hpp"
#include "support/run_budget.hpp"

namespace pmsched {

namespace {

/// The transform's candidates on the INPUT graph: muxes whose gated sets
/// contain at least one scheduled operation (greedy and optimal agree on
/// them; ordering only permutes them), and the union of their control
/// edges. Gated sets depend on data edges alone, so both match what the
/// transform sees.
struct CandidateUnion {
  int count = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;
};

CandidateUnion candidateUnion(const Graph& g) {
  CandidateUnion out;
  GatedSetFinder finder(g);
  for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
    const GatedSets sets = finder.find(m);
    if (!sets.gatesWork(g)) continue;
    ++out.count;
    const NodeId ctrl = traceSelectProducer(g, m);
    if (!isScheduled(g.kind(ctrl))) continue;  // PI-driven select: no edges
    for (const NodeId t : sets.topTrue) out.edges.emplace_back(ctrl, t);
    for (const NodeId t : sets.topFalse) out.edges.emplace_back(ctrl, t);
  }
  return out;
}

/// Smallest budget in [minSteps, maxSteps] at which the union `edges` of
/// every candidate's control edges is jointly feasible. Feasibility of an
/// edge set is monotone in steps and every committed set is a subset of
/// this union, so the transform is certain to saturate at or before this
/// bound — a cheap predictive stat (the sweep itself uses the empirical
/// certificate). -1 when even maxSteps cannot fit the union.
int relaxedBoundSteps(const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& edges,
                      int minSteps, int maxSteps) {
  // Feasibility is monotone in the budget, so the least feasible s is found
  // by binary search instead of a linear scan over the sweep range.
  const auto feasibleAt = [&](int s) {
    return computeTimeFrames(g, s, edges, LatencyModel::unit()).feasible(g);
  };
  if (!feasibleAt(maxSteps)) return -1;
  int lo = minSteps, hi = maxSteps;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (feasibleAt(mid)) hi = mid;
    else lo = mid + 1;
  }
  return lo;
}

/// An earlier front point already has strictly better latency, so it
/// dominates a later candidate as soon as it is at least as good on both
/// remaining axes.
bool dominatedByFront(const std::vector<ExplorePoint>& front, double power, double area) {
  return std::any_of(front.begin(), front.end(), [&](const ExplorePoint& p) {
    return p.power >= power && p.area <= area;
  });
}

/// The empirical saturation certificate (see the header): a clean run that
/// managed every candidate and whose shared-gating pass rejected nothing
/// for slack repeats its decisions verbatim at every looser budget.
bool saturatedOutcome(const DesignOutcome& out, int fullCandidates) {
  return !out.summary.degraded && out.design.managedCount() == fullCandidates &&
         out.sharedGatingSlackRejects == 0;
}

void stopDegraded(ExploreResult& res, const RunBudget* budget) {
  res.degraded = true;
  res.degradeReason = "explore";
  if (budget != nullptr)
    budget->noteDegraded("explore",
                         budget->exhaustedWhy().value_or(BudgetKind::Deadline),
                         "sweep stopped; the front is a clean prefix");
}

}  // namespace

ExploreResult exploreDesignSpace(const ExploreRequest& req, const RunBudget* budget) {
  req.graph.validate();
  ExploreResult res;
  res.circuit = req.graph.name();
  // Per-sweep constants: every point's summary repeats the input graph's
  // op count and critical path, and every pruning bound its per-class op
  // counts (the design graph adds control edges, never nodes).
  const GraphConstants constants = GraphConstants::of(req.graph);
  const ResourceVector opsPerClass{countByClass(req.graph)};
  const UnitCosts costs = UnitCosts::defaults();
  res.ops = constants.ops;
  res.criticalPath = constants.criticalPath;
  res.minSteps = req.minSteps > 0 ? req.minSteps : res.criticalPath;
  res.maxSteps = req.maxSteps > 0 ? req.maxSteps : res.minSteps + std::max(req.span, 0);
  res.ordering = req.ordering;
  res.optimal = req.optimal;
  res.shared = req.shared;
  const CandidateUnion candidates = candidateUnion(req.graph);
  const int fullCandidates = candidates.count;
  res.stats.candidates = fullCandidates;
  res.stats.relaxedBoundSteps =
      relaxedBoundSteps(req.graph, candidates.edges, res.minSteps, res.maxSteps);

  // The sweep's one copy of the input graph: each point only sets steps.
  DesignJob job;
  job.graph = req.graph;
  job.ordering = req.ordering;
  job.optimal = req.optimal;
  job.shared = req.shared;

  // The saturated base: the full outcome whose design and activation every
  // later point finishes against in place. Its activation result is
  // steps-independent, so basePower is the EXACT power of every amortized
  // point — which is what makes pruning on (basePower, a lower bound on the
  // point's area) equivalent to full evaluation.
  std::optional<DesignOutcome> base;
  double basePower = 0;
  // The base's committed frames, moved to each amortized point's budget.
  TimeFrames baseFrames;

  for (int s = res.minSteps; s <= res.maxSteps; ++s) {
    if (budget != nullptr && budget->exhausted()) {
      stopDegraded(res, budget);
      break;
    }
    ++res.stats.pointsSwept;
    try {
      fault::point("explore-point");
    } catch (const FaultInjectedError& e) {
      res.skipped.push_back({s, "fault", e.what()});
      continue;
    }
    job.steps = s;

    try {
      DesignOutcome out;
      double power = basePower;  // exact for every amortized point
      if (base.has_value()) {
        // Amortized point: only the steps-dependent tail can change, and
        // power is exactly basePower, so the point enters the front iff its
        // minimized area beats every front point at least as powerful.
        // Prune before paying for it: first on the pigeonhole bound, which
        // that area never undercuts (minimized area itself is NOT monotone
        // in the budget — docs/EXPLORE.md), then on the area itself.
        const double bound = costs.costOf(unitLowerBound(opsPerClass, s));
        if (dominatedByFront(res.front, basePower, bound)) {
          ++res.stats.pruned;
          continue;
        }
        baseFrames.rebudget(s);
        MinimizedSchedule minimized = minimizeSchedule(base->design.graph, s, baseFrames);
        const double area = costs.costOf(minimized.units);
        if (dominatedByFront(res.front, basePower, area)) {
          ++res.stats.pruned;
          continue;
        }
        ++res.stats.amortizedRuns;
        out.sharedGated = base->sharedGated;
        out.sharedGatingSlackRejects = base->sharedGatingSlackRejects;
        FinishOptions fin;
        fin.minimized = &minimized;
        fin.constants = &constants;
        finishDesignJob(out, base->design, base->activation, job, budget, fin);
      } else {
        ++res.stats.fullRuns;
        out = runDesignJob(job, budget);
        power = out.activation.reductionPercent(OpPowerModel::paperWeights());
      }

      if (budget != nullptr && budget->exhausted()) {
        // Keep the point only if it finished clean (then it is identical to
        // the unbudgeted run's); a half-budgeted result never enters the
        // front — that is what keeps the partial front a monotone prefix.
        if (!out.summary.degraded) {
          const double area = costs.costOf(out.units);
          if (!dominatedByFront(res.front, power, area))
            res.front.push_back(ExplorePoint{s, out.summary, power, area});
          else
            ++res.stats.dominated;
        }
        stopDegraded(res, budget);
        break;
      }

      const double area = costs.costOf(out.units);
      if (!dominatedByFront(res.front, power, area))
        res.front.push_back(ExplorePoint{s, out.summary, power, area});
      else
        ++res.stats.dominated;

      if (!base.has_value() && saturatedOutcome(out, fullCandidates)) {
        res.stats.saturationSteps = s;
        basePower = power;
        base.emplace(std::move(out));
        baseFrames = base->design.frames;
      }
    } catch (const InfeasibleError& e) {
      res.skipped.push_back({s, "infeasible", e.what()});
    } catch (const SynthesisError& e) {
      // The one-shot run at this budget fails the same way (deterministic
      // schedule/binding/activation), so skipping typed preserves the
      // point-for-point equivalence: the point exists in neither world.
      res.skipped.push_back({s, "synthesis", e.what()});
    }
  }
  return res;
}

namespace {

const char* orderingName(MuxOrdering ordering) {
  switch (ordering) {
    case MuxOrdering::OutputFirst: return "output";
    case MuxOrdering::InputFirst: return "input";
    case MuxOrdering::BySavings: return "savings";
  }
  return "output";
}

void writeFront(JsonWriter& w, const ExploreResult& res) {
  w.beginArray();
  for (const ExplorePoint& p : res.front) {
    w.beginObject()
        .key("steps").value(p.steps)
        .key("managed").value(p.summary.managed)
        .key("shared_gated").value(p.summary.sharedGated)
        .key("units").value(p.summary.units)
        .key("area").value(p.area)
        .key("reduction_percent").value(p.summary.reductionPercent)
        .key("degraded").value(p.summary.degraded);
    if (p.summary.degraded) w.key("degrade_reason").value(p.summary.degradeReason);
    w.endObject();
  }
  w.endArray();
}

}  // namespace

std::string renderExploreJson(const ExploreResult& res) {
  JsonWriter w;
  w.beginObject()
      .key("circuit").value(res.circuit)
      .key("ops").value(res.ops)
      .key("critical_path").value(res.criticalPath)
      .key("min_steps").value(res.minSteps)
      .key("max_steps").value(res.maxSteps)
      .key("mode").value("amortized")
      .key("ordering").value(orderingName(res.ordering))
      .key("optimal").value(res.optimal)
      .key("shared").value(res.shared)
      .key("front");
  writeFront(w, res);
  w.key("skipped").beginArray();
  for (const ExploreSkip& skip : res.skipped) {
    w.beginObject()
        .key("steps").value(skip.steps)
        .key("kind").value(skip.kind)
        .key("note").value(skip.note)
        .endObject();
  }
  w.endArray();
  w.key("stats").beginObject()
      .key("points_swept").value(res.stats.pointsSwept)
      .key("full_runs").value(res.stats.fullRuns)
      .key("amortized_runs").value(res.stats.amortizedRuns)
      .key("pruned").value(res.stats.pruned)
      .key("dominated").value(res.stats.dominated)
      .key("candidates").value(res.stats.candidates)
      .key("saturation_steps").value(res.stats.saturationSteps)
      .key("relaxed_bound_steps").value(res.stats.relaxedBoundSteps)
      .endObject();
  w.key("degraded").value(res.degraded);
  if (res.degraded) w.key("degrade_reason").value(res.degradeReason);
  w.endObject();
  return w.str();
}

std::string renderExploreFrontJson(const ExploreResult& res) {
  JsonWriter w;
  writeFront(w, res);
  return w.str();
}

}  // namespace pmsched
