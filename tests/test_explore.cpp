// Explore-driver suite: Pareto-front dominance invariants, bit-identity of
// every front point against the one-shot pipeline, the amortized-vs-
// per-point differential (the executable form of the saturation argument in
// docs/EXPLORE.md), budget exhaustion as a monotone clean prefix, the
// explore-point fault contract, and the server "explore" op (which must
// bypass both design-cache levels). The CMake registration runs this binary
// at 1, 2 and 8 compute threads — every assertion here is
// thread-count-invariant by construction.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "circuits/circuits.hpp"
#include "explore/explore.hpp"
#include "explore_reference.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/timeframe.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/fault_injector.hpp"
#include "support/json.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"

namespace pmsched {
namespace {

ExploreRequest requestFor(Graph g, int span = 8) {
  ExploreRequest req;
  req.graph = std::move(g);
  req.span = span;
  return req;
}

/// The inputs every differential below sweeps: the paper's circuits (the
/// negative controls included) plus a layered random DFG large enough to
/// exercise saturation, pruning and the synthesis-skip path.
std::vector<ExploreRequest> sweepInputs(int span = 8) {
  std::vector<ExploreRequest> inputs;
  for (const auto& named : circuits::paperCircuits())
    inputs.push_back(requestFor(named.build(), span));
  inputs.push_back(requestFor(randomLayeredDfg(32, 6, 1), span));
  return inputs;
}

/// One front point rendered for comparison: the summary exactly as the
/// server/CLI would serialize it, plus the raw dominance doubles.
std::string pointKey(const ExplorePoint& p) {
  return std::to_string(p.steps) + "|" +
         makeDesignResultJson(p.summary, {}, false) + "|" +
         std::to_string(p.power) + "|" + std::to_string(p.area);
}

TEST(Explore, FrontDominanceInvariants) {
  for (const ExploreRequest& req : sweepInputs()) {
    const ExploreResult res = exploreDesignSpace(req);
    SCOPED_TRACE(res.circuit);
    EXPECT_FALSE(res.degraded);
    for (std::size_t i = 0; i < res.front.size(); ++i) {
      const ExplorePoint& p = res.front[i];
      EXPECT_GE(p.steps, res.minSteps);
      EXPECT_LE(p.steps, res.maxSteps);
      for (std::size_t j = 0; j < i; ++j) {
        const ExplorePoint& q = res.front[j];
        EXPECT_LT(q.steps, p.steps);  // ascending latency
        // No admitted point may be dominated by an earlier one.
        EXPECT_FALSE(q.power >= p.power && q.area <= p.area)
            << "point at " << p.steps << " dominated by " << q.steps;
      }
    }
  }
}

TEST(Explore, FrontPointsBitIdenticalToOneShot) {
  for (const ExploreRequest& req : sweepInputs()) {
    const ExploreResult res = exploreDesignSpace(req);
    SCOPED_TRACE(res.circuit);
    for (const ExplorePoint& p : res.front) {
      DesignJob job;
      job.graph = req.graph;
      job.steps = p.steps;
      job.ordering = req.ordering;
      job.optimal = req.optimal;
      job.shared = req.shared;
      const DesignOutcome oneShot = runDesignJob(job);
      EXPECT_EQ(makeDesignResultJson(p.summary, {}, false),
                makeDesignResultJson(oneShot.summary, {}, false))
          << "steps " << p.steps;
    }
  }
}

/// Amortized and per-point sweeps agree byte for byte on the front and on
/// the typed skips.
void expectMatchesReference(const ExploreRequest& req) {
  const ExploreResult amortized = exploreDesignSpace(req);
  const ExploreResult reference = explorePerPointReference(req);
  EXPECT_EQ(renderExploreFrontJson(amortized), renderExploreFrontJson(reference));
  ASSERT_EQ(amortized.skipped.size(), reference.skipped.size());
  for (std::size_t i = 0; i < amortized.skipped.size(); ++i) {
    EXPECT_EQ(amortized.skipped[i].steps, reference.skipped[i].steps);
    EXPECT_EQ(amortized.skipped[i].kind, reference.skipped[i].kind);
  }
}

TEST(Explore, AmortizedMatchesPerPointReference) {
  for (const int span : {8, 16}) {
    for (ExploreRequest req : sweepInputs(span)) {
      for (const bool optimal : {false, true}) {
        req.optimal = optimal;
        SCOPED_TRACE(req.graph.name() + " span " + std::to_string(span) +
                     (optimal ? " (optimal)" : ""));
        expectMatchesReference(req);
      }
    }
  }
}

TEST(Explore, AmortizedMatchesPerPointReferenceOnRandomSweeps) {
  // Sweeps whose minimized area rises again after falling somewhere in the
  // saturated tail: a pruning cutoff that assumes area never rises with the
  // budget drops the late point that beats the front. 64x8:1 at span 256
  // covers the long tail the bound prunes.
  struct Case {
    int layers, perLayer, seed, span;
    bool shared;
  };
  for (const Case& c : {Case{32, 5, 1, 8, false}, Case{24, 6, 20, 8, false},
                        Case{32, 4, 17, 8, false}, Case{16, 6, 7, 8, true},
                        Case{24, 5, 23, 8, true}, Case{32, 4, 23, 16, true},
                        Case{64, 8, 1, 256, false}}) {
    ExploreRequest req = requestFor(randomLayeredDfg(c.layers, c.perLayer, c.seed), c.span);
    req.shared = c.shared;
    SCOPED_TRACE(std::to_string(c.layers) + "x" + std::to_string(c.perLayer) + ":" +
                 std::to_string(c.seed) + " span " + std::to_string(c.span) +
                 (c.shared ? " shared" : " strict"));
    expectMatchesReference(req);
  }
}

/// The design every amortized point of `req`'s sweep reuses, and the
/// budget it saturated at.
std::pair<DesignOutcome, int> saturatedBase(const ExploreRequest& req) {
  const int sat = exploreDesignSpace(req).stats.saturationSteps;
  DesignJob job;
  job.graph = req.graph;
  job.steps = sat;
  job.shared = req.shared;
  return {runDesignJob(job), sat};
}

TEST(Explore, PigeonholeBoundHoldsOnSaturatedTails) {
  std::vector<ExploreRequest> inputs;
  for (const auto& named : circuits::paperCircuits())
    inputs.push_back(requestFor(named.build(), 16));
  inputs.push_back(requestFor(randomLayeredDfg(32, 5, 1), 8));
  inputs.back().shared = false;
  inputs.push_back(requestFor(randomLayeredDfg(64, 8, 1), 256));
  inputs.back().shared = false;
  for (const ExploreRequest& req : inputs) {
    const auto [base, sat] = saturatedBase(req);
    ASSERT_GE(sat, 0) << req.graph.name();
    const Graph& g = base.design.graph;
    const int maxSteps = criticalPathLength(req.graph) + req.span;
    TimeFrames frames = base.design.frames;
    for (int s = sat; s <= maxSteps; ++s) {
      // The sweep minimizes every amortized point over the base's frames
      // moved to its budget; they must be the from-scratch frames.
      frames.rebudget(s);
      const TimeFrames fresh = computeTimeFrames(g, s);
      EXPECT_TRUE(frames.asap == fresh.asap && frames.alap == fresh.alap)
          << req.graph.name() << " frames at " << s;
      const ResourceVector units = minimizeSchedule(g, s).units;
      EXPECT_TRUE(unitLowerBound(g, s).fitsWithin(units))
          << req.graph.name() << " at " << s << ": " << units.toString();
    }
  }
}

TEST(Explore, MinimizedAreaRisesWithTheBudgetOnASaturatedBase) {
  // Minimized area is NOT non-increasing in the step budget: the
  // demand-driven search is a heuristic, and one more step can steer it to
  // a costlier vector. A pruning floor computed once at max_steps is
  // therefore unsound (it dropped the 556-area point of this very sweep);
  // only a true lower bound such as unitLowerBound() may prune.
  ExploreRequest req = requestFor(randomLayeredDfg(32, 5, 1), 8);
  req.shared = false;
  const auto [base, sat] = saturatedBase(req);
  ASSERT_GE(sat, 0);
  ASSERT_LE(sat, 60);
  const UnitCosts costs = UnitCosts::defaults();
  EXPECT_EQ(costs.costOf(minimizeSchedule(base.design.graph, 60).units), 556);
  EXPECT_EQ(costs.costOf(minimizeSchedule(base.design.graph, 61).units), 604);
}

TEST(Explore, AmortizationActuallyKicksIn) {
  // The 32-layer DFG saturates inside the sweep: past that point the driver
  // must stop paying for full pipeline runs.
  const ExploreResult res = exploreDesignSpace(requestFor(randomLayeredDfg(32, 6, 1), 16));
  EXPECT_GT(res.stats.saturationSteps, 0);
  EXPECT_GT(res.stats.amortizedRuns + res.stats.pruned, 0);
  EXPECT_LT(res.stats.fullRuns, res.stats.pointsSwept);
  // And the predictive relaxed bound never lies past the empirical one.
  if (res.stats.relaxedBoundSteps >= 0) {
    EXPECT_LE(res.stats.relaxedBoundSteps, res.stats.saturationSteps);
  }
}

TEST(Explore, BudgetExhaustionYieldsMonotoneCleanPrefix) {
  const ExploreRequest req = requestFor(randomLayeredDfg(32, 6, 1), 16);
  const ExploreResult full = exploreDesignSpace(req);
  ASSERT_FALSE(full.degraded);
  // Sweep the probe cap (deterministic, unlike a wall-clock deadline) from
  // starvation to plenty: at every cap the partial front must be a prefix
  // of the unbudgeted front, point for point.
  for (const std::uint64_t cap : {1ull, 50ull, 500ull, 5000ull, 50000ull}) {
    RunBudget budget;
    budget.setProbeCap(cap);
    const ExploreResult part = exploreDesignSpace(req, &budget);
    SCOPED_TRACE("probe cap " + std::to_string(cap));
    ASSERT_LE(part.front.size(), full.front.size());
    for (std::size_t i = 0; i < part.front.size(); ++i)
      EXPECT_EQ(pointKey(part.front[i]), pointKey(full.front[i]));
    if (part.front.size() < full.front.size()) {
      EXPECT_TRUE(part.degraded);
      EXPECT_EQ(part.degradeReason, "explore");
    }
  }
}

TEST(Explore, FaultSkipsPointKeepsFront) {
  const ExploreRequest req = requestFor(circuits::dealer(), 6);
  const ExploreResult clean = exploreDesignSpace(req);
  ASSERT_GE(clean.front.size(), 1u);

  fault::arm("explore-point:2");
  const ExploreResult faulted = exploreDesignSpace(req);
  fault::arm("");

  ASSERT_EQ(faulted.skipped.size(), 1u);
  EXPECT_EQ(faulted.skipped[0].kind, "fault");
  EXPECT_EQ(faulted.skipped[0].steps, faulted.minSteps + 1);
  EXPECT_FALSE(faulted.degraded);  // a skipped point is not degradation
  EXPECT_FALSE(faulted.front.empty());
  // Every surviving front point is still bit-identical to the clean sweep's
  // point at the same budget.
  for (const ExplorePoint& p : faulted.front) {
    bool matched = false;
    for (const ExplorePoint& q : clean.front)
      if (q.steps == p.steps) {
        EXPECT_EQ(pointKey(p), pointKey(q));
        matched = true;
      }
    // A point absent from the clean front could only appear because the
    // faulted sweep skipped one of its dominators; dominance still holds
    // within the faulted front (checked by construction in the driver).
    (void)matched;
  }
}

TEST(Explore, RenderedJsonParsesAndIsStable) {
  const ExploreResult res = exploreDesignSpace(requestFor(circuits::gcd()));
  const std::string json = renderExploreJson(res);
  const JsonValue doc = parseJson(json);
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("mode")->asString(), "amortized");
  EXPECT_NE(doc.find("front"), nullptr);
  EXPECT_NE(doc.find("stats"), nullptr);
  // Rendering is a pure function of the result.
  EXPECT_EQ(json, renderExploreJson(res));
}

// ---- server "explore" op ---------------------------------------------------

std::string exploreFrame(int id, const std::string& graphText,
                         const std::string& extra = {}) {
  JsonWriter g;
  g.value(graphText);
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"explore\",\"graph\":" + g.str() +
         extra + "}";
}

TEST(Explore, ServerExploreRoundTripBypassesCache) {
  ServerOptions opts;
  opts.workers = 0;  // deterministic: drainOne() runs jobs on this thread
  ServerCore core(opts);

  const std::string graphText = saveGraphText(circuits::dealer());
  std::vector<std::string> out;
  core.submitFrame(exploreFrame(1, graphText, ",\"span\":6"),
                   [&](const std::string& line) { out.push_back(line); });
  while (core.drainOne()) {
  }
  ASSERT_EQ(out.size(), 1u);
  const JsonValue response = parseJson(out[0]);
  ASSERT_TRUE(response.find("ok")->asBool()) << out[0];
  const JsonValue* result = response.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("mode")->asString(), "amortized");
  EXPECT_FALSE(result->find("front")->items().empty());

  // The response must equal the in-process sweep verbatim.
  ExploreRequest req = requestFor(circuits::dealer(), 6);
  std::string expected = makeResultResponse("1", renderExploreJson(exploreDesignSpace(req)));
  EXPECT_EQ(out[0], expected);

  // Explore results bypass BOTH cache levels: a byte-identical repeat is
  // recomputed, and the cache counters never move.
  out.clear();
  core.submitFrame(exploreFrame(2, graphText, ",\"span\":6"),
                   [&](const std::string& line) { out.push_back(line); });
  while (core.drainOne()) {
  }
  ASSERT_EQ(out.size(), 1u);
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.exactHits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.inserts, 0u);
}

TEST(Explore, ServerExploreRejectsDesignOnlyFields) {
  ServerOptions opts;
  opts.workers = 0;
  ServerCore core(opts);
  const std::string graphText = saveGraphText(circuits::absdiff());

  for (const std::string& extra :
       {std::string(",\"steps\":4"), std::string(",\"cache\":true"),
        std::string(",\"emit_design\":true"), std::string(",\"min_steps\":9,\"max_steps\":4")}) {
    std::vector<std::string> out;
    core.submitFrame(exploreFrame(7, graphText, extra),
                     [&](const std::string& line) { out.push_back(line); });
    ASSERT_EQ(out.size(), 1u) << extra;
    const JsonValue response = parseJson(out[0]);
    EXPECT_FALSE(response.find("ok")->asBool()) << extra;
    EXPECT_EQ(response.find("error")->find("category")->asString(), "usage") << extra;
  }
  // And the design op does not grow the explore-only fields.
  std::vector<std::string> out;
  JsonWriter g;
  g.value(graphText);
  core.submitFrame("{\"id\":8,\"op\":\"design\",\"graph\":" + g.str() +
                       ",\"steps\":4,\"span\":6}",
                   [&](const std::string& line) { out.push_back(line); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(parseJson(out[0]).find("error")->find("category")->asString(), "protocol");
}

}  // namespace
}  // namespace pmsched
