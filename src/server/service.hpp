#pragma once
// The design service: one synthesis request -> one finished design.
//
// This is the compute core both front ends share. The CLI (tools/pmsched.cpp)
// resolves its arguments into a DesignJob and prints the outcome; the server
// (src/server/server.hpp) decodes a JSONL frame into the same DesignJob and
// serializes the outcome back. Because both run EXACTLY this function, a
// server response is bit-identical to the equivalent one-shot CLI run — the
// differential suite (tests/test_server.cpp, the CI serve-smoke job) pins
// that equivalence at 1/2/8 threads.

#include <string>

#include "alloc/binding.hpp"
#include "ctrl/controller.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/resources.hpp"
#include "sched/schedule.hpp"
#include "support/stage_trace.hpp"

namespace pmsched {

class RunBudget;

/// One fully-resolved synthesis request.
struct DesignJob {
  Graph graph;
  int steps = 0;
  MuxOrdering ordering = MuxOrdering::OutputFirst;
  bool optimal = false;  ///< exact DFS instead of the paper's greedy order
  bool shared = true;    ///< run the shared (OR-composed) gating extension
};

/// Name-free result numbers — what the CLI summary prints and the design
/// cache may replay for an isomorphic request (no node names inside, so the
/// values transfer across renamings unchanged).
struct DesignSummary {
  int ops = 0;
  int criticalPath = 0;
  int steps = 0;
  int managed = 0;
  int sharedGated = 0;
  std::string units;              ///< ResourceVector::toString()
  std::string reductionPercent;   ///< fixed(x, 2) — exactly the CLI's digits
  bool degraded = false;
  std::string degradeReason;      ///< the CLI's "degraded: yes (<kind>)" kind
};

/// Everything the pipeline produced. The heavyweight members feed the CLI's
/// artifact emitters (report, VHDL, power sim); the server serializes only
/// the summary plus the design graph.
struct DesignOutcome {
  PowerManagedDesign design;
  int sharedGated = 0;
  ResourceVector units;
  Schedule schedule;
  Binding binding;
  ActivationResult activation;
  ControllerSpec controller;
  DesignSummary summary;
  /// Probeworthy shared-gating candidates the oracle rejected for slack.
  /// Zero is half of the explore driver's saturation certificate (the
  /// transform half is managedCount == the graph's full candidate count).
  int sharedGatingSlackRejects = 0;
  /// Per-stage wall time and work counters of the run that produced this
  /// outcome. Not part of the result: no response, cache key or explore
  /// document reads it.
  StageTrace trace;
};

/// Run the full pipeline: power-management transform (greedy or optimal),
/// shared gating, resource minimization, list scheduling, binding,
/// activation analysis, controller synthesis. Throws InfeasibleError when
/// the step budget admits no schedule; budget exhaustion degrades per the
/// docs/ROBUSTNESS.md contracts instead of throwing.
[[nodiscard]] DesignOutcome runDesignJob(const DesignJob& job,
                                         const RunBudget* budget = nullptr);

/// The summary numbers that depend only on a job's input graph.
struct GraphConstants {
  int ops = 0;           ///< countOps(graph).totalUnits()
  int criticalPath = 0;  ///< criticalPathLength(graph)

  [[nodiscard]] static GraphConstants of(const Graph& g);
};

/// Steering for finishDesignJob() when a caller already holds part of the
/// tail's result (the explore driver's amortized point path).
struct FinishOptions {
  /// Already-minimized resources and their schedule for the design graph
  /// at job.steps; the tail moves from it and skips the minimizeSchedule
  /// search when non-null.
  MinimizedSchedule* minimized = nullptr;
  /// GraphConstants::of(job.graph), when the caller already has them.
  const GraphConstants* constants = nullptr;
};

/// The steps-dependent tail of runDesignJob(): resource minimization, list
/// scheduling, binding, activation analysis, controller synthesis and the
/// summary verdict, over an out.design/out.sharedGated the caller already
/// produced. runDesignJob() is exactly transform + shared gating + this.
/// Without fin.minimized the search reuses out.design.frames, which must be
/// the committed frames at job.steps. Fills the minimize..controller
/// entries of out.trace, timing from the caller's last stage boundary when
/// out.trace is running.
void finishDesignJob(DesignOutcome& out, const DesignJob& job,
                     const RunBudget* budget = nullptr, const FinishOptions& fin = {});

/// The same tail against a finished design and its activation analysis
/// that the caller keeps: `design` and `activation` are read in place,
/// never copied, and out.design/out.activation stay as they are. The
/// analysis does not depend on the step budget or the schedule, so one
/// design serves every budget its gating stays valid at (the explore
/// driver's amortized points). Without fin.minimized, design.frames must
/// be the committed frames at job.steps.
void finishDesignJob(DesignOutcome& out, const PowerManagedDesign& design,
                     const ActivationResult& activation, const DesignJob& job,
                     const RunBudget* budget = nullptr, const FinishOptions& fin = {});

}  // namespace pmsched
