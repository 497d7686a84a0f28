// RunBudget semantics and per-stage graceful degradation: every optimizing
// stage accepts a budget, stops at a defined point when it runs out, and
// still returns a correct (validating, schedulable) result. The contract
// lives in docs/ROBUSTNESS.md; these tests pin it.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string_view>
#include <thread>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "circuits/circuits.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "support/fault_injector.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {
namespace {

/// Restore process-wide knobs so budget tests cannot leak configuration
/// into other tests in this binary.
struct KnobGuard {
  ~KnobGuard() {
    setThreadCount(0);
    fault::arm("");
  }
};

TEST(RunBudget, CancelTokenIsVisibleAcrossThreads) {
  KnobGuard guard;
  RunBudget budget;
  EXPECT_FALSE(budget.exhausted());
  std::thread other([&] { budget.cancel(); });
  other.join();
  EXPECT_TRUE(budget.exhausted());
  ASSERT_TRUE(budget.exhaustedWhy().has_value());
  EXPECT_EQ(*budget.exhaustedWhy(), BudgetKind::Cancelled);
}

TEST(RunBudget, DeadlineTripsOnceAndSticks) {
  KnobGuard guard;
  RunBudget budget;
  budget.setDeadline(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(budget.exhausted());
  ASSERT_TRUE(budget.exhaustedWhy().has_value());
  EXPECT_EQ(*budget.exhaustedWhy(), BudgetKind::Deadline);
  // First trip wins: a later cancel does not rewrite the recorded cause.
  budget.cancel();
  EXPECT_EQ(*budget.exhaustedWhy(), BudgetKind::Deadline);
}

TEST(RunBudget, ProbeCapTripsDeterministically) {
  KnobGuard guard;
  RunBudget budget;
  budget.setProbeCap(10);
  for (int i = 0; i < 10; ++i) budget.chargeProbes();
  EXPECT_FALSE(budget.exhausted()) << "cap itself is still within budget";
  budget.chargeProbes();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(*budget.exhaustedWhy(), BudgetKind::Probes);
  EXPECT_EQ(budget.probesCharged(), 11u);
}

TEST(RunBudget, NoteDegradedRecordsWithoutTrippingExhaustion) {
  KnobGuard guard;
  RunBudget budget;
  budget.noteDegraded("some-stage", BudgetKind::RationalWidth, "detail");
  EXPECT_TRUE(budget.degraded());
  ASSERT_EQ(budget.events().size(), 1u);
  EXPECT_EQ(budget.events()[0].stage, "some-stage");
  // A stage-local limit must not poison later stages' polls.
  EXPECT_FALSE(budget.exhausted());
}

TEST(RunBudget, GenerousBudgetIsBitIdenticalToNoBudget) {
  KnobGuard guard;
  const Graph g = circuits::dealer();
  const int steps = 6;

  RunBudget budget;
  budget.setDeadline(std::chrono::minutes(10));
  budget.setProbeCap(1u << 30);

  PowerManagedDesign plain = applyPowerManagement(g, steps);
  PowerManagedDesign budgeted =
      applyPowerManagement(g, steps, MuxOrdering::OutputFirst, LatencyModel::unit(), &budget);
  applySharedGating(plain);
  applySharedGating(budgeted, &budget);

  EXPECT_FALSE(budgeted.degraded);
  EXPECT_FALSE(budget.degraded());
  EXPECT_EQ(plain.managedCount(), budgeted.managedCount());
  EXPECT_EQ(saveGraphText(plain.graph), saveGraphText(budgeted.graph));
}

TEST(RunBudget, PreCancelledPipelineDegradesButStaysValid) {
  KnobGuard guard;
  const Graph g = circuits::dealer();
  const int steps = 6;

  RunBudget budget;
  budget.cancel();

  // Transform: nothing gets managed, every mux carries a reason.
  PowerManagedDesign design =
      applyPowerManagement(g, steps, MuxOrdering::OutputFirst, LatencyModel::unit(), &budget);
  EXPECT_TRUE(design.degraded);
  EXPECT_EQ(design.managedCount(), 0);
  for (const MuxPmInfo& mux : design.muxes) {
    EXPECT_FALSE(mux.managed);
    EXPECT_FALSE(mux.reason.empty());
  }
  EXPECT_NO_THROW(design.graph.validate());

  // Shared gating: stops before the first gate.
  EXPECT_EQ(applySharedGating(design, &budget), 0);

  // Scheduling still succeeds on the degraded design.
  const ResourceVector units = minimizeResources(design.graph, steps);
  const ListScheduleResult scheduled = listSchedule(design.graph, steps, units);
  ASSERT_TRUE(scheduled.schedule.has_value());
  EXPECT_NO_THROW(scheduled.schedule->validate(design.graph));
}

TEST(RunBudget, BddNodeCapDegradesActivationWithHonestErrorBars) {
  KnobGuard guard;
  const Graph g = circuits::dealer();
  PowerManagedDesign design = applyPowerManagement(g, 6);
  applySharedGating(design);

  const ActivationResult exact = analyzeActivation(design);
  ASSERT_FALSE(exact.degraded);

  RunBudget budget;
  budget.setBddNodeCap(2);  // absurdly small: forces the interval fallback
  const ActivationResult capped = analyzeActivation(design, &budget);
  EXPECT_TRUE(capped.degraded);
  EXPECT_TRUE(budget.degraded());

  ASSERT_EQ(capped.probability.size(), exact.probability.size());
  ASSERT_EQ(capped.errorBar.size(), capped.probability.size());
  for (std::size_t n = 0; n < capped.probability.size(); ++n) {
    const double p = capped.probability[n].toDouble();
    EXPECT_GE(p, 0.0) << n;
    EXPECT_LE(p, 1.0) << n;
    EXPECT_GE(capped.errorBar[n], 0.0) << n;
    // Honesty: the reported bar must cover the true (exact) probability.
    const double err = std::abs(p - exact.probability[n].toDouble());
    EXPECT_LE(err, capped.errorBar[n] + 1e-12) << "node " << n;
  }
}

TEST(RunBudget, ProbeCapGivesTheSameDesignAtEveryThreadCount) {
  // The probe cap counts one probe per candidate with control edges, in
  // candidate order, whatever the thread count: the capped design must be
  // identical at 1, 2 and 8 threads.
  KnobGuard guard;
  const Graph g = randomLayeredDfg(256, 16, 1);
  ASSERT_GE(g.size(), 4096u);
  const int steps = criticalPathLength(g) + 2;

  std::vector<PowerManagedDesign> designs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    setThreadCount(threads);
    RunBudget budget;
    budget.setProbeCap(100);
    designs.push_back(
        applyPowerManagement(g, steps, MuxOrdering::OutputFirst, LatencyModel::unit(), &budget));
    ASSERT_TRUE(designs.back().degraded) << threads << " threads: the cap must trip";
  }
  for (std::size_t i = 1; i < designs.size(); ++i) {
    EXPECT_EQ(designs[i].managedCount(), designs[0].managedCount()) << "variant " << i;
    EXPECT_TRUE(saveGraphText(designs[i].graph) == saveGraphText(designs[0].graph))
        << "variant " << i << ": control edges differ";
    ASSERT_EQ(designs[i].muxes.size(), designs[0].muxes.size());
    for (std::size_t m = 0; m < designs[0].muxes.size(); ++m)
      EXPECT_EQ(designs[i].muxes[m].reason, designs[0].muxes[m].reason)
          << "variant " << i << " mux " << designs[0].muxes[m].mux;
  }
}

TEST(RunBudget, DeadlineBoundsTheOptimalSearch) {
  KnobGuard guard;
  const Graph g = randomLayeredDfg(64, 6, 1);
  const int steps = criticalPathLength(g) + 2;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    setThreadCount(threads);
    for (const int ms : {1, 50}) {
      RunBudget budget;
      budget.setDeadline(std::chrono::milliseconds(ms));
      const auto t0 = std::chrono::steady_clock::now();
      const PowerManagedDesign design = applyPowerManagementOptimal(g, steps, 24, &budget);
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

      // Generous margin: the stages poll cooperatively, so one candidate
      // of overrun is expected; sanitizer/CI machines are
      // slow. The point is "milliseconds, not minutes".
      EXPECT_LT(elapsed, 5000) << threads << " threads, " << ms << " ms budget";

      // Degraded or not, the result must be a real design.
      EXPECT_NO_THROW(design.graph.validate());
      const ResourceVector units = minimizeResources(design.graph, steps);
      const ListScheduleResult scheduled = listSchedule(design.graph, steps, units);
      ASSERT_TRUE(scheduled.schedule.has_value()) << scheduled.message;
      EXPECT_NO_THROW(scheduled.schedule->validate(design.graph));
      if (design.degraded) {
        EXPECT_FALSE(design.degradeReason.empty());
      }
    }
  }
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, SiteListIsStable) {
  // The registry tools/fault_matrix.sh and docs/ROBUSTNESS.md walk, in
  // registry order.
  KnobGuard guard;
  const std::vector<std::string_view> expected = {
      "parse-stmt",   "bdd-node",     "dnf-intern",    "oracle-commit",
      "gating-commit", "serve-accept", "serve-frame",   "cache-insert",
      "worker-crash", "cache-journal-write", "cache-snapshot-load",
      "drain-deadline", "explore-point"};
  const auto sites = fault::sites();
  EXPECT_EQ(std::vector<std::string_view>(sites.begin(), sites.end()), expected);
}

TEST(FaultInjector, CommaSeparatedScheduleSharesPerSiteCounters) {
  KnobGuard guard;
  // Two entries on one site: the 1st AND 3rd hit fire, the 2nd passes.
  fault::arm("parse-stmt:1,parse-stmt:3");
  EXPECT_THROW(fault::point("parse-stmt"), FaultInjectedError);
  EXPECT_NO_THROW(fault::point("parse-stmt"));
  EXPECT_THROW(fault::point("parse-stmt"), FaultInjectedError);
  EXPECT_NO_THROW(fault::point("parse-stmt"));
  // Entries on different sites count independently.
  fault::arm("parse-stmt:2,cache-insert:1");
  EXPECT_THROW(fault::point("cache-insert"), FaultInjectedError);
  EXPECT_NO_THROW(fault::point("parse-stmt"));
  EXPECT_THROW(fault::point("parse-stmt"), FaultInjectedError);
  // Unknown sites in a schedule never fire and do not disturb known ones.
  fault::arm("no-such-site:1,parse-stmt:1");
  EXPECT_THROW(fault::point("parse-stmt"), FaultInjectedError);
  fault::arm("");
}

TEST(FaultInjector, ArmedSiteFiresOnNthHitWithTypedError) {
  KnobGuard guard;
  fault::arm("parse-stmt:2");
  // First statement passes, second throws.
  try {
    (void)loadGraphText("graph g\ninput a 8\noutput out a\n");
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "parse-stmt");
  }
  fault::arm("");
  EXPECT_NO_THROW((void)loadGraphText("graph g\ninput a 8\noutput out a\n"));
}

}  // namespace
}  // namespace pmsched
