// Cooperative cancellation teardown: a cancel() from another thread must
// stop a run at its next budget poll, never deadlock, and leave both the
// degraded result and the process in a state where the next run is
// bit-identical to one that was never cancelled. The TSan CI job runs this
// binary; the configured thread count must make no difference.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {
namespace {

struct KnobGuard {
  ~KnobGuard() { setThreadCount(0); }
};

/// A full budgeted pipeline pass; returns the serialized result graph so
/// callers can compare runs for bit-identity.
std::string runPipeline(const Graph& g, int steps, const RunBudget* budget,
                        bool* degraded = nullptr) {
  PowerManagedDesign design =
      applyPowerManagement(g, steps, MuxOrdering::OutputFirst, LatencyModel::unit(), budget);
  applySharedGating(design, budget);
  if (degraded != nullptr) *degraded = design.degraded;
  // Whatever was cut short, the design must still schedule and validate.
  const ResourceVector units = minimizeResources(design.graph, steps);
  const ListScheduleResult scheduled = listSchedule(design.graph, steps, units);
  EXPECT_TRUE(scheduled.schedule.has_value()) << scheduled.message;
  if (scheduled.schedule) scheduled.schedule->validate(design.graph);
  design.graph.validate();
  return saveGraphText(design.graph);
}

TEST(Cancellation, MidRunCancelDrainsAtEveryThreadCount) {
  KnobGuard guard;
  const Graph g = randomLayeredDfg(24, 6, 3);
  const int steps = criticalPathLength(g) + 2;

  const std::string reference = runPipeline(g, steps, nullptr);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    setThreadCount(threads);
    // Several delays so the cancel lands in different stages (transform,
    // gating, after completion).
    for (const int delayUs : {0, 50, 200, 1000, 5000}) {
      RunBudget budget;
      std::thread canceller([&budget, delayUs] {
        if (delayUs > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(delayUs));
        budget.cancel();
      });
      (void)runPipeline(g, steps, &budget, nullptr);
      canceller.join();

      // An uncancelled re-run must be bit-identical to the never-cancelled
      // reference (cancellation leaves no residue).
      const std::string rerun = runPipeline(g, steps, nullptr);
      EXPECT_EQ(rerun, reference) << threads << " threads, delay " << delayUs << "us";
    }
  }
}

TEST(Cancellation, PreCancelledOptimalSearchReturnsImmediately) {
  KnobGuard guard;
  setThreadCount(4);
  const Graph g = randomLayeredDfg(32, 6, 5);
  const int steps = criticalPathLength(g) + 2;

  RunBudget budget;
  budget.cancel();
  const auto t0 = std::chrono::steady_clock::now();
  const PowerManagedDesign design = applyPowerManagementOptimal(g, steps, 24, &budget);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 5000);
  EXPECT_TRUE(design.degraded);
  EXPECT_NO_THROW(design.graph.validate());
  EXPECT_EQ(*budget.exhaustedWhy(), BudgetKind::Cancelled);
}

TEST(Cancellation, RepeatedCancelStressLeavesPoolHealthy) {
  KnobGuard guard;
  setThreadCount(8);
  const Graph g = randomLayeredDfg(16, 4, 9);
  const int steps = criticalPathLength(g) + 2;

  for (int round = 0; round < 12; ++round) {
    RunBudget budget;
    std::thread canceller([&budget, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(37 * round));
      budget.cancel();
    });
    (void)runPipeline(g, steps, &budget);
    canceller.join();
  }
  // One clean pass at the end proves nothing leaked across 12 teardowns.
  bool degraded = true;
  (void)runPipeline(g, steps, nullptr, &degraded);
  EXPECT_FALSE(degraded);
}

}  // namespace
}  // namespace pmsched
