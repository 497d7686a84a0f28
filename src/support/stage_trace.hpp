#pragma once
// What one design job cost, stage by stage: wall time plus two work
// counters per pipeline stage. runDesignJob()/finishDesignJob() fill it and
// `pmsched --profile` prints it. Fixed size, no allocation, and one clock
// read per stage boundary: closing a stage starts the next one.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pmsched {

enum class Stage : std::uint8_t {
  Transform,     ///< the paper's transform (greedy or exact)
  SharedGating,  ///< the OR-composed gating extension (shared mode only)
  Minimize,      ///< minimum-resource search and its list schedule
  Bind,          ///< unit binding and register allocation
  Activation,    ///< activation-condition analysis
  Controller,    ///< controller synthesis
};

inline constexpr std::size_t kNumStages = 6;

[[nodiscard]] constexpr std::string_view stageName(Stage stage) {
  constexpr std::string_view names[kNumStages] = {"transform",  "shared_gating", "minimize",
                                                  "bind",       "activation",    "controller"};
  return names[static_cast<std::size_t>(stage)];
}

/// One stage's cost. A counter that does not apply to the stage stays 0.
struct StageCost {
  std::int64_t ns = 0;            ///< wall time
  std::uint64_t frameWrites = 0;  ///< time-frame oracle values changed
  std::uint64_t listRuns = 0;     ///< list-scheduling runs of the resource search
};

class StageTrace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Start timing the first stage.
  void start() { mark_ = Clock::now(); }
  /// Timing since start() and not yet stopped.
  [[nodiscard]] bool running() const { return mark_ != Clock::time_point{}; }
  /// End `stage` now: it took the time since the previous boundary, and the
  /// next stage starts here.
  StageCost& close(Stage stage) {
    const Clock::time_point now = Clock::now();
    StageCost& cost = costs_[static_cast<std::size_t>(stage)];
    cost.ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_).count();
    mark_ = now;
    return cost;
  }
  /// Stop timing (no clock read); a later start() begins afresh.
  void stop() { mark_ = Clock::time_point{}; }

  [[nodiscard]] const StageCost& operator[](Stage stage) const {
    return costs_[static_cast<std::size_t>(stage)];
  }

 private:
  std::array<StageCost, kNumStages> costs_{};
  Clock::time_point mark_{};
};

}  // namespace pmsched
