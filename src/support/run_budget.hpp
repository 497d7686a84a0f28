#pragma once
// RunBudget — cooperative bounds for one pipeline run.
//
// Every long-running stage (the power-management transform, the exact DFS,
// shared gating, activation analysis) accepts an optional
// `const RunBudget*` and polls it at its natural decision points: once per
// candidate, per DFS node. The budget never interrupts anything — when it
// reports exhaustion the stage finishes its current unit of work and
// degrades to a defined, still-correct result (see docs/ROBUSTNESS.md for
// the per-stage contract).
//
// Thread-safety: exhaustion queries and probe charging are lock-free and may
// run on any lane; the degradation log takes a mutex (cold path — it is
// written at most once per stage). Configuration (deadline, caps) must
// happen before the run starts. Polling is read-only with respect to the
// algorithms themselves, so a run that never exhausts its budget is
// bit-identical to a run with no budget at all — the differential suites
// rely on that.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace pmsched {

/// Cooperative cancellation flag. cancel() may be called from any thread
/// (the whole point); polling is one acquire load.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// One "stage stopped early" record: which stage, which budget ran out, and
/// a human-readable note about what the degraded result still guarantees.
struct DegradeEvent {
  std::string stage;
  BudgetKind kind = BudgetKind::Deadline;
  std::string detail;
};

class RunBudget {
 public:
  RunBudget() = default;  // unlimited: exhausted() is always false
  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  // ---- configuration (before the run) ------------------------------------

  /// Wall-clock deadline `fromNow` into the future (steady clock).
  void setDeadline(std::chrono::milliseconds fromNow) {
    deadline_ = Clock::now() + fromNow;
    hasDeadline_ = true;
  }
  /// Total oracle probes across all consumer-side loops (0 = unlimited).
  void setProbeCap(std::uint64_t cap) { probeCap_ = cap; }
  /// BddManager node-arena cap per manager (0 = unlimited).
  void setBddNodeCap(std::size_t cap) { bddNodeCap_ = cap; }
  /// DnfEngine literal-arena cap (0 = unlimited).
  void setDnfTermCap(std::size_t cap) { dnfTermCap_ = cap; }

  [[nodiscard]] std::size_t bddNodeCap() const noexcept { return bddNodeCap_; }
  [[nodiscard]] std::size_t dnfTermCap() const noexcept { return dnfTermCap_; }

  // ---- cancellation -------------------------------------------------------

  [[nodiscard]] CancelToken& token() noexcept { return token_; }
  void cancel() noexcept { token_.cancel(); }
  [[nodiscard]] bool cancelled() const noexcept { return token_.cancelled(); }

  // ---- polling (any thread) -----------------------------------------------

  /// True once any bound is hit; sticky (later polls are one relaxed load).
  [[nodiscard]] bool exhausted() const noexcept {
    if (state_.load(std::memory_order_relaxed) >= 0) return true;
    if (token_.cancelled()) {
      trip(BudgetKind::Cancelled);
      return true;
    }
    if (hasDeadline_ && Clock::now() >= deadline_) {
      trip(BudgetKind::Deadline);
      return true;
    }
    return false;
  }

  /// The bound that tripped first, if any.
  [[nodiscard]] std::optional<BudgetKind> exhaustedWhy() const noexcept {
    const int s = state_.load(std::memory_order_relaxed);
    if (s < 0) return std::nullopt;
    return static_cast<BudgetKind>(s);
  }

  /// Count consumer-side oracle probes against the probe cap. Charged only
  /// on the consumer thread, so WHEN the cap trips is deterministic. Const
  /// for the same reason as noteDegraded.
  void chargeProbes(std::uint64_t n = 1) const noexcept {
    if (probeCap_ == 0) return;
    if (probes_.fetch_add(n, std::memory_order_relaxed) + n > probeCap_)
      trip(BudgetKind::Probes);
  }
  [[nodiscard]] std::uint64_t probesCharged() const noexcept {
    return probes_.load(std::memory_order_relaxed);
  }

  // ---- degradation log ----------------------------------------------------

  /// Record that `stage` returned a degraded (but still correct) result.
  /// Deliberately does NOT trip the exhaustion flag: a stage-local cap (a
  /// full BDD arena, a too-wide probability) says nothing about the global
  /// bounds, and later stages should still run at full quality. Global
  /// bounds trip themselves via exhausted()/chargeProbes.
  /// Const because stages receive `const RunBudget*`: the log is
  /// observational metadata, like the sticky trip state.
  void noteDegraded(std::string stage, BudgetKind kind, std::string detail) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(DegradeEvent{std::move(stage), kind, std::move(detail)});
  }
  [[nodiscard]] bool degraded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return !events_.empty();
  }
  [[nodiscard]] std::vector<DegradeEvent> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// First-trip wins: the recorded kind is the bound that fired first.
  void trip(BudgetKind kind) const noexcept {
    int expected = -1;
    state_.compare_exchange_strong(expected, static_cast<int>(kind),
                                   std::memory_order_relaxed);
  }

  CancelToken token_;
  Clock::time_point deadline_{};
  bool hasDeadline_ = false;
  std::uint64_t probeCap_ = 0;
  std::size_t bddNodeCap_ = 0;
  std::size_t dnfTermCap_ = 0;

  mutable std::atomic<int> state_{-1};  ///< -1 = fine, else BudgetKind
  mutable std::atomic<std::uint64_t> probes_{0};

  mutable std::mutex mutex_;
  mutable std::vector<DegradeEvent> events_;
};

}  // namespace pmsched
