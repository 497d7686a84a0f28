#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "cdfg/analysis.hpp"

namespace pmsched {

namespace {

/// "no schedule" message when some frame is empty, else nothing.
std::optional<std::string> emptyFrameMessage(const Graph& g, int steps, const TimeFrames& tf) {
  const auto bad = tf.firstInfeasible(g);
  if (!bad) return std::nullopt;
  return "no schedule in " + std::to_string(steps) + " steps: node '" + g.node(*bad).name +
         "' has empty time frame";
}

/// List scheduling at fixed frames, run once per limits vector of a
/// minimum-resource search. The seeded state — pending counts, the times
/// the sources relay, and the arrivals that need no placement — does not
/// depend on the limits, so it is built once and copied into every run;
/// the other buffers keep their capacity across runs.
class FrameListScheduler {
 public:
  FrameListScheduler(const Graph& g, int steps, int ii, const LatencyModel& model,
                     const TimeFrames& tf)
      : g_(g), steps_(steps), ii_(ii), model_(model), tf_(tf) {
    const std::size_t size = g.size();
    // time[n]: for a resolved node, the step after which its value exists
    // (transparent nodes relay the latest data fanin); for a scheduled node
    // not yet placed, the latest such step over its resolved predecessors.
    // pending[n] counts the predecessors not yet resolved — data fanins
    // plus, for scheduled nodes only, control predecessors (each edge
    // counted once per use, like fanouts() lists them).
    time_.assign(size, 0);
    pending_.resize(size);
    next_.assign(size, kInvalidNode);
    head_.assign(static_cast<std::size_t>(std::max(steps, 0)) + 1, kInvalidNode);
    for (NodeId n = 0; n < size; ++n) {
      pending_[n] = static_cast<int>(g.fanins(n).size());
      if (isScheduled(g.kind(n)))
        pending_[n] += static_cast<int>(g.controlPredecessors(n).size());
    }
    for (NodeId n = 0; n < size; ++n) {
      if (isScheduled(g.kind(n))) {
        ++ops_;
        if (pending_[n] == 0) arrive(n);
      } else if (pending_[n] == 0) {
        resolved_.push_back(n);
      }
    }
    propagate();
    seedTime_ = time_;
    seedPending_ = pending_;
    seedHead_ = head_;
  }

  ListScheduleResult run(const ResourceVector& limits) {
    ListScheduleResult result;
    time_ = seedTime_;
    pending_ = seedPending_;
    // A node arrives once per run, so the links of the seeded arrivals are
    // never overwritten and next_ needs no reset.
    head_ = seedHead_;
    start_.assign(g_.size(), 0);
    ready_.clear();
    std::size_t unplaced = ops_;

    // usage per step slot and class; folded modulo ii when pipelining.
    const int slots = ii_ > 0 ? ii_ : steps_;
    usage_.assign(static_cast<std::size_t>(slots) + 1, ResourceVector{});
    auto slotOf = [&](int t) { return ii_ > 0 ? (t - 1) % ii_ + 1 : t; };

    // Deferral bookkeeping: when the budget runs out, the class that was
    // actually starved (not the class of whichever op happened to remain)
    // is what the minimum-resource search must grow.
    std::array<int, kNumUnitClasses> deferrals{};

    auto before = [&](NodeId a, NodeId b) {
      if (tf_.alap[a] != tf_.alap[b]) return tf_.alap[a] < tf_.alap[b];
      if (tf_.asap[a] != tf_.asap[b]) return tf_.asap[a] < tf_.asap[b];
      return a < b;
    };

    // The ready list: every unplaced node whose inputs are available, kept
    // sorted by priority. Each step merges in its (sorted) arrivals; nodes a
    // step defers stay in place for the next one.
    for (step_ = 1; step_ <= steps_ && unplaced != 0; ++step_) {
      arrived_.clear();
      for (NodeId n = head_[static_cast<std::size_t>(step_)]; n != kInvalidNode; n = next_[n])
        arrived_.push_back(n);
      if (!arrived_.empty()) {
        std::sort(arrived_.begin(), arrived_.end(), before);
        merged_.resize(ready_.size() + arrived_.size());
        std::merge(ready_.begin(), ready_.end(), arrived_.begin(), arrived_.end(),
                   merged_.begin(), before);
        ready_.swap(merged_);
      }

      std::size_t kept = 0;
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const NodeId n = ready_[i];
        const ResourceClass rc = resourceClassOf(g_.kind(n));
        const int latency = model_.latencyOf(g_.kind(n));
        // The unit is busy for `latency` consecutive steps (folded when
        // pipelining); all of them must have a free instance.
        bool fits = step_ + latency - 1 <= steps_;
        for (int t = step_; fits && t < step_ + latency; ++t)
          fits = usage_[static_cast<std::size_t>(slotOf(t))].of(rc) < limits.of(rc);
        if (fits) {
          for (int t = step_; t < step_ + latency; ++t)
            ++usage_[static_cast<std::size_t>(slotOf(t))].of(rc);
          start_[n] = step_;
          time_[n] = step_ + latency - 1;
          --unplaced;
          resolved_.push_back(n);
          propagate();
        } else {
          ++deferrals[unitIndex(rc)];
          if (tf_.alap[n] <= step_) {
            // A zero-slack operation could not be placed: this resource
            // class is the bottleneck at the current limits.
            result.blockedOn = rc;
            result.message = "resource-blocked at step " + std::to_string(step_) + ": node '" +
                             g_.node(n).name + "' needs a free " + std::string(resourceName(rc));
            return result;
          }
          ready_[kept++] = n;
        }
      }
      ready_.resize(kept);
    }

    if (unplaced != 0) {
      // Ran out of steps. Blame the class with the most resource deferrals
      // — the unplaced node itself may belong to a class that was never
      // short (it just waited on starved producers).
      NodeId worst = kInvalidNode;
      for (NodeId n = 0; n < g_.size(); ++n)
        if (isScheduled(g_.kind(n)) && start_[n] == 0 &&
            (worst == kInvalidNode || tf_.alap[n] < tf_.alap[worst]))
          worst = n;
      result.blockedOn = resourceClassOf(g_.kind(worst));
      int most = 0;
      for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
        if (deferrals[i] > most) {
          most = deferrals[i];
          result.blockedOn = kUnitClasses[i];
        }
      }
      result.message = "ran out of steps with " + std::to_string(unplaced) +
                       " operations unplaced (first: '" + g_.node(worst).name + "')";
      return result;
    }

    Schedule sched(g_, steps_);
    for (NodeId n = 0; n < g_.size(); ++n)
      if (start_[n] != 0) sched.place(n, start_[n]);
    sched.validate(g_, model_);
    result.schedule = std::move(sched);
    return result;
  }

 private:
  /// A scheduled node is ready from the step after its last input, and
  /// never within the step that completed it (each step's ready list is
  /// fixed before anything is placed in it).
  void arrive(NodeId c) {
    const int at = std::max(time_[c] + 1, step_ + 1);
    if (at > steps_) return;
    next_[c] = head_[static_cast<std::size_t>(at)];
    head_[static_cast<std::size_t>(at)] = c;
  }
  void noteInput(NodeId c, int t) {
    time_[c] = std::max(time_[c], t);
    if (--pending_[c] != 0) return;
    if (isScheduled(g_.kind(c)))
      arrive(c);
    else
      resolved_.push_back(c);
  }
  /// Availability of every node in `resolved_` is final: tell its
  /// consumers, relaying through transparent nodes as they complete.
  void propagate() {
    while (!resolved_.empty()) {
      const NodeId p = resolved_.back();
      resolved_.pop_back();
      for (const NodeId c : g_.fanouts(p)) noteInput(c, time_[p]);
      for (const NodeId c : g_.controlSuccessors(p))
        if (isScheduled(g_.kind(c))) noteInput(c, time_[p]);
    }
  }

  const Graph& g_;
  const int steps_;
  const int ii_;
  const LatencyModel& model_;
  const TimeFrames& tf_;
  std::size_t ops_ = 0;  ///< scheduled nodes
  int step_ = 0;         ///< the step being filled; 0 while seeding

  std::vector<int> seedTime_, seedPending_;
  std::vector<NodeId> seedHead_;

  std::vector<int> time_, pending_;
  /// Arrivals: head_[s] starts the list of scheduled nodes whose inputs
  /// are all available before step s, linked through next_.
  std::vector<NodeId> head_, next_;
  std::vector<int> start_;  ///< placed step, 0 = unplaced
  std::vector<NodeId> resolved_, arrived_, ready_, merged_;
  std::vector<ResourceVector> usage_;
};

}  // namespace

ListScheduleResult listSchedule(const Graph& g, int steps, const ResourceVector& limits,
                                int ii, const LatencyModel& model) {
  const TimeFrames tf = computeTimeFrames(g, steps, {}, model);
  if (auto message = emptyFrameMessage(g, steps, tf)) {
    ListScheduleResult result;
    result.message = std::move(*message);
    return result;
  }
  return FrameListScheduler(g, steps, ii, model, tf).run(limits);
}

ResourceVector unitLowerBound(const Graph& g, int steps, int ii) {
  return unitLowerBound(ResourceVector{countByClass(g)}, steps, ii);
}

ResourceVector unitLowerBound(const ResourceVector& opsPerClass, int steps, int ii) {
  const int window = ii > 0 ? std::min(ii, steps) : steps;
  ResourceVector bound = opsPerClass;
  for (int& c : bound.count) c = (c + window - 1) / window;
  return bound;
}

MinimizedSchedule minimizeSchedule(const Graph& g, int steps, const UnitCosts& costs, int ii,
                                   const LatencyModel& model) {
  (void)costs;  // growth is demand-driven; costs kept in the API for callers
                // that want to compare vectors (see analysis::areaIncrease).
  // The frames depend only on the graph and the budget, not on the limits.
  return minimizeSchedule(g, steps, computeTimeFrames(g, steps, {}, model), ii, model);
}

MinimizedSchedule minimizeSchedule(const Graph& g, int steps, const TimeFrames& tf, int ii,
                                   const LatencyModel& model) {
  if (tf.steps != steps)
    throw std::invalid_argument("minimizeSchedule: frames computed for " +
                                std::to_string(tf.steps) + " steps, not " +
                                std::to_string(steps));
  const ResourceVector opCount{countByClass(g)};
  ResourceVector limits = unitLowerBound(opCount, steps, ii);

  // The frames and the scheduler's seeded state do not depend on the
  // limits, so the whole search shares them.
  if (auto message = emptyFrameMessage(g, steps, tf))
    throw InfeasibleError("minimizeResources: " + *message);
  FrameListScheduler scheduler(g, steps, ii, model, tf);

  // Demand-driven growth: whichever class blocks the schedule grows by one.
  // A class never needs more units than it has operations; when the blamed
  // class is already saturated the demand signal was indirect (a starved
  // producer chain), so every unsaturated class grows instead. Once every
  // class is saturated the scheduler degenerates to ASAP and must succeed
  // whenever the frames are feasible.
  for (int runs = 1;; ++runs) {
    ListScheduleResult r = scheduler.run(limits);
    if (r.schedule) {
      // The scheduler may have used fewer units than the limits allow;
      // report what the schedule actually needs. Usage only grows during a
      // run, so rerunning at these units would make every decision the same
      // way and return this very schedule.
      ResourceVector units = ii > 0 ? r.schedule->unitsRequiredModulo(g, ii, model)
                                    : r.schedule->unitsRequired(g, model);
      return MinimizedSchedule{units, std::move(*r.schedule), runs};
    }
    if (r.blockedOn == ResourceClass::None)
      throw InfeasibleError("minimizeResources: " + r.message);

    const std::size_t blocked = unitIndex(r.blockedOn);
    if (limits.count[blocked] < opCount.count[blocked]) {
      ++limits.count[blocked];
      continue;
    }
    bool grew = false;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (limits.count[i] < opCount.count[i]) {
        ++limits.count[i];
        grew = true;
      }
    }
    if (!grew) throw InfeasibleError("minimizeResources (all classes saturated): " + r.message);
  }
}

ResourceVector minimizeResources(const Graph& g, int steps, const UnitCosts& costs, int ii,
                                 const LatencyModel& model) {
  return minimizeSchedule(g, steps, costs, ii, model).units;
}

}  // namespace pmsched
