#include "sched/list_scheduler.hpp"

#include <algorithm>

namespace pmsched {

namespace {

/// Operations per unit class: the most units a class can ever use.
ResourceVector opsPerClass(const Graph& g) {
  ResourceVector ops;
  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc != ResourceClass::None) ++ops.of(rc);
  }
  return ops;
}

ListScheduleResult scheduleWithFrames(const Graph& g, int steps, const ResourceVector& limits,
                                      int ii, const LatencyModel& model, const TimeFrames& tf) {
  ListScheduleResult result;

  if (const auto bad = tf.firstInfeasible(g)) {
    result.message = "no schedule in " + std::to_string(steps) + " steps: node '" +
                     g.node(*bad).name + "' has empty time frame";
    return result;
  }

  Schedule sched(g, steps);
  const std::size_t size = g.size();

  // time[n]: for a resolved node, the step after which its value exists
  // (transparent nodes relay the latest data fanin); for a scheduled node
  // not yet placed, the latest such step over its resolved predecessors.
  // pending[n] counts the predecessors not yet resolved — data fanins plus,
  // for scheduled nodes only, control predecessors (each edge counted once
  // per use, like fanouts() lists them).
  std::vector<int> time(size, 0);
  std::vector<int> pending(size, 0);
  for (NodeId n = 0; n < size; ++n) {
    pending[n] = static_cast<int>(g.fanins(n).size());
    if (isScheduled(g.kind(n)))
      pending[n] += static_cast<int>(g.controlPredecessors(n).size());
  }

  // arrivals[s]: scheduled nodes whose inputs are all available before s.
  std::vector<std::vector<NodeId>> arrivals(static_cast<std::size_t>(std::max(steps, 0)) + 1);
  int step = 0;  // the step being filled; 0 while seeding
  std::vector<NodeId> resolved;

  // A scheduled node is ready from the step after its last input, and never
  // within the step that completed it (each step's ready list is fixed
  // before anything is placed in it).
  auto arrive = [&](NodeId c) {
    const int at = std::max(time[c] + 1, step + 1);
    if (at <= steps) arrivals[static_cast<std::size_t>(at)].push_back(c);
  };
  auto noteInput = [&](NodeId c, int t) {
    time[c] = std::max(time[c], t);
    if (--pending[c] != 0) return;
    if (isScheduled(g.kind(c)))
      arrive(c);
    else
      resolved.push_back(c);
  };
  // Availability of every node in `resolved` is final: tell its consumers,
  // relaying through transparent nodes as they complete.
  auto propagate = [&] {
    while (!resolved.empty()) {
      const NodeId p = resolved.back();
      resolved.pop_back();
      for (const NodeId c : g.fanouts(p)) noteInput(c, time[p]);
      for (const NodeId c : g.controlSuccessors(p))
        if (isScheduled(g.kind(c))) noteInput(c, time[p]);
    }
  };

  std::size_t unplaced = 0;
  for (NodeId n = 0; n < size; ++n) {
    if (isScheduled(g.kind(n))) {
      ++unplaced;
      if (pending[n] == 0) arrive(n);
    } else if (pending[n] == 0) {
      resolved.push_back(n);
    }
  }
  propagate();

  // usage per step slot and class; folded modulo ii when pipelining.
  const int slots = ii > 0 ? ii : steps;
  std::vector<ResourceVector> usage(static_cast<std::size_t>(slots) + 1);
  auto slotOf = [&](int t) { return ii > 0 ? (t - 1) % ii + 1 : t; };

  // Deferral bookkeeping: when the budget runs out, the class that was
  // actually starved (not the class of whichever op happened to remain)
  // is what the minimum-resource search must grow.
  std::array<int, kNumUnitClasses> deferrals{};

  auto before = [&](NodeId a, NodeId b) {
    if (tf.alap[a] != tf.alap[b]) return tf.alap[a] < tf.alap[b];
    if (tf.asap[a] != tf.asap[b]) return tf.asap[a] < tf.asap[b];
    return a < b;
  };

  // The ready list: every unplaced node whose inputs are available, kept
  // sorted by priority. Each step merges in its (sorted) arrivals; nodes a
  // step defers stay in place for the next one.
  std::vector<NodeId> ready;
  std::vector<NodeId> merged;
  for (step = 1; step <= steps && unplaced != 0; ++step) {
    std::vector<NodeId>& arrived = arrivals[static_cast<std::size_t>(step)];
    if (!arrived.empty()) {
      std::sort(arrived.begin(), arrived.end(), before);
      merged.resize(ready.size() + arrived.size());
      std::merge(ready.begin(), ready.end(), arrived.begin(), arrived.end(), merged.begin(),
                 before);
      ready.swap(merged);
      arrived.clear();
    }

    std::size_t kept = 0;
    for (const NodeId n : ready) {
      const ResourceClass rc = resourceClassOf(g.kind(n));
      const int latency = model.latencyOf(g.kind(n));
      // The unit is busy for `latency` consecutive steps (folded when
      // pipelining); all of them must have a free instance.
      bool fits = step + latency - 1 <= steps;
      for (int t = step; fits && t < step + latency; ++t)
        fits = usage[static_cast<std::size_t>(slotOf(t))].of(rc) < limits.of(rc);
      if (fits) {
        for (int t = step; t < step + latency; ++t)
          ++usage[static_cast<std::size_t>(slotOf(t))].of(rc);
        sched.place(n, step);
        time[n] = step + latency - 1;
        --unplaced;
        resolved.push_back(n);
        propagate();
      } else {
        ++deferrals[unitIndex(rc)];
        if (tf.alap[n] <= step) {
          // A zero-slack operation could not be placed: this resource class
          // is the bottleneck at the current limits.
          result.blockedOn = rc;
          result.message = "resource-blocked at step " + std::to_string(step) + ": node '" +
                           g.node(n).name + "' needs a free " + std::string(resourceName(rc));
          return result;
        }
        ready[kept++] = n;
      }
    }
    ready.resize(kept);
  }

  if (unplaced != 0) {
    // Ran out of steps. Blame the class with the most resource deferrals —
    // the unplaced node itself may belong to a class that was never short
    // (it just waited on starved producers).
    NodeId worst = kInvalidNode;
    for (NodeId n = 0; n < size; ++n)
      if (isScheduled(g.kind(n)) && !sched.isPlaced(n) &&
          (worst == kInvalidNode || tf.alap[n] < tf.alap[worst]))
        worst = n;
    result.blockedOn = resourceClassOf(g.kind(worst));
    int most = 0;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (deferrals[i] > most) {
        most = deferrals[i];
        result.blockedOn = kUnitClasses[i];
      }
    }
    result.message = "ran out of steps with " + std::to_string(unplaced) +
                     " operations unplaced (first: '" + g.node(worst).name + "')";
    return result;
  }

  sched.validate(g, model);
  result.schedule = std::move(sched);
  return result;
}

}  // namespace

ListScheduleResult listSchedule(const Graph& g, int steps, const ResourceVector& limits,
                                int ii, const LatencyModel& model) {
  return scheduleWithFrames(g, steps, limits, ii, model,
                            computeTimeFrames(g, steps, {}, model));
}

ResourceVector unitLowerBound(const Graph& g, int steps, int ii) {
  const int window = ii > 0 ? std::min(ii, steps) : steps;
  ResourceVector bound = opsPerClass(g);
  for (int& c : bound.count) c = (c + window - 1) / window;
  return bound;
}

MinimizedSchedule minimizeSchedule(const Graph& g, int steps, const UnitCosts& costs, int ii,
                                   const LatencyModel& model) {
  (void)costs;  // growth is demand-driven; costs kept in the API for callers
                // that want to compare vectors (see analysis::areaIncrease).

  const ResourceVector opCount = opsPerClass(g);
  ResourceVector limits = unitLowerBound(g, steps, ii);

  // The frames depend only on the graph and the budget, not on the limits.
  const TimeFrames tf = computeTimeFrames(g, steps, {}, model);

  // Demand-driven growth: whichever class blocks the schedule grows by one.
  // A class never needs more units than it has operations; when the blamed
  // class is already saturated the demand signal was indirect (a starved
  // producer chain), so every unsaturated class grows instead. Once every
  // class is saturated the scheduler degenerates to ASAP and must succeed
  // whenever the frames are feasible.
  for (;;) {
    ListScheduleResult r = scheduleWithFrames(g, steps, limits, ii, model, tf);
    if (r.schedule) {
      // The scheduler may have used fewer units than the limits allow;
      // report what the schedule actually needs. Usage only grows during a
      // run, so rerunning at these units would make every decision the same
      // way and return this very schedule.
      ResourceVector units = ii > 0 ? r.schedule->unitsRequiredModulo(g, ii, model)
                                    : r.schedule->unitsRequired(g, model);
      return MinimizedSchedule{units, std::move(*r.schedule)};
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
