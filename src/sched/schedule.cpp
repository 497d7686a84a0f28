#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

namespace pmsched {

Schedule::Schedule(const Graph& g, int steps) : steps_(steps), step_(g.size(), 0) {}

std::vector<std::vector<NodeId>> Schedule::nodesByStep(const Graph& g) const {
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(steps_) + 1);
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n)) && step_[n] >= 1 && step_[n] <= steps_)
      out[static_cast<std::size_t>(step_[n])].push_back(n);
  return out;
}

std::vector<ResourceVector> Schedule::usagePerStep(const Graph& g,
                                                   const LatencyModel& model) const {
  std::vector<ResourceVector> usage(static_cast<std::size_t>(steps_) + 1);
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n)) || step_[n] == 0) continue;
    const int latency = model.latencyOf(g.kind(n));
    for (int t = step_[n]; t < step_[n] + latency && t <= steps_; ++t)
      ++usage.at(static_cast<std::size_t>(t)).of(resourceClassOf(g.kind(n)));
  }
  return usage;
}

ResourceVector Schedule::unitsRequired(const Graph& g, const LatencyModel& model) const {
  ResourceVector req;
  for (const ResourceVector& u : usagePerStep(g, model)) req = req.max(u);
  return req;
}

ResourceVector Schedule::unitsRequiredModulo(const Graph& g, int ii,
                                             const LatencyModel& model) const {
  if (ii <= 0) throw SynthesisError("unitsRequiredModulo: ii must be positive");
  std::vector<ResourceVector> folded(static_cast<std::size_t>(ii));
  const std::vector<ResourceVector> usage = usagePerStep(g, model);
  for (int s = 1; s <= steps_; ++s) {
    ResourceVector& slot = folded[static_cast<std::size_t>((s - 1) % ii)];
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) slot.count[i] += usage[s].count[i];
  }
  ResourceVector req;
  for (const ResourceVector& u : folded) req = req.max(u);
  return req;
}

void Schedule::validate(const Graph& g, const LatencyModel& model) const {
  if (step_.size() != g.size()) throw SynthesisError("schedule/graph size mismatch");

  // Availability time of a node's value given the placement.
  std::vector<int> avail(g.size(), 0);
  for (const NodeId n : g.topoOrderView()) {
    int ready = 0;
    for (const NodeId p : g.fanins(n)) ready = std::max(ready, avail[p]);
    for (const NodeId p : g.controlPredecessors(n)) ready = std::max(ready, avail[p]);
    if (isScheduled(g.kind(n))) {
      const int s = step_[n];
      const int latency = model.latencyOf(g.kind(n));
      if (s < 1 || s + latency - 1 > steps_)
        throw SynthesisError("node '" + g.node(n).name + "' placed at invalid step " +
                             std::to_string(s));
      if (s <= ready)
        throw SynthesisError("node '" + g.node(n).name + "' at step " + std::to_string(s) +
                             " violates precedence (inputs ready after step " +
                             std::to_string(ready) + ")");
      avail[n] = s + latency - 1;
    } else {
      avail[n] = ready;
    }
  }
}

std::string Schedule::render(const Graph& g) const {
  std::ostringstream os;
  const std::vector<std::vector<NodeId>> byStep = nodesByStep(g);
  for (int s = 1; s <= steps_; ++s) {
    os << "step " << s << ":";
    bool any = false;
    for (const NodeId n : byStep[static_cast<std::size_t>(s)]) {
      os << (any ? ", " : " ") << g.node(n).name << " [" << opName(g.kind(n)) << "]";
      any = true;
    }
    if (!any) os << " (idle)";
    os << '\n';
  }
  return os.str();
}

}  // namespace pmsched
