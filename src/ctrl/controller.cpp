#include "ctrl/controller.hpp"

#include <algorithm>
#include <unordered_map>

#include "sched/condition.hpp"

namespace pmsched {

int ControllerSpec::gatedLoadCount() const {
  return static_cast<int>(std::count_if(loads.begin(), loads.end(),
                                        [](const LoadAction& l) { return l.isGated(); }));
}

int ControllerSpec::conditionLiterals() const {
  int total = 0;
  for (const LoadAction& l : loads)
    for (const GateTerm& term : l.condition) total += static_cast<int>(term.size());
  return total;
}

double ControllerSpec::estimatedArea() const {
  // One-hot state register: one DFF (~4 gates) per state plus shift wiring.
  double area = 4.0 * steps;
  // One DFF per status bit.
  area += 4.0 * static_cast<double>(statusCaptures.size());
  // Enable decode: one AND input per literal, one OR input per extra term —
  // paid once per condition class, since loads in the same class share the
  // decoder — plus one final AND with the state line per gated load.
  std::vector<bool> counted(static_cast<std::size_t>(std::max(conditionClasses, 0)), false);
  for (const LoadAction& l : loads) {
    if (!l.isGated()) continue;
    area += 1.0;  // state-line AND
    const bool shared = l.conditionClass >= 0 &&
                        l.conditionClass < static_cast<int>(counted.size());
    if (shared && counted[static_cast<std::size_t>(l.conditionClass)]) continue;
    if (shared) counted[static_cast<std::size_t>(l.conditionClass)] = true;
    int literals = 0;
    for (const GateTerm& term : l.condition) literals += static_cast<int>(term.size());
    area += literals + static_cast<double>(l.condition.size()) - 1;
  }
  return area;
}

ControllerSpec synthesizeController(const PowerManagedDesign& design, const Schedule& sched,
                                    const Binding& binding,
                                    const ActivationResult& activation) {
  const Graph& g = design.graph;
  sched.validate(g);

  ControllerSpec spec;
  spec.steps = sched.steps();

  // Status bits: every select signal referenced by some activation
  // condition, plus every select feeding a datapath mux (its select line
  // must persist until the mux's step). Scheduled selects are captured when
  // produced; PI selects need no capture (they are stable inputs).
  std::vector<NodeId> statusSignals;
  std::vector<bool> seenStatus(g.size(), false);
  auto noteStatus = [&](NodeId sel) {
    if (!isScheduled(g.kind(sel))) return;
    if (seenStatus[sel]) return;
    seenStatus[sel] = true;
    statusSignals.push_back(sel);
  };
  for (NodeId n = 0; n < g.size(); ++n) {
    for (const GateTerm& term : activation.condition[n])
      for (const GateLiteral& lit : term) noteStatus(lit.select);
    if (g.kind(n) == OpKind::Mux) noteStatus(traceSelectProducer(g, n));
  }
  for (const NodeId sel : statusSignals)
    spec.statusCaptures.emplace_back(sel, sched.stepOf(sel));

  // Condition classes: the activation pass already hash-conses every
  // condition into a canonical BDD, so "same enable function" is one ref
  // compare instead of a DNF term-set comparison. Nodes whose BDD build
  // degraded (bdd[n] == kBddInvalid) fall back to the thread-local
  // probability manager — pinned, so its periodic trim cannot invalidate
  // the keys mid-generation. The two key spaces are kept disjoint by tag.
  BddManager& fallback = dnfProbabilityManager();
  const BddPin holdFallback(fallback);
  std::unordered_map<std::uint64_t, int> classOf;
  auto conditionClassOf = [&](NodeId n) {
    const BddRef ref = n < activation.bdd.size() ? activation.bdd[n] : kBddInvalid;
    const std::uint64_t key =
        ref != kBddInvalid ? std::uint64_t{ref}
                           : (std::uint64_t{1} << 32) | fallback.fromDnf(activation.condition[n]);
    return classOf.emplace(key, static_cast<int>(classOf.size())).first->second;
  };

  // Load actions: one per registered value, made in ascending value order.
  std::vector<LoadAction> loads;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n)) || binding.registerOf[n] < 0) continue;
    LoadAction load;
    load.step = sched.stepOf(n);
    load.reg = binding.registerOf[n];
    load.value = n;
    load.condition = activation.condition[n];
    if (load.isGated()) load.conditionClass = conditionClassOf(n);

    // Sanity: every status bit a condition reads must be captured strictly
    // before this load fires.
    for (const GateTerm& term : load.condition) {
      for (const GateLiteral& lit : term) {
        if (!isScheduled(g.kind(lit.select))) continue;
        if (sched.stepOf(lit.select) >= load.step)
          throw SynthesisError("controller: condition on '" + g.node(lit.select).name +
                               "' (step " + std::to_string(sched.stepOf(lit.select)) +
                               ") not resolved before load of '" + g.node(n).name +
                               "' (step " + std::to_string(load.step) + ")");
      }
    }
    loads.push_back(std::move(load));
  }

  spec.conditionClasses = static_cast<int>(classOf.size());

  // Emit in (step, value) order: a stable bucketing by step keeps each
  // step's loads in the ascending value order they were made in.
  std::vector<std::size_t> stepStart(static_cast<std::size_t>(spec.steps) + 2, 0);
  for (const LoadAction& load : loads) ++stepStart[static_cast<std::size_t>(load.step) + 1];
  for (std::size_t i = 1; i < stepStart.size(); ++i) stepStart[i] += stepStart[i - 1];
  spec.loads.resize(loads.size());
  for (LoadAction& load : loads)
    spec.loads[stepStart[static_cast<std::size_t>(load.step)]++] = std::move(load);
  return spec;
}

}  // namespace pmsched
