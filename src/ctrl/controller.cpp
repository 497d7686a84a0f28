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
    for (const GateTerm& term : condition(l)) total += static_cast<int>(term.size());
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
    const GateDnf& dnf = condition(l);
    int literals = 0;
    for (const GateTerm& term : dnf) literals += static_cast<int>(term.size());
    area += literals + static_cast<double>(dnf.size()) - 1;
  }
  return area;
}

ControllerSpec synthesizeController(const PowerManagedDesign& design, const Schedule& sched,
                                    const Binding& binding,
                                    const ActivationResult& activation) {
  const Graph& g = design.graph;
  sched.validate(g);
  const ConditionTable& table = activation.conditions;

  ControllerSpec spec;
  spec.steps = sched.steps();
  spec.conditions.push_back(dnfTrue());

  // One node walk plans the status captures and lists the registered
  // values, counting each step's loads.
  //
  // Status bits: every select signal referenced by some activation
  // condition, plus every select feeding a datapath mux (its select line
  // must persist until the mux's step). Scheduled selects are captured when
  // produced; PI selects need no capture (they are stable inputs). Each
  // condition table entry is read once, at the first node that uses it.
  std::vector<bool> seenStatus(g.size(), false);
  std::vector<bool> seenEntry(table.dnfs.size(), false);
  auto noteStatus = [&](NodeId sel) {
    if (!isScheduled(g.kind(sel))) return;
    if (seenStatus[sel]) return;
    seenStatus[sel] = true;
    spec.statusCaptures.emplace_back(sel, sched.stepOf(sel));
  };
  std::vector<NodeId> registered;
  std::vector<std::size_t> stepStart(static_cast<std::size_t>(spec.steps) + 2, 0);
  for (NodeId n = 0; n < g.size(); ++n) {
    const std::uint32_t e = table.index[n];
    if (!seenEntry[e]) {
      seenEntry[e] = true;
      for (const GateTerm& term : table.dnfs[e])
        for (const GateLiteral& lit : term) noteStatus(lit.select);
    }
    const OpKind kind = g.kind(n);
    if (kind == OpKind::Mux) noteStatus(traceSelectProducer(g, n));
    if (isScheduled(kind) && binding.registerOf[n] >= 0) {
      registered.push_back(n);
      ++stepStart[static_cast<std::size_t>(sched.stepOf(n)) + 1];
    }
  }

  // Condition classes: the activation pass already hash-conses every
  // condition into a canonical BDD, so "same enable function" is one ref
  // compare instead of a DNF term-set comparison. Nodes whose BDD build
  // degraded (bdd[n] == kBddInvalid) fall back to the thread-local
  // probability manager — pinned, so its periodic trim cannot invalidate
  // the keys mid-generation. The two key spaces are kept disjoint by tag.
  // Every node of one table entry has the same ref, so an entry's class,
  // and its one copy into spec.conditions, are settled at its first load.
  BddManager& fallback = dnfProbabilityManager();
  const BddPin holdFallback(fallback);
  std::unordered_map<std::uint64_t, int> classOf;
  std::vector<int> classOfEntry(table.dnfs.size(), -1);
  std::vector<std::uint32_t> specEntry(table.dnfs.size(), 0);

  // Load actions: one per registered value, placed in (step, value) order
  // by a counting sort of the ascending value list.
  for (std::size_t i = 1; i < stepStart.size(); ++i) stepStart[i] += stepStart[i - 1];
  spec.loads.resize(registered.size());
  for (const NodeId n : registered) {
    LoadAction& load = spec.loads[stepStart[static_cast<std::size_t>(sched.stepOf(n))]++];
    load.step = sched.stepOf(n);
    load.reg = binding.registerOf[n];
    load.value = n;
    const std::uint32_t e = table.index[n];
    if (e == 0) continue;
    if (classOfEntry[e] < 0) {
      const BddRef ref = n < activation.bdd.size() ? activation.bdd[n] : kBddInvalid;
      const std::uint64_t key =
          ref != kBddInvalid ? std::uint64_t{ref}
                             : (std::uint64_t{1} << 32) | fallback.fromDnf(table.dnfs[e]);
      classOfEntry[e] = classOf.emplace(key, static_cast<int>(classOf.size())).first->second;
      specEntry[e] = static_cast<std::uint32_t>(spec.conditions.size());
      spec.conditions.push_back(table.dnfs[e]);
    }
    load.conditionIndex = specEntry[e];
    load.conditionClass = classOfEntry[e];

    // Sanity: every status bit a condition reads must be captured strictly
    // before this load fires.
    for (const GateTerm& term : table.dnfs[e]) {
      for (const GateLiteral& lit : term) {
        if (!isScheduled(g.kind(lit.select))) continue;
        if (sched.stepOf(lit.select) >= load.step)
          throw SynthesisError("controller: condition on '" + g.node(lit.select).name +
                               "' (step " + std::to_string(sched.stepOf(lit.select)) +
                               ") not resolved before load of '" + g.node(n).name +
                               "' (step " + std::to_string(load.step) + ")");
      }
    }
  }

  spec.conditionClasses = static_cast<int>(classOf.size());
  return spec;
}

}  // namespace pmsched
