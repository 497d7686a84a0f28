#include "alloc/binding.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sched/condition.hpp"

namespace pmsched {

namespace {

/// Two activation conditions are mutually exclusive when their conjunction
/// is unsatisfiable (empty DNF after simplification).
bool mutuallyExclusive(const GateDnf& a, const GateDnf& b) {
  return andDnf(a, b).empty();
}

}  // namespace

Binding bindDesign(const Graph& g, const Schedule& sched, const BindingOptions& opts) {
  sched.validate(g);
  if (opts.allowMutexSharing && opts.activation == nullptr)
    throw SynthesisError("bindDesign: mutex sharing requires activation analysis");

  Binding binding;
  binding.unitOf.assign(g.size(), -1);
  binding.registerOf.assign(g.size(), -1);

  // ---- functional unit binding ---------------------------------------------
  // Greedy first-fit, step by step; a unit is reusable across steps freely,
  // and within one step only via the mutual-exclusion extension. A unit is
  // busy in `step` when lastStep == step; opsThisStep lists what it runs in
  // lastStep, kept only when mutex sharing needs it.
  struct UnitState {
    FunctionalUnit unit;
    int lastStep = 0;
    std::vector<NodeId> opsThisStep;
  };
  // Indexed by unitIndex(): the order units are numbered in below.
  std::array<std::vector<UnitState>, kNumUnitClasses> pool;

  // The scheduled nodes bucketed by step, ascending id within a step (one
  // counting sort; sched.validate() put every one in [1, steps]).
  const int steps = sched.steps();
  std::vector<std::uint32_t> stepStart(static_cast<std::size_t>(steps) + 2, 0);
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n))) ++stepStart[static_cast<std::size_t>(sched.stepOf(n)) + 1];
  for (std::size_t s = 1; s < stepStart.size(); ++s) stepStart[s] += stepStart[s - 1];
  std::vector<NodeId> byStep(stepStart.back());
  {
    std::vector<std::uint32_t> fill(stepStart.begin(), stepStart.end() - 1);
    for (NodeId n = 0; n < g.size(); ++n)
      if (isScheduled(g.kind(n))) byStep[fill[static_cast<std::size_t>(sched.stepOf(n))]++] = n;
  }

  // Within a step the busy units of a class are a prefix of its pool: an
  // op takes a busy unit (mutex sharing) or the first idle one. busy[c] is
  // that prefix's length, so the first idle unit is found without a scan.
  std::array<std::size_t, kNumUnitClasses> busy{};
  for (int step = 1; step <= steps; ++step) {
    busy.fill(0);
    for (std::uint32_t i = stepStart[static_cast<std::size_t>(step)];
         i < stepStart[static_cast<std::size_t>(step) + 1]; ++i) {
      const NodeId n = byStep[i];
      const ResourceClass rc = resourceClassOf(g.kind(n));
      std::vector<UnitState>& states = pool[unitIndex(rc)];
      std::size_t& busyUnits = busy[unitIndex(rc)];

      UnitState* chosen = nullptr;
      if (opts.allowMutexSharing) {
        for (std::size_t u = 0; u < busyUnits; ++u) {
          const std::vector<NodeId>& running = states[u].opsThisStep;
          const bool disjointFromAll =
              std::all_of(running.begin(), running.end(), [&](NodeId other) {
                return mutuallyExclusive(opts.activation->condition(n),
                                         opts.activation->condition(other));
              });
          if (disjointFromAll) {
            chosen = &states[u];
            break;
          }
        }
      }
      if (chosen == nullptr) {
        if (busyUnits == states.size()) {
          UnitState fresh;
          fresh.unit.cls = rc;
          fresh.unit.index = static_cast<int>(states.size());
          states.push_back(std::move(fresh));
        }
        chosen = &states[busyUnits++];
      }
      chosen->unit.ops.push_back(n);
      chosen->unit.width = std::max(chosen->unit.width, g.node(n).width);
      if (opts.allowMutexSharing) {
        if (chosen->lastStep != step) chosen->opsThisStep.clear();
        chosen->opsThisStep.push_back(n);
      }
      chosen->lastStep = step;
    }
  }

  for (std::vector<UnitState>& states : pool) {
    for (UnitState& s : states) {
      const int unitIdx = static_cast<int>(binding.units.size());
      for (const NodeId n : s.unit.ops) binding.unitOf[n] = unitIdx;
      binding.units.push_back(std::move(s.unit));
    }
  }

  // ---- register allocation (left-edge) -------------------------------------
  // A value needs a register from the step after it is produced until the
  // last step that consumes it. Inputs are externally registered; outputs
  // read their producer's register.
  struct Lifetime {
    NodeId value = kInvalidNode;
    int begin = 0;  // first step the register holds the value
    int end = 0;    // last step a consumer reads it
    int width = 8;
  };

  // Step at which a node's value becomes available (transparent nodes relay
  // their producer's time).
  std::vector<int> avail(g.size(), 0);
  for (const NodeId n : g.topoOrderView()) {
    if (isScheduled(g.kind(n))) {
      avail[n] = sched.stepOf(n);
    } else {
      int t = 0;
      for (const NodeId p : g.fanins(n)) t = std::max(t, avail[p]);
      avail[n] = t;
    }
  }

  // Lifetimes in id order; begin steps are counted for the bucketing below.
  std::vector<Lifetime> lifetimes;
  std::vector<std::size_t> beginStart(static_cast<std::size_t>(sched.steps()) + 2, 0);
  std::vector<NodeId> stack;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    int lastUse = avail[n];
    bool hasUse = false;
    // Uses through wires count at the wire consumer's step.
    stack.assign(1, n);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId f : g.fanouts(v)) {
        if (g.kind(f) == OpKind::Wire) {
          stack.push_back(f);
        } else if (g.kind(f) == OpKind::Output) {
          lastUse = std::max(lastUse, sched.steps());
          hasUse = true;
        } else {
          lastUse = std::max(lastUse, sched.stepOf(f));
          hasUse = true;
        }
      }
    }
    if (!hasUse) continue;  // dead value: no register needed
    lifetimes.push_back(Lifetime{n, avail[n], lastUse, g.node(n).width});
    ++beginStart[static_cast<std::size_t>(avail[n]) + 1];
  }

  // Left-edge order (begin, id): a stable bucketing of the id-ordered list
  // by begin step.
  for (std::size_t b = 1; b < beginStart.size(); ++b) beginStart[b] += beginStart[b - 1];
  std::vector<Lifetime> ordered(lifetimes.size());
  for (const Lifetime& lt : lifetimes) ordered[beginStart[static_cast<std::size_t>(lt.begin)]++] = lt;

  // Each lifetime takes the lowest-index free register of its width, or a
  // new one. Lifetimes arrive in nondecreasing begin order, so a register
  // freed by step s stays free until it is taken again: registers are
  // released step by step from a per-step head/next list into one bitset
  // per width, whose lowest set bit is the lowest free register of that
  // width (registers of one width are numbered in creation order).
  struct WidthPool {
    int width = 0;
    std::vector<std::uint64_t> free;  // bit k: the pool's k-th register is free
    std::vector<int> regs;            // the pool's k-th register
  };
  struct RegSlot {
    std::uint32_t pool = 0;
    std::uint32_t bit = 0;  // index within the pool
    int nextReleased = -1;  // next register in the same release list
  };
  std::vector<WidthPool> pools;  // one per distinct width, found by linear search
  std::vector<RegSlot> slots;    // per register
  std::vector<int> releaseHead(static_cast<std::size_t>(steps) + 2, -1);
  int released = 0;  // every release list up to this step has been drained
  for (const Lifetime& lt : ordered) {
    while (released < lt.begin) {
      for (int r = releaseHead[static_cast<std::size_t>(++released)]; r >= 0;
           r = slots[static_cast<std::size_t>(r)].nextReleased) {
        const RegSlot& slot = slots[static_cast<std::size_t>(r)];
        pools[slot.pool].free[slot.bit / 64] |= std::uint64_t{1} << (slot.bit % 64);
      }
    }

    std::size_t p = 0;
    while (p < pools.size() && pools[p].width != lt.width) ++p;
    if (p == pools.size()) pools.push_back(WidthPool{lt.width, {}, {}});
    WidthPool& pool = pools[p];

    int reg = -1;
    for (std::size_t w = 0; w < pool.free.size(); ++w) {
      if (pool.free[w] == 0) continue;
      const int bit = std::countr_zero(pool.free[w]);
      pool.free[w] &= pool.free[w] - 1;
      reg = pool.regs[w * 64 + static_cast<std::size_t>(bit)];
      break;
    }
    if (reg < 0) {
      reg = static_cast<int>(binding.registers.size());
      binding.registers.push_back(RegisterInfo{reg, lt.width, {}});
      if (pool.regs.size() % 64 == 0) pool.free.push_back(0);
      slots.push_back(RegSlot{static_cast<std::uint32_t>(p),
                              static_cast<std::uint32_t>(pool.regs.size()), -1});
      pool.regs.push_back(reg);
    }
    binding.registers[static_cast<std::size_t>(reg)].values.push_back(lt.value);
    binding.registerOf[lt.value] = reg;
    int& head = releaseHead[static_cast<std::size_t>(lt.end) + 1];
    slots[static_cast<std::size_t>(reg)].nextReleased = head;
    head = reg;
  }

  // ---- interconnect estimate -----------------------------------------------
  // Each unit input port needs a (k-1)-deep 2:1 mux tree over its k distinct
  // sources; sources are producer registers or primary inputs/constants.
  // seenAt[src] is the stamp of the last port that counted src, so a
  // source counts once per port.
  std::vector<std::uint32_t> seenAt(g.size(), 0);
  std::uint32_t stamp = 0;
  for (const FunctionalUnit& unit : binding.units) {
    const std::size_t ports = unit.cls == ResourceClass::Mux ? 3 : 2;
    for (std::size_t port = 0; port < ports; ++port) {
      ++stamp;
      int sources = 0;
      for (const NodeId op : unit.ops) {
        const auto operands = g.fanins(op);
        if (port >= operands.size()) continue;
        NodeId src = operands[port];
        while (g.kind(src) == OpKind::Wire) src = g.fanins(src)[0];
        if (seenAt[src] != stamp) {
          seenAt[src] = stamp;
          ++sources;
        }
      }
      if (sources > 1) binding.interconnectMuxes += sources - 1;
    }
  }

  return binding;
}

AreaModel estimateArea(const Binding& binding, const UnitCosts& costs) {
  AreaModel area;
  for (const FunctionalUnit& u : binding.units)
    area.unitArea += costs.area[unitIndex(u.cls)] * (static_cast<double>(u.width) / 8.0);
  for (const RegisterInfo& r : binding.registers)
    area.registerArea += 4.0 * r.width;  // ~4 NAND2-equivalents per enabled DFF bit
  area.interconnectArea += 3.0 * 8.0 * binding.interconnectMuxes;  // 2:1 mux word
  return area;
}

}  // namespace pmsched
