// Differential tests: bindDesign (bucketed lifetimes, stamped interconnect
// counting) must produce the same Binding as the sort-and-find binder it
// replaced, kept here verbatim as bindDesignReference — units with their op
// order and widths, unitOf, registers, registerOf and interconnectMuxes —
// on the paper and HLS circuits and on random DFGs from 2x2 to 1024x16,
// strict and shared designs, with mutual-exclusion sharing off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/condition.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

bool mutuallyExclusive(const GateDnf& a, const GateDnf& b) { return andDnf(a, b).empty(); }

/// The binder before lifetime bucketing and stamped source counting: a
/// comparison sort of the lifetimes and a std::find dedup per unit port.
Binding bindDesignReference(const Graph& g, const Schedule& sched, const BindingOptions& opts) {
  sched.validate(g);
  if (opts.allowMutexSharing && opts.activation == nullptr)
    throw SynthesisError("bindDesign: mutex sharing requires activation analysis");

  Binding binding;
  binding.unitOf.assign(g.size(), -1);
  binding.registerOf.assign(g.size(), -1);

  struct UnitState {
    FunctionalUnit unit;
    int lastStep = 0;
    std::vector<NodeId> opsThisStep;
  };
  std::map<ResourceClass, std::vector<UnitState>> pool;

  const std::vector<std::vector<NodeId>> byStep = sched.nodesByStep(g);
  for (int step = 1; step <= sched.steps(); ++step) {
    for (auto& [cls, states] : pool)
      for (UnitState& s : states) s.opsThisStep.clear();

    for (const NodeId n : byStep[static_cast<std::size_t>(step)]) {
      const ResourceClass rc = resourceClassOf(g.kind(n));
      std::vector<UnitState>& states = pool[rc];

      UnitState* chosen = nullptr;
      for (UnitState& s : states) {
        if (s.opsThisStep.empty()) {
          chosen = &s;
          break;
        }
        if (opts.allowMutexSharing) {
          const bool disjointFromAll = std::all_of(
              s.opsThisStep.begin(), s.opsThisStep.end(), [&](NodeId other) {
                return mutuallyExclusive(opts.activation->condition(n),
                                         opts.activation->condition(other));
              });
          if (disjointFromAll) {
            chosen = &s;
            break;
          }
        }
      }
      if (chosen == nullptr) {
        UnitState fresh;
        fresh.unit.cls = rc;
        fresh.unit.index = static_cast<int>(states.size());
        states.push_back(std::move(fresh));
        chosen = &states.back();
      }
      chosen->unit.ops.push_back(n);
      chosen->unit.width = std::max(chosen->unit.width, g.node(n).width);
      chosen->opsThisStep.push_back(n);
      chosen->lastStep = step;
    }
  }

  for (auto& [cls, states] : pool) {
    for (UnitState& s : states) {
      const int unitIdx = static_cast<int>(binding.units.size());
      for (const NodeId n : s.unit.ops) binding.unitOf[n] = unitIdx;
      binding.units.push_back(std::move(s.unit));
    }
  }

  struct Lifetime {
    NodeId value = kInvalidNode;
    int begin = 0;
    int end = 0;
    int width = 8;
  };

  std::vector<int> avail(g.size(), 0);
  for (const NodeId n : g.topoOrder()) {
    if (isScheduled(g.kind(n))) {
      avail[n] = sched.stepOf(n);
    } else {
      int t = 0;
      for (const NodeId p : g.fanins(n)) t = std::max(t, avail[p]);
      avail[n] = t;
    }
  }

  std::vector<Lifetime> lifetimes;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    int lastUse = avail[n];
    bool hasUse = false;
    std::vector<NodeId> stack{n};
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
    if (!hasUse) continue;
    lifetimes.push_back(Lifetime{n, avail[n], lastUse, g.node(n).width});
  }

  std::sort(lifetimes.begin(), lifetimes.end(), [](const Lifetime& a, const Lifetime& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.value < b.value;
  });

  std::vector<int> regFreeAt;
  for (const Lifetime& lt : lifetimes) {
    int reg = -1;
    for (std::size_t r = 0; r < regFreeAt.size(); ++r) {
      if (regFreeAt[r] <= lt.begin && binding.registers[r].width == lt.width) {
        reg = static_cast<int>(r);
        break;
      }
    }
    if (reg < 0) {
      reg = static_cast<int>(binding.registers.size());
      binding.registers.push_back(RegisterInfo{reg, lt.width, {}});
      regFreeAt.push_back(0);
    }
    binding.registers[static_cast<std::size_t>(reg)].values.push_back(lt.value);
    binding.registerOf[lt.value] = reg;
    regFreeAt[static_cast<std::size_t>(reg)] = lt.end + 1;
  }

  for (const FunctionalUnit& unit : binding.units) {
    const std::size_t ports = unit.cls == ResourceClass::Mux ? 3 : 2;
    for (std::size_t port = 0; port < ports; ++port) {
      std::vector<NodeId> sources;
      for (const NodeId op : unit.ops) {
        const auto operands = g.fanins(op);
        if (port >= operands.size()) continue;
        NodeId src = operands[port];
        while (g.kind(src) == OpKind::Wire) src = g.fanins(src)[0];
        if (std::find(sources.begin(), sources.end(), src) == sources.end())
          sources.push_back(src);
      }
      if (sources.size() > 1)
        binding.interconnectMuxes += static_cast<int>(sources.size()) - 1;
    }
  }

  return binding;
}

void expectSameBinding(const Binding& got, const Binding& ref, const std::string& what) {
  ASSERT_EQ(got.units.size(), ref.units.size()) << what;
  for (std::size_t i = 0; i < ref.units.size(); ++i) {
    EXPECT_EQ(got.units[i].cls, ref.units[i].cls) << what << " unit " << i;
    EXPECT_EQ(got.units[i].index, ref.units[i].index) << what << " unit " << i;
    EXPECT_EQ(got.units[i].ops, ref.units[i].ops) << what << " unit " << i;
    EXPECT_EQ(got.units[i].width, ref.units[i].width) << what << " unit " << i;
  }
  EXPECT_EQ(got.unitOf, ref.unitOf) << what;
  ASSERT_EQ(got.registers.size(), ref.registers.size()) << what;
  for (std::size_t r = 0; r < ref.registers.size(); ++r) {
    EXPECT_EQ(got.registers[r].index, ref.registers[r].index) << what << " register " << r;
    EXPECT_EQ(got.registers[r].width, ref.registers[r].width) << what << " register " << r;
    EXPECT_EQ(got.registers[r].values, ref.registers[r].values) << what << " register " << r;
  }
  EXPECT_EQ(got.registerOf, ref.registerOf) << what;
  EXPECT_EQ(got.interconnectMuxes, ref.interconnectMuxes) << what;
}

/// Transform (and optionally shared gating) at `steps`, schedule at the
/// minimum units, then bind both ways with mutex sharing off and on.
/// Returns the interconnect mux count, so callers can check the estimate
/// was exercised.
int checkDesign(const Graph& g, int steps, bool shared, const std::string& what) {
  PowerManagedDesign design = applyPowerManagement(g, steps);
  if (shared) applySharedGating(design);
  const Schedule sched = minimizeSchedule(design.graph, steps).schedule;
  const ActivationResult activation = analyzeActivation(design);
  int muxes = 0;
  for (const bool mutex : {false, true}) {
    BindingOptions opts;
    opts.allowMutexSharing = mutex;
    opts.activation = mutex ? &activation : nullptr;
    const Binding got = bindDesign(design.graph, sched, opts);
    expectSameBinding(got, bindDesignReference(design.graph, sched, opts),
                      what + (mutex ? " mutex" : " plain"));
    muxes += got.interconnectMuxes;
  }
  return muxes;
}

TEST(BindingDifferential, PaperAndHlsCircuits) {
  std::vector<Graph> graphs;
  for (const auto& entry : circuits::paperCircuits()) graphs.push_back(entry.build());
  graphs.push_back(circuits::cordic());
  graphs.push_back(circuits::diffeq());
  graphs.push_back(circuits::fir8());
  graphs.push_back(circuits::arf());
  graphs.push_back(circuits::ewf());
  int muxes = 0;
  for (const Graph& g : graphs) {
    const int cp = criticalPathLength(g);
    for (const int extra : {0, 1, 2, 8}) {
      for (const bool shared : {false, true}) {
        muxes += checkDesign(g, cp + extra, shared,
                             g.name() + (shared ? " shared @" : " strict @") +
                                 std::to_string(cp + extra));
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(muxes, 0);
}

TEST(BindingDifferential, RandomLadderStrictAndShared) {
  struct Size {
    int layers;
    int perLayer;
  };
  int muxes = 0;
  for (const Size size : {Size{2, 2}, Size{8, 4}, Size{32, 6}, Size{64, 8}, Size{256, 16}}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const Graph g = randomLayeredDfg(size.layers, size.perLayer, seed);
      const int cp = criticalPathLength(g);
      for (const int extra : {0, 2, 8}) {
        for (const bool shared : {false, true}) {
          const std::string what = std::to_string(size.layers) + "x" +
                                   std::to_string(size.perLayer) + ":" + std::to_string(seed) +
                                   (shared ? " shared @" : " strict @") +
                                   std::to_string(cp + extra);
          muxes += checkDesign(g, cp + extra, shared, what);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(muxes, 0);
}

TEST(BindingDifferential, LargestLadderGraph) {
  const Graph g = randomLayeredDfg(1024, 16, 1);
  const int steps = criticalPathLength(g) + 2;
  for (const bool shared : {false, true})
    EXPECT_GT(checkDesign(g, steps, shared, shared ? "1024x16 shared" : "1024x16 strict"), 0);
}

}  // namespace
}  // namespace pmsched
