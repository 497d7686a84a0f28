#pragma once
// Hardware allocation: bind scheduled operations to execution units and
// values to registers. Stands in for HYPER's datapath generation step.
//
// Unit binding is first-fit per control step with an optional
// mutual-exclusion extension (§II-C of the paper): two operations may share
// a unit in the SAME control step when their activation conditions are
// provably disjoint — the generalization the paper highlights over earlier
// mutual-exclusion work.
//
// Register allocation is the classic left-edge algorithm over value
// lifetimes [production step, last consumption step]. Registers are freed
// into one bitset per width by release step, so each lifetime costs O(1)
// amortized plus a word scan, not a walk over every register.

#include <vector>

#include "power/activation.hpp"
#include "sched/power_transform.hpp"
#include "sched/schedule.hpp"

namespace pmsched {

/// One physical execution unit instance.
struct FunctionalUnit {
  ResourceClass cls = ResourceClass::None;
  int index = 0;                ///< instance number within the class
  std::vector<NodeId> ops;      ///< operations executed on this unit
  int width = 8;                ///< widest operation bound to it
};

/// One physical register.
struct RegisterInfo {
  int index = 0;
  int width = 8;
  std::vector<NodeId> values;  ///< values stored here (disjoint lifetimes)
};

struct Binding {
  std::vector<FunctionalUnit> units;
  std::vector<int> unitOf;  ///< node -> index into units, -1 for transparent

  std::vector<RegisterInfo> registers;
  std::vector<int> registerOf;  ///< node -> register index, -1 if unregistered

  /// Interconnect estimate: 2:1 muxes needed to route distinct sources into
  /// unit input ports.
  int interconnectMuxes = 0;

  [[nodiscard]] int unitCount(ResourceClass rc) const {
    int n = 0;
    for (const FunctionalUnit& u : units)
      if (u.cls == rc) ++n;
    return n;
  }
};

struct BindingOptions {
  /// Allow same-step unit sharing between operations whose activation
  /// conditions are disjoint (requires `activation`).
  bool allowMutexSharing = false;
  const ActivationResult* activation = nullptr;
};

/// Bind a scheduled design. The schedule must validate against the graph.
[[nodiscard]] Binding bindDesign(const Graph& g, const Schedule& sched,
                                 const BindingOptions& opts = {});

/// Area model over a full binding: units + registers + interconnect.
struct AreaModel {
  double unitArea = 0;
  double registerArea = 0;
  double interconnectArea = 0;

  [[nodiscard]] double total() const { return unitArea + registerArea + interconnectArea; }
};

[[nodiscard]] AreaModel estimateArea(const Binding& binding,
                                     const UnitCosts& costs = UnitCosts::defaults());

}  // namespace pmsched
