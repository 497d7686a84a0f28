#pragma once
// Controller synthesis: the finite state machine that sequences the
// datapath. This is the piece the paper says it had to write anew, because
// with power management "the loading of the input registers to some of the
// execution units will depend on signals generated by some previous
// computation" — i.e. load enables become functions of status bits, not
// just of the state counter.
//
// The controller has one state per control step. In state s it:
//   * asserts the load enable of every register whose value is produced in
//     step s — ANDed with the value's activation condition (a DNF over
//     status bits) when the operation is power managed. A load names its
//     condition by an index into the spec's table of distinct conditions,
//     so the thousands of unmanaged loads share entry 0 (TRUE);
//   * captures every select signal produced in step s into a 1-bit status
//     register, so later states can use it.
//
// The complexity metrics below quantify the paper's remark that "the
// controller is more complex for the power managed circuit".

#include <cstdint>
#include <vector>

#include "alloc/binding.hpp"
#include "power/activation.hpp"

namespace pmsched {

/// One conditional register load in one state.
struct LoadAction {
  int step = 0;          ///< FSM state (1-based control step)
  int reg = -1;          ///< destination register index (Binding::registers)
  NodeId value = kInvalidNode;  ///< operation whose result is captured
  /// Activation condition: index into ControllerSpec::conditions, whose
  /// entry 0 is TRUE (every unmanaged load).
  std::uint32_t conditionIndex = 0;
  /// Equivalence class of the condition over all gated loads: loads with
  /// the same class compute the same Boolean function (proved by canonical
  /// BDD ref equality, not term-set comparison) and can share one enable
  /// decoder. -1 for ungated loads.
  int conditionClass = -1;

  [[nodiscard]] bool isGated() const { return conditionIndex != 0; }
};

struct ControllerSpec {
  int steps = 0;
  std::vector<LoadAction> loads;
  /// The distinct load conditions, each stored once: entry 0 is TRUE, the
  /// others are the gated conditions in ascending order of the first value
  /// whose load uses them.
  std::vector<GateDnf> conditions;
  /// Select producers captured into 1-bit status registers, with the step
  /// in which each is captured.
  std::vector<std::pair<NodeId, int>> statusCaptures;
  /// Number of distinct gated condition functions (see
  /// LoadAction::conditionClass).
  int conditionClasses = 0;

  [[nodiscard]] const GateDnf& condition(const LoadAction& load) const {
    return conditions[load.conditionIndex];
  }
  [[nodiscard]] int stateCount() const { return steps; }
  [[nodiscard]] int gatedLoadCount() const;
  /// Total literal count over all load conditions: the AND/OR gate budget.
  [[nodiscard]] int conditionLiterals() const;
  /// NAND2-equivalent area estimate: state counter + status registers +
  /// enable decode logic (shared across loads of the same condition class).
  [[nodiscard]] double estimatedArea() const;
};

/// Build the controller for a bound, scheduled, power-managed design.
/// Throws SynthesisError if any condition refers to a status bit that is
/// not available before the load fires (the transform's control edges are
/// supposed to make this impossible).
[[nodiscard]] ControllerSpec synthesizeController(const PowerManagedDesign& design,
                                                  const Schedule& sched,
                                                  const Binding& binding,
                                                  const ActivationResult& activation);

}  // namespace pmsched
