#include "rtl/mapper.hpp"

#include <algorithm>

namespace pmsched {

namespace {

class Mapper {
 public:
  Mapper(const PowerManagedDesign& design, const Schedule& sched, const Binding& binding,
         const ActivationResult& activation, const RtlOptions& opts)
      : design_(design),
        g_(design.graph),
        sched_(sched),
        binding_(binding),
        activation_(activation),
        opts_(opts),
        rtl_{} {
    rtl_.netlist = Netlist(design.graph.name() + (opts.latchGating ? "_pm" : "_orig"));
  }

  RtlDesign run() {
    rtl_.steps = sched_.steps();
    buildStateRing();
    buildPrimaryInputs();
    buildPortLatches();   // pass A: latches with placeholder data/enable
    buildUnitCores();     // pass B: combinational units + result/status regs
    patchRouting();       // pass C: real source networks and gated enables
    buildOutputs();
    return std::move(rtl_);
  }

 private:
  Netlist& nl() { return rtl_.netlist; }

  // ---- state ring -----------------------------------------------------------
  // One-hot ring with steps+1 states (state 0 loads the primary inputs).
  // state 0's recurrence closes the ring, which is expressed with a
  // patched DFF data input (the only backward edge, legal through the
  // register boundary).
  void buildStateRing() {
    const int states = sched_.steps() + 1;
    state_.resize(static_cast<std::size_t>(states));
    const SignalId placeholder = nl().constant(false);
    state_[0] = nl().addDff(placeholder, kNoSignal, true);
    for (int i = 1; i < states; ++i)
      state_[static_cast<std::size_t>(i)] =
          nl().addDff(state_[static_cast<std::size_t>(i - 1)], kNoSignal, false);
    nl().patchDffData(state_[0], state_.back());
  }

  SignalId stateBit(int state) const { return state_.at(static_cast<std::size_t>(state)); }

  // ---- primary inputs -------------------------------------------------------
  void buildPrimaryInputs() {
    for (const NodeId n : g_.nodesOfKind(OpKind::Input)) {
      const Node& node = g_.node(n);
      Word ext = inputWord(nl(), node.name, node.width);
      rtl_.inputPorts[node.name] = ext;
      rtl_.inputWidths[node.name] = node.width;
      extWord_[n] = ext;
      piReg_[n] = registerWord(nl(), ext, stateBit(0));
    }
    for (const NodeId n : g_.nodesOfKind(OpKind::Const))
      constWord_[n] = constWord(nl(), g_.node(n).constValue, g_.node(n).width);
  }

  // ---- unit structure -------------------------------------------------------
  struct UnitRtl {
    std::vector<Word> portLatch;        ///< operand latches (mux: sel,t,f)
    std::vector<Word> portPlaceholder;  ///< Buf words to patch in pass C
    std::vector<SignalId> enablePlaceholder;  ///< Buf per port, patched too
    Word out;                           ///< combinational result
    SignalId outGt = kNoSignal, outGe = kNoSignal, outEq = kNoSignal;
    SignalId outNe = kNoSignal, outLt = kNoSignal, outLe = kNoSignal;
    Word outAnd, outOr, outXor, outNot;  ///< logic-unit flavours
  };

  static std::size_t portCount(const FunctionalUnit& unit) {
    return unit.cls == ResourceClass::Mux ? 3 : 2;
  }
  static int portWidth(const FunctionalUnit& unit, std::size_t port) {
    return (unit.cls == ResourceClass::Mux && port == 0) ? 1 : unit.width;
  }

  void buildPortLatches() {
    unitRtl_.resize(binding_.units.size());
    for (std::size_t u = 0; u < binding_.units.size(); ++u) {
      const FunctionalUnit& unit = binding_.units[u];
      UnitRtl& r = unitRtl_[u];
      const std::size_t ports = portCount(unit);
      r.portLatch.resize(ports);
      r.portPlaceholder.resize(ports);
      r.enablePlaceholder.resize(ports, kNoSignal);
      for (std::size_t p = 0; p < ports; ++p) {
        const int width = portWidth(unit, p);
        Word placeholder;
        for (int i = 0; i < width; ++i)
          placeholder.push_back(nl().addGate(GateKind::Buf, nl().constant(false)));
        const SignalId enable = nl().addGate(GateKind::Buf, nl().constant(false));
        r.portPlaceholder[p] = placeholder;
        r.enablePlaceholder[p] = enable;
        r.portLatch[p] = registerWord(nl(), placeholder, enable);
      }
    }
  }

  void buildUnitCores() {
    for (std::size_t u = 0; u < binding_.units.size(); ++u) {
      const FunctionalUnit& unit = binding_.units[u];
      UnitRtl& r = unitRtl_[u];
      switch (unit.cls) {
        case ResourceClass::Adder:
          r.out = adderWord(nl(), r.portLatch[0], r.portLatch[1]);
          break;
        case ResourceClass::Subtractor:
          r.out = subtractorWord(nl(), r.portLatch[0], r.portLatch[1]);
          break;
        case ResourceClass::Multiplier:
          r.out = multiplierWord(nl(), r.portLatch[0], r.portLatch[1]);
          break;
        case ResourceClass::Comparator: {
          // One subtract core + equality reduction yields every flavour.
          const SignalId lt = compareGtWord(nl(), r.portLatch[1], r.portLatch[0]);
          const SignalId eq = compareEqWord(nl(), r.portLatch[0], r.portLatch[1]);
          r.outLt = lt;
          r.outEq = eq;
          r.outNe = nl().addGate(GateKind::Inv, eq);
          r.outGe = nl().addGate(GateKind::Inv, lt);
          r.outGt = nl().addGate(GateKind::And2, r.outGe, r.outNe);
          r.outLe = nl().addGate(GateKind::Or2, lt, eq);
          r.out = {r.outGt};
          break;
        }
        case ResourceClass::Mux:
          r.out = mux2Word(nl(), r.portLatch[0].at(0), r.portLatch[1], r.portLatch[2]);
          break;
        case ResourceClass::Logic:
          // One ALU-style unit provides every bitwise flavour; each op picks
          // its output (mirrors the comparator treatment).
          r.outAnd = andWord(nl(), r.portLatch[0], r.portLatch[1]);
          r.outOr = orWord(nl(), r.portLatch[0], r.portLatch[1]);
          r.outXor = xorWord(nl(), r.portLatch[0], r.portLatch[1]);
          r.outNot = notWord(nl(), r.portLatch[0]);
          r.out = r.outAnd;
          break;
        case ResourceClass::Shifter:
          r.out = xorWord(nl(), r.portLatch[0], r.portLatch[1]);  // unused by paper circuits
          break;
        case ResourceClass::None: break;
      }
    }

    // Value registers: one per binder register; AND-OR capture network over
    // the values it stores, enable gated by each value's condition.
    valueReg_.resize(binding_.registers.size());
    for (std::size_t reg = 0; reg < binding_.registers.size(); ++reg) {
      const RegisterInfo& info = binding_.registers[reg];
      Word dWord;
      SignalId enable = kNoSignal;
      for (const NodeId v : info.values) {
        const Word out = unitOutputOf(v);
        const SignalId stateSel = stateBit(sched_.stepOf(v));
        Word masked;
        for (int i = 0; i < info.width; ++i) {
          const SignalId bit = i < static_cast<int>(out.size())
                                   ? out[static_cast<std::size_t>(i)]
                                   : out.back();
          masked.push_back(nl().addGate(GateKind::And2, stateSel, bit));
        }
        if (dWord.empty()) {
          dWord = masked;
        } else {
          for (int i = 0; i < info.width; ++i)
            dWord[static_cast<std::size_t>(i)] =
                nl().addGate(GateKind::Or2, dWord[static_cast<std::size_t>(i)],
                             masked[static_cast<std::size_t>(i)]);
        }
        SignalId term = stateSel;
        const SignalId cond = conditionSignal(v, sched_.stepOf(v));
        if (cond != kNoSignal) term = nl().addGate(GateKind::And2, term, cond);
        enable = enable == kNoSignal ? term : nl().addGate(GateKind::Or2, enable, term);
      }
      valueReg_[reg] = registerWord(nl(), dWord, enable);
    }
  }

  void patchRouting() {
    for (std::size_t u = 0; u < binding_.units.size(); ++u) {
      const FunctionalUnit& unit = binding_.units[u];
      UnitRtl& r = unitRtl_[u];
      const std::size_t ports = portCount(unit);
      for (std::size_t p = 0; p < ports; ++p) {
        const int width = portWidth(unit, p);

        // Data: AND-OR network over the sources, selected by the state bit
        // of the cycle before each op's step.
        Word net;
        SignalId enable = kNoSignal;
        for (const NodeId op : unit.ops) {
          const auto operands = g_.fanins(op);
          if (p >= operands.size()) continue;
          const int cycle = sched_.stepOf(op) - 1;

          Word src;
          if (unit.cls == ResourceClass::Mux && p == 0) {
            src = {selectValueDuring(traceSelectProducer(g_, op), cycle)};
          } else {
            src = sourceWordDuring(operands[p], width, cycle);
          }
          const SignalId sel = stateBit(cycle);
          Word masked;
          for (int i = 0; i < width; ++i)
            masked.push_back(
                nl().addGate(GateKind::And2, sel, src[static_cast<std::size_t>(i)]));
          if (net.empty()) {
            net = masked;
          } else {
            for (int i = 0; i < width; ++i)
              net[static_cast<std::size_t>(i)] =
                  nl().addGate(GateKind::Or2, net[static_cast<std::size_t>(i)],
                               masked[static_cast<std::size_t>(i)]);
          }

          // Enable: state AND (activation condition when gating).
          SignalId term = sel;
          const SignalId cond = conditionSignal(op, cycle);
          if (cond != kNoSignal) term = nl().addGate(GateKind::And2, term, cond);
          enable = enable == kNoSignal ? term : nl().addGate(GateKind::Or2, enable, term);
        }
        if (net.empty()) net = constWord(nl(), 0, width);
        if (enable == kNoSignal) enable = nl().constant(false);

        for (int i = 0; i < width; ++i)
          nl().patchBufData(r.portPlaceholder[p][static_cast<std::size_t>(i)],
                            net[static_cast<std::size_t>(i)]);
        nl().patchBufData(r.enablePlaceholder[p], enable);
      }
    }
  }

  // ---- value routing helpers ------------------------------------------------

  /// Combinational output of the unit executing `op` (comparators: the
  /// flavour this op needs).
  Word unitOutputOf(NodeId op) {
    const int u = binding_.unitOf[op];
    if (u < 0) throw SynthesisError("rtl: node has no unit: " + g_.node(op).name);
    const UnitRtl& r = unitRtl_[static_cast<std::size_t>(u)];
    if (isComparison(g_.kind(op))) {
      switch (g_.kind(op)) {
        case OpKind::CmpGt: return {r.outGt};
        case OpKind::CmpGe: return {r.outGe};
        case OpKind::CmpLt: return {r.outLt};
        case OpKind::CmpLe: return {r.outLe};
        case OpKind::CmpEq: return {r.outEq};
        case OpKind::CmpNe: return {r.outNe};
        default: break;
      }
    }
    switch (g_.kind(op)) {
      case OpKind::And: return r.outAnd;
      case OpKind::Or: return r.outOr;
      case OpKind::Xor: return r.outXor;
      case OpKind::Not: return r.outNot;
      default: break;
    }
    if (r.out.empty())
      throw SynthesisError("rtl: unit output queried before construction for '" +
                           g_.node(op).name + "'");
    return r.out;
  }

  /// Word carrying `source`'s value during `cycle`:
  ///   * inputs: the external port in cycle 0 (the input register captures
  ///     on the same edge), the input register afterwards;
  ///   * constants: constant word;
  ///   * a value produced exactly in `cycle`: live unit output (its
  ///     register captures on the same edge);
  ///   * otherwise: the value's register.
  Word sourceWordDuring(NodeId source, int width, int cycle) {
    int shift = 0;
    NodeId base = source;
    while (g_.kind(base) == OpKind::Wire) {
      shift += g_.node(base).shift;
      base = g_.fanins(base)[0];
    }
    Word word;
    if (g_.kind(base) == OpKind::Input) {
      word = cycle == 0 ? extWord_.at(base) : piReg_.at(base);
    } else if (g_.kind(base) == OpKind::Const) {
      word = constWord_.at(base);
    } else if (sched_.stepOf(base) == cycle) {
      word = unitOutputOf(base);
    } else if (sched_.stepOf(base) < cycle) {
      const int reg = binding_.registerOf[base];
      if (reg < 0)
        throw SynthesisError("rtl: value without register consumed: " + g_.node(base).name);
      word = valueReg_.at(static_cast<std::size_t>(reg));
    } else {
      throw SynthesisError("rtl: value '" + g_.node(base).name + "' needed in cycle " +
                           std::to_string(cycle) + " before its step " +
                           std::to_string(sched_.stepOf(base)));
    }
    word = resizeWord(nl(), word, width);
    if (shift != 0) word = shiftWord(nl(), word, shift);
    return word;
  }

  /// A select signal's value during `cycle` (status register once captured,
  /// live comparator output in the capture cycle itself).
  SignalId selectValueDuring(NodeId select, int cycle) {
    if (!isScheduled(g_.kind(select))) return sourceWordDuring(select, 1, cycle).at(0);
    const int producedAt = sched_.stepOf(select);
    if (producedAt < cycle) return statusReg(select);
    if (producedAt == cycle) return unitOutputOf(select).at(0);
    throw SynthesisError("rtl: select '" + g_.node(select).name + "' needed in cycle " +
                         std::to_string(cycle) + " but computed in step " +
                         std::to_string(producedAt));
  }

  SignalId statusReg(NodeId select) {
    const auto it = statusReg_.find(select);
    if (it != statusReg_.end()) return it->second;
    const SignalId live = unitOutputOf(select).at(0);
    const SignalId reg = nl().addDff(live, stateBit(sched_.stepOf(select)), false);
    statusReg_[select] = reg;
    return reg;
  }

  /// Gated-enable condition of `op` during `cycle`; kNoSignal when the op
  /// is unconditional or gating is disabled. Ops whose conditions are the
  /// same Boolean function (canonical activation BDD ref — degraded nodes
  /// key through the pinned thread-local manager instead) share one decode
  /// network per cycle rather than re-building identical AND-OR trees.
  SignalId conditionSignal(NodeId op, int cycle) {
    if (!opts_.latchGating) return kNoSignal;
    const GateDnf& dnf = activation_.condition(op);
    if (dnfIsTrue(dnf)) return kNoSignal;
    if (dnf.empty()) return nl().constant(false);

    const BddRef ref = op < activation_.bdd.size() ? activation_.bdd[op] : kBddInvalid;
    const std::uint64_t key =
        ref != kBddInvalid ? std::uint64_t{ref}
                           : (std::uint64_t{1} << 32) | condKeys_.fromDnf(dnf);
    const auto memo = condMemo_.find({key, cycle});
    if (memo != condMemo_.end()) return memo->second;

    SignalId orAll = kNoSignal;
    for (const GateTerm& term : dnf) {
      SignalId andAll = kNoSignal;
      for (const GateLiteral& lit : term) {
        SignalId bit = selectValueDuring(lit.select, cycle);
        if (!lit.value) bit = nl().addGate(GateKind::Inv, bit);
        andAll = andAll == kNoSignal ? bit : nl().addGate(GateKind::And2, andAll, bit);
      }
      orAll = orAll == kNoSignal ? andAll : nl().addGate(GateKind::Or2, orAll, andAll);
    }
    condMemo_.emplace(std::make_pair(key, cycle), orAll);
    return orAll;
  }

  void buildOutputs() {
    for (const NodeId n : g_.nodesOfKind(OpKind::Output)) {
      const Node& node = g_.node(n);
      // Outputs are read after the final step: every producer is in a
      // register by then (cycle beyond all steps).
      Word w = sourceWordDuring(node.operands[0], node.width, sched_.steps() + 1);
      for (std::size_t i = 0; i < w.size(); ++i)
        nl().markOutput(w[i], node.name + "[" + std::to_string(i) + "]");
      rtl_.outputPorts[node.name] = w;
    }
  }

  const PowerManagedDesign& design_;
  const Graph& g_;
  const Schedule& sched_;
  const Binding& binding_;
  const ActivationResult& activation_;
  RtlOptions opts_;
  RtlDesign rtl_;

  std::vector<SignalId> state_;
  std::map<NodeId, Word> extWord_;
  std::map<NodeId, Word> piReg_;
  std::map<NodeId, Word> constWord_;
  std::vector<UnitRtl> unitRtl_;
  std::map<NodeId, SignalId> statusReg_;
  std::vector<Word> valueReg_;

  /// Memoized enable decoders, keyed by (condition class, cycle). The
  /// fallback manager is pinned for the mapper's lifetime so its periodic
  /// trim cannot recycle refs that serve as memo keys.
  std::map<std::pair<std::uint64_t, int>, SignalId> condMemo_;
  BddManager& condKeys_ = dnfProbabilityManager();
  BddPin condKeysPin_{condKeys_};
};

}  // namespace

RtlDesign mapDesign(const PowerManagedDesign& design, const Schedule& sched,
                    const Binding& binding, const ActivationResult& activation,
                    const RtlOptions& opts) {
  Mapper mapper(design, sched, binding, activation, opts);
  return mapper.run();
}

}  // namespace pmsched
