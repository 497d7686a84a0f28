#include "circuits/circuits.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace pmsched {
namespace circuits {

Graph absdiff() {
  Graph g("absdiff");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId t = g.addOp(OpKind::CmpGt, {a, b}, "a_gt_b");
  const NodeId d1 = g.addOp(OpKind::Sub, {a, b}, "a_minus_b");
  const NodeId d2 = g.addOp(OpKind::Sub, {b, a}, "b_minus_a");
  const NodeId m = g.addMux(t, d1, d2, "abs_mux");
  g.addOutput(m, "abs_out");
  g.validate();
  return g;
}

Graph dealer() {
  // A dealer picks a payout from one of two hands. The comparison c1
  // decides the hand; each hand has its own comparison-driven selection.
  // The running total s1 is always reported; s2 is shared between the two
  // hands (it feeds mA's data input and the False-branch compare/subtract),
  // which is what makes the paper's "+ = 1.75" row reachable only with
  // OR-composed (shared) gating at 6 steps.
  Graph g("dealer");
  const NodeId p = g.addInput("p");
  const NodeId q = g.addInput("q");
  const NodeId r = g.addInput("r");
  const NodeId s = g.addInput("s");

  const NodeId s1 = g.addOp(OpKind::Add, {p, q}, "s1");  // hand 1 total
  const NodeId s2 = g.addOp(OpKind::Add, {r, s}, "s2");  // hand 2 total
  const NodeId c1 = g.addOp(OpKind::CmpGt, {p, q}, "c1");
  const NodeId c2 = g.addOp(OpKind::CmpGt, {p, r}, "c2");

  // True branch: pick hand-1 total or the shared total.
  const NodeId mA = g.addMux(c2, s1, s2, "mA");

  // False branch: pay the margin over q, or the shared total as-is.
  const NodeId c3 = g.addOp(OpKind::CmpGt, {r, q}, "c3");
  const NodeId d = g.addOp(OpKind::Sub, {s2, q}, "d");
  const NodeId mB = g.addMux(c3, d, s2, "mB");

  const NodeId m3 = g.addMux(c1, mA, mB, "M3");
  g.addOutput(m3, "deal");
  g.addOutput(s1, "total");  // always visible, so s1 is never gated
  g.validate();
  return g;
}

Graph gcd() {
  // One iteration of subtractive GCD with operand-selection (one shared
  // subtractor, as in the mutually-exclusive-operations literature the
  // paper cites) plus done-detection and start/writeback selection.
  Graph g("gcd");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId aInit = g.addInput("a_init");
  const NodeId bInit = g.addInput("b_init");
  const NodeId start = g.addInput("start", 1);

  const NodeId t = g.addOp(OpKind::CmpGt, {a, b}, "t");
  const NodeId big = g.addMux(t, a, b, "big");
  const NodeId small = g.addMux(t, b, a, "small");
  const NodeId eq = g.addOp(OpKind::CmpEq, {big, small}, "eq");  // a==b
  const NodeId d = g.addOp(OpKind::Sub, {big, small}, "d");

  const NodeId aNext = g.addMux(eq, a, small, "a_next");  // min when not done
  const NodeId bInner = g.addMux(eq, b, d, "b_inner");    // diff when not done
  const NodeId bWb = g.addMux(start, bInit, bInner, "b_wb");
  const NodeId aWb = g.addMux(start, aInit, aNext, "a_wb");

  g.addOutput(aWb, "a_out");
  g.addOutput(bWb, "b_out");
  g.addOutput(aNext, "gcd_out");  // converged value is visible every cycle
  g.validate();
  return g;
}

Graph vender() {
  // Vending machine: coin valuation (two multipliers selected by coin
  // type), price check with change computation, and a display path with a
  // nested compare/select tree.
  Graph g("vender");
  const NodeId coin = g.addInput("coin", 1);
  const NodeId n = g.addInput("n_coins");
  const NodeId r5 = g.addInput("rate5");
  const NodeId r10 = g.addInput("rate10");
  const NodeId credit = g.addInput("credit");
  const NodeId price = g.addInput("price");
  const NodeId u = g.addInput("u");
  const NodeId v = g.addInput("v");
  const NodeId w = g.addInput("w");
  const NodeId z = g.addInput("z");

  // Coin value path (critical): v5/v10 -> vm -> tot -> ok -> out.
  const NodeId v5 = g.addOp(OpKind::Mul, {n, r5}, "v5");
  const NodeId v10 = g.addOp(OpKind::Mul, {n, r10}, "v10");
  const NodeId vm = g.addMux(coin, v5, v10, "vm");
  const NodeId tot = g.addOp(OpKind::Add, {vm, credit}, "tot");
  const NodeId ok = g.addOp(OpKind::CmpGt, {tot, price}, "ok");
  const NodeId ch = g.addOp(OpKind::Sub, {vm, price}, "ch");
  const NodeId mp = g.addMux(coin, w, z, "Mp");
  const NodeId out = g.addMux(ok, ch, mp, "dispense");

  // Display path: nested selection between two derived quantities.
  const NodeId c4 = g.addOp(OpKind::CmpGt, {u, v}, "c4");
  const NodeId c2 = g.addOp(OpKind::CmpGt, {w, z}, "c2");
  const NodeId aB = g.addOp(OpKind::Add, {w, z}, "a_b");
  const NodeId aC = g.addOp(OpKind::Add, {u, v}, "a_c");
  const NodeId sA = g.addOp(OpKind::Sub, {aB, u}, "s_a");
  const NodeId sB = g.addOp(OpKind::Sub, {aC, w}, "s_b");
  const NodeId mi = g.addMux(c2, sA, sB, "Mi");
  const NodeId mq = g.addMux(coin, z, w, "Mq");
  const NodeId o2 = g.addMux(c4, mi, mq, "display");

  g.addOutput(out, "dispense_out");
  g.addOutput(o2, "display_out");
  g.addOutput(tot, "credit_out");
  g.validate();
  return g;
}

Graph cordic() {
  // 16 rotation iterations. Update styles are mixed exactly so the op
  // inventory lands on Table I (47 MUX / 16 COMP / 43 + / 46 -):
  //   * z-updates, iterations 1-5: const-select (mux over pre-negated angle
  //     constants, then one adder);
  //   * z-updates, iterations 6-15: result-select (z+a and z-a, then mux);
  //   * x/y-updates: result-select, except iterations 1-2 which use
  //     operand-select through a negation subtractor (two SUBs, no ADD);
  //   * iterations 10-14 couple x to the freshly computed y (a serialized
  //     variant the authors' fixed-point code plausibly used), which is
  //     what stretches the critical path to 48 steps.
  // Shifts are compile-time constants, realized as free Wire nodes.
  constexpr int kIters = 16;
  Graph g("cordic");
  NodeId x = g.addInput("x0");
  NodeId y = g.addInput("y0");
  NodeId z = g.addInput("z0");
  const NodeId zero = g.addConst(0, 8, "zero");

  for (int i = 1; i <= kIters; ++i) {
    const std::string tag = std::string("_").append(std::to_string(i));
    const NodeId d = g.addOp(OpKind::CmpGe, {z, zero}, "d" + tag);

    const NodeId xs = g.addWire(x, i, "xs" + tag);
    const NodeId ys = g.addWire(y, i, "ys" + tag);

    NodeId xNew = kInvalidNode;
    NodeId yNew = kInvalidNode;
    if (i == 9 || i == kIters) {
      // Operand-select: negate the shifted operand, pick sign, apply.
      const NodeId negYs = g.addOp(OpKind::Sub, {zero, ys}, "neg_ys" + tag);
      const NodeId selX = g.addMux(d, negYs, ys, "selx" + tag);
      xNew = g.addOp(OpKind::Sub, {x, selX}, "x" + tag);
      const NodeId negXs = g.addOp(OpKind::Sub, {zero, xs}, "neg_xs" + tag);
      const NodeId selY = g.addMux(d, xs, negXs, "sely" + tag);
      yNew = g.addOp(OpKind::Sub, {y, selY}, "y" + tag);
    } else if (i >= 3 && i <= 8) {
      // Coupled result-select: x consumes the freshly updated y.
      const NodeId yp = g.addOp(OpKind::Add, {y, xs}, "yp" + tag);
      const NodeId ym = g.addOp(OpKind::Sub, {y, xs}, "ym" + tag);
      yNew = g.addMux(d, yp, ym, "y" + tag);
      const NodeId ysNew = g.addWire(yNew, i, "ysn" + tag);
      const NodeId xp = g.addOp(OpKind::Add, {x, ysNew}, "xp" + tag);
      const NodeId xm = g.addOp(OpKind::Sub, {x, ysNew}, "xm" + tag);
      xNew = g.addMux(d, xm, xp, "x" + tag);
    } else {
      // Plain result-select on the old state.
      const NodeId xp = g.addOp(OpKind::Add, {x, ys}, "xp" + tag);
      const NodeId xm = g.addOp(OpKind::Sub, {x, ys}, "xm" + tag);
      xNew = g.addMux(d, xm, xp, "x" + tag);
      const NodeId yp = g.addOp(OpKind::Add, {y, xs}, "yp" + tag);
      const NodeId ym = g.addOp(OpKind::Sub, {y, xs}, "ym" + tag);
      yNew = g.addMux(d, yp, ym, "y" + tag);
    }

    if (i <= kIters - 1) {  // iteration 16 does not update the angle
      NodeId zNew = kInvalidNode;
      if (i <= 5) {
        const NodeId aPos = g.addConst(64 >> i, 8, "ap" + tag);
        const NodeId aNeg = g.addConst(-(64 >> i), 8, "an" + tag);
        const NodeId sel = g.addMux(d, aNeg, aPos, "selz" + tag);
        zNew = g.addOp(OpKind::Add, {z, sel}, "z" + tag);
      } else {
        const NodeId aPos = g.addConst(64 >> (i % 7), 8, "ap" + tag);
        const NodeId zp = g.addOp(OpKind::Add, {z, aPos}, "zp" + tag);
        const NodeId zm = g.addOp(OpKind::Sub, {z, aPos}, "zm" + tag);
        zNew = g.addMux(d, zm, zp, "z" + tag);
      }
      z = zNew;
    }
    x = xNew;
    y = yNew;
  }

  g.addOutput(x, "cos_out");
  g.addOutput(y, "sin_out");
  g.validate();
  return g;
}

Graph diffeq() {
  // HAL benchmark: inner loop of y'' + 3xy' + 3y = 0 (Paulin & Knight).
  Graph g("diffeq");
  const NodeId x = g.addInput("x");
  const NodeId y = g.addInput("y");
  const NodeId u = g.addInput("u");
  const NodeId dx = g.addInput("dx");
  const NodeId a = g.addInput("a");
  const NodeId three = g.addConst(3, 8, "three");

  const NodeId m1 = g.addOp(OpKind::Mul, {three, x}, "m1");
  const NodeId m2 = g.addOp(OpKind::Mul, {u, dx}, "m2");
  const NodeId m3 = g.addOp(OpKind::Mul, {three, y}, "m3");
  const NodeId m4 = g.addOp(OpKind::Mul, {m1, m2}, "m4");   // 3x*u*dx
  const NodeId m5 = g.addOp(OpKind::Mul, {m3, dx}, "m5");   // 3y*dx
  const NodeId m6 = g.addOp(OpKind::Mul, {u, dx}, "m6");
  const NodeId s1 = g.addOp(OpKind::Sub, {u, m4}, "s1");
  const NodeId u1 = g.addOp(OpKind::Sub, {s1, m5}, "u1");   // next u
  const NodeId y1 = g.addOp(OpKind::Add, {y, m6}, "y1");    // next y
  const NodeId x1 = g.addOp(OpKind::Add, {x, dx}, "x1");    // next x
  const NodeId c = g.addOp(OpKind::CmpLt, {x1, a}, "c");    // loop test

  g.addOutput(u1, "u_out");
  g.addOutput(y1, "y_out");
  g.addOutput(x1, "x_out");
  g.addOutput(c, "continue");
  g.validate();
  return g;
}

Graph fir8() {
  // y = sum(c_i * x_i) over an 8-deep delay line; coefficients folded into
  // constant multiplier operands. Balanced adder-tree reduction.
  Graph g("fir8");
  std::vector<NodeId> taps;
  for (int i = 0; i < 8; ++i) taps.push_back(g.addInput(std::string("x").append(std::to_string(i))));
  std::vector<NodeId> products;
  for (int i = 0; i < 8; ++i) {
    const NodeId c = g.addConst(1 + 2 * i, 8, std::string("c").append(std::to_string(i)));
    products.push_back(
        g.addOp(OpKind::Mul, {taps[static_cast<std::size_t>(i)], c},
                std::string("p").append(std::to_string(i))));
  }
  // Tree reduction keeps the critical path logarithmic.
  std::vector<NodeId> level = products;
  int stage = 0;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(g.addOp(OpKind::Add, {level[i], level[i + 1]},
                             std::string("s").append(std::to_string(stage)) + "_" + std::to_string(i / 2)));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
    ++stage;
  }
  g.addOutput(level.front(), "y");
  g.validate();
  return g;
}

Graph arf() {
  // Auto-regressive lattice filter: the multiplier-dominated HLS benchmark
  // (16 multiplications, 12 additions in the classic formulation).
  Graph g("arf");
  std::vector<NodeId> in;
  for (int i = 0; i < 4; ++i) in.push_back(g.addInput("in" + std::to_string(i)));
  auto k = [&](int i) { return g.addConst(3 + i, 8, std::string("k").append(std::to_string(i))); };
  auto mul = [&](NodeId a, NodeId b, const char* name) {
    return g.addOp(OpKind::Mul, {a, b}, name);
  };
  auto add = [&](NodeId a, NodeId b, const char* name) {
    return g.addOp(OpKind::Add, {a, b}, name);
  };

  const NodeId m1 = mul(in[0], k(0), "m1");
  const NodeId m2 = mul(in[1], k(1), "m2");
  const NodeId m3 = mul(in[2], k(2), "m3");
  const NodeId m4 = mul(in[3], k(3), "m4");
  const NodeId a1 = add(m1, m2, "a1");
  const NodeId a2 = add(m3, m4, "a2");
  const NodeId m5 = mul(a1, k(4), "m5");
  const NodeId m6 = mul(a1, k(5), "m6");
  const NodeId m7 = mul(a2, k(6), "m7");
  const NodeId m8 = mul(a2, k(7), "m8");
  const NodeId a3 = add(m5, m7, "a3");
  const NodeId a4 = add(m6, m8, "a4");
  const NodeId m9 = mul(a3, k(8), "m9");
  const NodeId m10 = mul(a3, k(9), "m10");
  const NodeId m11 = mul(a4, k(10), "m11");
  const NodeId m12 = mul(a4, k(11), "m12");
  const NodeId a5 = add(m9, m11, "a5");
  const NodeId a6 = add(m10, m12, "a6");
  const NodeId m13 = mul(a5, k(12), "m13");
  const NodeId m14 = mul(a5, k(13), "m14");
  const NodeId m15 = mul(a6, k(14), "m15");
  const NodeId m16 = mul(a6, k(15), "m16");
  const NodeId a7 = add(m13, m15, "a7");
  const NodeId a8 = add(m14, m16, "a8");
  g.addOutput(a7, "out0");
  g.addOutput(a8, "out1");
  g.validate();
  return g;
}

Graph ewf() {
  // Fifth-order elliptic wave filter (34 add, 8 mul). This follows the
  // serial feedback formulation, so its critical path (42) is deeper than
  // the classic parallel EWF graph; as a scheduler workload that is the
  // point — a long, skinny dependence chain. Pure dataflow, no
  // conditionals.
  Graph g("ewf");
  const NodeId in = g.addInput("in");
  std::array<NodeId, 9> sv{};
  for (int i = 0; i < 9; ++i) sv[static_cast<std::size_t>(i)] =
      g.addInput("sv" + std::to_string(i));
  auto add = [&](NodeId l, NodeId r) { return g.addOp(OpKind::Add, {l, r}); };
  auto mul = [&](NodeId l) {
    const NodeId k = g.addConst(3, 8);
    return g.addOp(OpKind::Mul, {l, k});
  };

  // Topology after Kung/Whitehouse; constant coefficients folded into mul
  // nodes. Node naming follows the usual n1..n34 numbering loosely.
  const NodeId n1 = add(in, sv[0]);
  const NodeId n2 = add(n1, sv[1]);
  const NodeId n3 = add(n2, sv[2]);
  const NodeId m1 = mul(n3);
  const NodeId n4 = add(m1, sv[3]);
  const NodeId n5 = add(n4, sv[4]);
  const NodeId m2 = mul(n5);
  const NodeId n6 = add(m2, n2);
  const NodeId n7 = add(n6, sv[5]);
  const NodeId m3 = mul(n7);
  const NodeId n8 = add(m3, n4);
  const NodeId n9 = add(n8, n6);
  const NodeId m4 = mul(n9);
  const NodeId n10 = add(m4, sv[6]);
  const NodeId n11 = add(n10, n8);
  const NodeId m5 = mul(n11);
  const NodeId n12 = add(m5, n10);
  const NodeId n13 = add(n12, sv[7]);
  const NodeId m6 = mul(n13);
  const NodeId n14 = add(m6, n12);
  const NodeId n15 = add(n14, sv[8]);
  const NodeId m7 = mul(n15);
  const NodeId n16 = add(m7, n14);
  const NodeId n17 = add(n16, n13);
  const NodeId m8 = mul(n17);
  const NodeId n18 = add(m8, n16);
  const NodeId n19 = add(n18, n15);
  const NodeId n20 = add(n19, n17);
  const NodeId n21 = add(n20, n11);
  const NodeId n22 = add(n21, n9);
  const NodeId n23 = add(n22, n7);
  const NodeId n24 = add(n23, n5);
  const NodeId n25 = add(n24, n3);
  const NodeId n26 = add(n25, n1);
  const NodeId n27 = add(n26, in);
  const NodeId n28 = add(n27, n19);
  const NodeId n29 = add(n28, n21);
  const NodeId n30 = add(n29, n23);
  const NodeId n31 = add(n30, n25);
  const NodeId n32 = add(n31, n27);
  const NodeId n33 = add(n32, n28);
  const NodeId n34 = add(n33, n30);

  g.addOutput(n34, "out");
  g.addOutput(n26, "sv_fb0");
  g.addOutput(n33, "sv_fb1");
  g.validate();
  return g;
}

const std::vector<NamedCircuit>& paperCircuits() {
  static const std::vector<NamedCircuit> kCircuits = {
      {"dealer", dealer},
      {"gcd", gcd},
      {"vender", vender},
      {"cordic", cordic},
  };
  return kCircuits;
}

std::vector<int> tableIISteps(std::string_view circuitName) {
  if (circuitName == "dealer") return {4, 5, 6};
  if (circuitName == "gcd") return {5, 6, 7};
  if (circuitName == "vender") return {5, 6};
  if (circuitName == "cordic") return {48, 52};
  throw std::invalid_argument("tableIISteps: unknown circuit '" + std::string(circuitName) +
                              "'");
}

}  // namespace circuits
}  // namespace pmsched
