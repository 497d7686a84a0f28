// Differential tests: TimeFrameOracle's push/pop/commit frame repair must
// be bit-identical to from-scratch computeTimeFrames() under randomized
// tentative-edge batches — on the built-in circuits, on seeded random DFGs,
// with unit and multi-cycle latency models, and across nesting depths. The
// slack verdicts explainReject()/tryCommit() must answer exactly what
// push/feasible/firstInfeasible/pop answer, with the reject walk's id bound
// in force and with control edges that switch it off.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/power_transform.hpp"
#include "sched/timeframe.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

using Edge = TimeFrameOracle::Edge;

std::vector<Graph> allCircuits() {
  std::vector<Graph> out;
  for (const auto& entry : circuits::paperCircuits()) out.push_back(entry.build());
  out.push_back(circuits::cordic());
  out.push_back(circuits::diffeq());
  out.push_back(circuits::fir8());
  return out;
}

/// All live edges of a batch stack, flattened for the reference computation.
std::vector<Edge> flatten(const std::vector<std::vector<Edge>>& stack) {
  std::vector<Edge> all;
  for (const auto& batch : stack) all.insert(all.end(), batch.begin(), batch.end());
  return all;
}

void expectFramesMatch(const Graph& g, TimeFrameOracle& oracle,
                       const std::vector<std::vector<Edge>>& stack, int steps,
                       const LatencyModel& model, const std::string& what) {
  const TimeFrames ref = computeTimeFrames(g, steps, flatten(stack), model);
  // feasible() must agree before any lazy ALAP flush happens.
  ASSERT_EQ(oracle.feasible(), ref.feasible(g)) << what;
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(oracle.asap(n), ref.asap[n]) << what << ": asap of '" << g.node(n).name << "'";
  // ALAP reads flush the lazy backward repair of every open batch — at any
  // depth.
  const TimeFrames tf = oracle.frames();
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(tf.alap[n], ref.alap[n]) << what << ": alap of '" << g.node(n).name << "'";
  ASSERT_EQ(oracle.firstInfeasible(), ref.firstInfeasible(g)) << what;
}

/// Random acyclic extra edges between scheduled nodes: sources precede
/// targets in the cached topological order.
std::vector<Edge> randomBatch(const Graph& g, std::mt19937_64& rng, int count) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::vector<std::uint32_t> pos(g.size());
  const std::span<const NodeId> order = g.topoOrderView();
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<Edge> batch;
  if (ops.size() < 2) return batch;
  std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
  for (int i = 0; i < count; ++i) {
    NodeId a = ops[pick(rng)];
    NodeId b = ops[pick(rng)];
    if (a == b) continue;
    if (pos[a] > pos[b]) std::swap(a, b);
    batch.emplace_back(a, b);
  }
  return batch;
}

TEST(TimeFrameOracle, InitialFramesMatchFromScratch) {
  for (const Graph& g : allCircuits()) {
    const int steps = criticalPathLength(g) + 3;
    TimeFrameOracle oracle(g, steps);
    expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(), g.name());
  }
}

TEST(TimeFrameOracle, PushPopCommitMatchesFromScratchOnCircuits) {
  for (const Graph& g : allCircuits()) {
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(7);
    TimeFrameOracle oracle(g, steps);
    std::vector<std::vector<Edge>> stack;

    for (int round = 0; round < 8; ++round) {
      std::vector<Edge> batch = randomBatch(g, rng, 2);
      oracle.push(batch);
      stack.push_back(batch);
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        g.name() + " push round " + std::to_string(round));
      if (round % 2 == 0) {
        oracle.pop();
        stack.pop_back();
        expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                          g.name() + " pop round " + std::to_string(round));
      } else if (oracle.depth() == 1 && oracle.feasible()) {
        oracle.commit();  // keep; the flattened stack keeps carrying it
      } else {
        oracle.pop();
        stack.pop_back();
      }
    }
  }
}

TEST(TimeFrameOracle, StackedBatchesOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = randomLayeredDfg(3 + static_cast<int>(seed % 5), 4, seed);
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(seed * 97);
    TimeFrameOracle oracle(g, steps);
    std::vector<std::vector<Edge>> stack;

    // Push three nested batches, verifying ASAP at every depth, then
    // unwind and verify the exact restore at each level.
    for (int depth = 0; depth < 3; ++depth) {
      std::vector<Edge> batch = randomBatch(g, rng, 3);
      oracle.push(batch);
      stack.push_back(std::move(batch));
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        "seed " + std::to_string(seed) + " depth " + std::to_string(depth));
    }
    while (oracle.depth() > 0) {
      oracle.pop();
      stack.pop_back();
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        "seed " + std::to_string(seed) + " unwind to depth " +
                            std::to_string(stack.size()));
    }
  }
}

TEST(TimeFrameOracle, MultiCycleLatencyModelMatches) {
  const LatencyModel model = LatencyModel::multiCycleMultiplier(3);
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    // Generous budget: multi-cycle multipliers stretch the critical path.
    const int steps = criticalPathLength(g) * 3 + 4;
    std::mt19937_64 rng(seed);
    TimeFrameOracle oracle(g, steps, model);
    std::vector<std::vector<Edge>> stack;
    for (int round = 0; round < 5; ++round) {
      std::vector<Edge> batch = randomBatch(g, rng, 2);
      oracle.push(batch);
      stack.push_back(batch);
      expectFramesMatch(g, oracle, stack, steps, model,
                        "multi-cycle seed " + std::to_string(seed));
      oracle.pop();
      stack.pop_back();
      expectFramesMatch(g, oracle, stack, steps, model,
                        "multi-cycle seed " + std::to_string(seed) + " after pop");
    }
  }
}

TEST(TimeFrameOracle, ProbeFeasibilityMatchesFromScratch) {
  // Probe batches may stop repairing early, but the feasibility verdict
  // must still equal the from-scratch answer, and pop must restore exactly.
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    const int steps = criticalPathLength(g) + 1;  // tight: rejections likely
    std::mt19937_64 rng(seed);
    TimeFrameOracle oracle(g, steps);
    for (int round = 0; round < 12; ++round) {
      const std::vector<Edge> batch = randomBatch(g, rng, 3);
      oracle.push(batch, /*probe=*/true);
      ASSERT_EQ(oracle.feasible(), computeTimeFrames(g, steps, batch).feasible(g))
          << "seed " << seed << " round " << round;
      oracle.pop();
      expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(),
                        "probe restore seed " + std::to_string(seed));
    }
  }
}

TEST(TimeFrameOracle, SourceLaterThanTargetInIdOrder) {
  // Mirror of timeframe.cpp's regression: the batch edge runs against node
  // id order, so the repair worklist must revisit instead of reading stale
  // values.
  Graph g("regress");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId early = g.addOp(OpKind::Add, {a, b}, "early");
  const NodeId late = g.addOp(OpKind::CmpGt, {a, b}, "late");
  const NodeId sink = g.addOp(OpKind::Add, {early, b}, "sink");
  g.addOutput(sink, "out");
  g.addOutput(late, "flag");

  TimeFrameOracle oracle(g, 4);
  const std::vector<Edge> batch{{late, early}};
  oracle.push(batch);
  EXPECT_EQ(oracle.asap(early), 2);
  EXPECT_EQ(oracle.asap(sink), 3);
  expectFramesMatch(g, oracle, {batch}, 4, LatencyModel::unit(), "late-source edge");
  oracle.pop();
  EXPECT_EQ(oracle.asap(early), 1);
}

TEST(TimeFrameOracle, AlapFlushUndoAttributionAcrossStackedBatches) {
  // Regression: reading ALAP with two batches open flushes the backward
  // repair over the FULL live edge set; the undo must be attributed so
  // that popping only the inner batch restores exactly the outer batch's
  // fixed point (an inner-batch-induced tightening logged into the outer
  // batch's undo would survive the pop as a stale ALAP).
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(seed * 131);
    TimeFrameOracle oracle(g, steps);

    std::vector<Edge> a = randomBatch(g, rng, 2);
    std::vector<Edge> b = randomBatch(g, rng, 2);
    oracle.push(a);
    oracle.push(b);
    // Flush ONLY at full depth (no intermediate reads): the repair runs
    // against a+b, which is the attribution-hostile schedule.
    (void)oracle.frames();
    oracle.pop();  // drop b
    expectFramesMatch(g, oracle, {{a}}, steps, LatencyModel::unit(),
                      "inner-pop seed " + std::to_string(seed));
    oracle.pop();  // drop a
    expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(),
                      "outer-pop seed " + std::to_string(seed));
  }
}

TEST(TimeFrameOracle, CyclicBatchThrowsAndRestores) {
  const Graph g = circuits::dealer();
  const int steps = criticalPathLength(g) + 2;
  TimeFrameOracle oracle(g, steps);
  const TimeFrames before = oracle.frames();

  const std::vector<NodeId> ops = g.scheduledNodes();
  ASSERT_GE(ops.size(), 2u);
  const std::vector<Edge> cyclic{{ops[0], ops[1]}, {ops[1], ops[0]}};
  EXPECT_THROW(oracle.push(cyclic), SynthesisError);

  // The failed push must leave no trace.
  EXPECT_EQ(oracle.depth(), 0u);
  const TimeFrames after = oracle.frames();
  EXPECT_EQ(before.asap, after.asap);
  EXPECT_EQ(before.alap, after.alap);
}

TEST(TimeFrameOracle, CommitRequiresSingleBatchAndPopMatchesPush) {
  const Graph g = circuits::absdiff();
  const int steps = criticalPathLength(g) + 1;
  TimeFrameOracle oracle(g, steps);
  EXPECT_THROW(oracle.pop(), SynthesisError);
  oracle.push({});
  oracle.push({});
  EXPECT_THROW(oracle.commit(), SynthesisError);  // depth 2
  oracle.pop();
  oracle.commit();
  EXPECT_EQ(oracle.depth(), 0u);
}

TEST(TimeFrameOracle, MatchesTentativeEdgeSemanticsOfTheTransform) {
  // The paper's Figure 1 example: at 2 steps the comparison cannot precede
  // the subtractions; at 3 steps it can.
  const Graph g = circuits::absdiff();
  const NodeId cmp = *g.findByName("a_gt_b");
  const std::vector<Edge> edges{{cmp, *g.findByName("a_minus_b")},
                                {cmp, *g.findByName("b_minus_a")}};
  TimeFrameOracle atTwo(g, 2);
  atTwo.push(edges);
  EXPECT_FALSE(atTwo.feasible());
  TimeFrameOracle atThree(g, 3);
  atThree.push(edges);
  EXPECT_TRUE(atThree.feasible());
  atThree.commit();
  expectFramesMatch(g, atThree, {edges}, 3, LatencyModel::unit(), "absdiff @3");
}

/// A batch the way the transform builds it: one source towards 1-4 other
/// scheduled nodes, drawn anywhere (so some batches close a cycle).
std::vector<Edge> randomSingleSourceBatch(const Graph& g, std::mt19937_64& rng) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
  const NodeId u = ops[pick(rng)];
  std::vector<Edge> batch;
  for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
    const NodeId t = ops[pick(rng)];
    if (t != u) batch.emplace_back(u, t);
  }
  return batch;
}

/// Fewest steps at which `g` schedules under `model`.
int minSteps(const Graph& g, const LatencyModel& model) {
  int steps = criticalPathLength(g);
  while (!computeTimeFrames(g, steps, {}, model).feasible(g)) ++steps;
  return steps;
}

/// What push/feasible/firstInfeasible/pop say about `batch`; nullopt when
/// push throws (the batch closes a cycle), with the message in `error`.
struct PushAnswer {
  bool feasible = false;
  std::optional<NodeId> firstInfeasible;
};
std::optional<PushAnswer> answerByPush(TimeFrameOracle& oracle, const std::vector<Edge>& batch,
                                       std::string& error) {
  try {
    oracle.push(batch);
  } catch (const SynthesisError& e) {
    error = e.what();
    return std::nullopt;
  }
  PushAnswer a{oracle.feasible(), oracle.firstInfeasible()};
  oracle.pop();
  return a;
}

/// Check explainReject() and then tryCommit() on `batch` against the push
/// answer: explainReject() never moves a frame, tryCommit() commits exactly
/// the feasible batches. Returns the push answer (nullopt on a cycle).
std::optional<PushAnswer> expectSlackVerdictsMatch(const Graph& g, TimeFrameOracle& oracle,
                              const std::vector<Edge>& batch, const std::string& what) {
  const TimeFrames before = oracle.frames();
  std::string error;
  const std::optional<PushAnswer> ref = answerByPush(oracle, batch, error);
  if (!ref) {
    try {
      (void)oracle.explainReject(batch);
      ADD_FAILURE() << what << ": explainReject accepted a cycle";
    } catch (const SynthesisError& e) {
      EXPECT_EQ(std::string(e.what()), error) << what;
    }
  } else {
    EXPECT_EQ(ref->feasible, !ref->firstInfeasible.has_value()) << what;
    const std::optional<NodeId> why = oracle.explainReject(batch);
    EXPECT_EQ(why, ref->firstInfeasible)
        << what << ": named " << (why ? g.node(*why).name : "nothing") << ", push names "
        << (ref->firstInfeasible ? g.node(*ref->firstInfeasible).name : "nothing");
  }
  const TimeFrames after = oracle.frames();
  EXPECT_EQ(before.asap, after.asap) << what;
  EXPECT_EQ(before.alap, after.alap) << what;

  TimeFrameOracle pushed = oracle;  // the committed state tryCommit must reach
  if (ref && ref->feasible) {
    pushed.push(batch);
    pushed.commit();
  }
  try {
    EXPECT_EQ(oracle.tryCommit(batch), ref ? ref->firstInfeasible : std::nullopt) << what;
    EXPECT_TRUE(ref.has_value()) << what << ": tryCommit accepted a cycle";
  } catch (const SynthesisError& e) {
    EXPECT_FALSE(ref.has_value()) << what << ": " << e.what();
    EXPECT_EQ(std::string(e.what()), error) << what;
  }
  EXPECT_EQ(oracle.depth(), 0u) << what;
  const TimeFrames committed = oracle.frames();
  const TimeFrames expected = pushed.frames();
  EXPECT_EQ(committed.asap, expected.asap) << what;
  EXPECT_EQ(committed.alap, expected.alap) << what;
  return ref;
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushOnRandomSingleSourceBatches) {
  // Random committed states: tryCommit commits every feasible batch, so later
  // batches are judged against a growing set of extra edges.
  int rejects = 0;
  int cycles = 0;
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Graph g = randomLayeredDfg(4 + static_cast<int>(seed % 5) * 3, 6, seed);
      for (const int slack : {0, 2, 6}) {
        const int steps = minSteps(g, model) + slack;
        TimeFrameOracle oracle(g, steps, model);
        ASSERT_TRUE(oracle.slackExact());
        std::mt19937_64 rng(seed * 977 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 60; ++round) {
          const std::vector<Edge> batch = randomSingleSourceBatch(g, rng);
          const std::string what = "seed " + std::to_string(seed) + " +" +
                                   std::to_string(slack) + " round " + std::to_string(round);
          const std::optional<PushAnswer> ref = expectSlackVerdictsMatch(g, oracle, batch, what);
          if (::testing::Test::HasFailure()) return;
          if (!ref) {
            ++cycles;
          } else if (!ref->feasible) {
            ++rejects;
          }
        }
      }
    }
  }
  // The draw must exercise both the slack walk and the cycle check.
  EXPECT_GT(rejects, 100);
  EXPECT_GT(cycles, 10);
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushOnTransformBatches) {
  // The transform's own batches (select producer -> gated tops), offered
  // in order on a realistic graph at tight and loose budgets.
  const Graph g = randomLayeredDfg(64, 8, 7);
  GatedSetFinder finder(g);
  for (const int slack : {0, 2, 8}) {
    const int steps = criticalPathLength(g) + slack;
    TimeFrameOracle oracle(g, steps);
    int accepted = 0;
    for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
      const GatedSets sets = finder.find(m);
      const NodeId ctrl = traceSelectProducer(g, m);
      if (!isScheduled(g.kind(ctrl))) continue;
      std::vector<Edge> batch;
      for (const NodeId t : sets.topTrue) batch.emplace_back(ctrl, t);
      for (const NodeId t : sets.topFalse) batch.emplace_back(ctrl, t);
      if (batch.empty()) continue;
      const std::optional<PushAnswer> ref =
          expectSlackVerdictsMatch(g, oracle, batch, "mux " + g.node(m).name);
      if (ref && ref->feasible) ++accepted;
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(accepted, 0) << slack;
  }
}

TEST(TimeFrameOracle, ExplainRejectThrowsPushsMessageOnACycle) {
  // a -> b -> c; the batch c -> {d, a} closes c -> a -> b -> c, and it is
  // also over budget, so only the cycle check can stop the slack walk.
  Graph g("cycle");
  const NodeId x = g.addInput("x");
  const NodeId y = g.addInput("y");
  const NodeId a = g.addOp(OpKind::Add, {x, y}, "a");
  const NodeId b = g.addOp(OpKind::Add, {a, y}, "b");
  const NodeId c = g.addOp(OpKind::CmpGt, {b, x}, "c");
  const NodeId d = g.addOp(OpKind::Sub, {x, y}, "d");
  g.addOutput(c, "flag");
  g.addOutput(d, "diff");

  TimeFrameOracle oracle(g, 3, LatencyModel::unit(), "power-transform");
  std::string error;
  EXPECT_FALSE(answerByPush(oracle, {{c, d}, {c, a}}, error).has_value());
  EXPECT_EQ(error, "power-transform: extra edges create a cycle");
  EXPECT_FALSE(expectSlackVerdictsMatch(g, oracle, {{c, d}, {c, a}}, "cycle").has_value());
  // Without the cycle-closing edge the batch is a plain reject.
  const std::optional<PushAnswer> plain = expectSlackVerdictsMatch(g, oracle, {{c, d}}, "c -> d");
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->feasible);
}

TEST(TimeFrameOracle, ZeroCycleModelTakesTheFallback) {
  // A zero-cycle scheduled kind weighs its edges differently in the two
  // recurrences; the slack lemma does not hold, and the queries must fall
  // back to push/pop and still answer exactly.
  LatencyModel model = LatencyModel::unit();
  model.cycles[unitIndex(ResourceClass::Multiplier)] = 0;
  int checked = 0;
  for (std::uint64_t seed = 3; seed < 9; ++seed) {
    const Graph g = randomLayeredDfg(8, 6, seed);
    if (g.nodesOfKind(OpKind::Mul).empty()) continue;
    const int steps = minSteps(g, model) + 1;
    TimeFrameOracle oracle(g, steps, model);
    EXPECT_FALSE(oracle.slackExact());
    EXPECT_TRUE(TimeFrameOracle(g, steps).slackExact());
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 30; ++round) {
      const std::vector<Edge> batch = randomSingleSourceBatch(g, rng);
      (void)expectSlackVerdictsMatch(g, oracle, batch, "zero-cycle round " + std::to_string(round));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// The id bound: explainReject() walks forward only below the backward walk's
// answer while no control edge lands below it. The cases below pin both
// sides of that condition, for graph control edges and committed edges.
// ---------------------------------------------------------------------------

/// Does `from` reach `to` over data and control edges?
bool reachesInGraph(const Graph& g, NodeId from, NodeId to) {
  std::vector<char> seen(g.size(), 0);
  std::vector<NodeId> stack{from};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    if (seen[v]) continue;
    seen[v] = 1;
    for (const NodeId s : g.fanouts(v)) stack.push_back(s);
    for (const NodeId s : g.controlSuccessors(v)) stack.push_back(s);
  }
  return false;
}

/// x (id 2) has a smaller id than the select producer u (id 3), and only
/// an edge t -> x — t is the batch's target, id 4 — puts x downstream of
/// the batch. With that edge the batch {u -> t} makes x infeasible, and x
/// is the node push() names; the backward walk from u alone would name u.
struct LowTargetCase {
  Graph g{"low_target"};
  NodeId x = kInvalidNode, u = kInvalidNode, t = kInvalidNode;
  explicit LowTargetCase(bool graphEdge) {
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    x = g.addOp(OpKind::Add, {a, b}, "x");
    u = g.addOp(OpKind::CmpGt, {a, b}, "u");
    t = g.addOp(OpKind::Sub, {a, b}, "t");
    g.addOutput(x, "x_out");
    g.addOutput(u, "u_out");
    g.addOutput(t, "t_out");
    if (graphEdge) g.addControlEdge(t, x);
  }
};

TEST(TimeFrameOracle, IdBoundAppliesWithoutControlEdges) {
  // No graph control edges and nothing committed: every reject takes the
  // bounded forward walk.
  int rejects = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = randomLayeredDfg(10 + static_cast<int>(seed) * 2, 6, seed);
    for (const int slack : {0, 2}) {
      TimeFrameOracle oracle(g, minSteps(g, LatencyModel::unit()) + slack);
      std::mt19937_64 rng(seed * 131 + static_cast<std::uint64_t>(slack));
      for (int round = 0; round < 80; ++round) {
        const std::vector<Edge> batch = randomSingleSourceBatch(g, rng);
        std::string error;
        const std::optional<PushAnswer> ref = answerByPush(oracle, batch, error);
        if (!ref || ref->feasible) continue;
        ++rejects;
        ASSERT_EQ(oracle.explainReject(batch), ref->firstInfeasible)
            << "seed " << seed << " +" << slack << " round " << round;
      }
    }
  }
  EXPECT_GT(rejects, 40);
}

TEST(TimeFrameOracle, IdBoundYieldsToALowControlTarget) {
  {  // A graph control edge lands below the backward walk's answer.
    const LowTargetCase c(/*graphEdge=*/true);
    TimeFrameOracle oracle(c.g, 2);
    const std::optional<PushAnswer> ref =
        expectSlackVerdictsMatch(c.g, oracle, {{c.u, c.t}}, "graph edge");
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->firstInfeasible, c.x);
  }
  {  // The same edge, committed instead of built into the graph.
    const LowTargetCase c(/*graphEdge=*/false);
    TimeFrameOracle oracle(c.g, 2);
    ASSERT_EQ(oracle.tryCommit(std::vector<Edge>{{c.t, c.x}}), std::nullopt);
    const std::optional<PushAnswer> ref =
        expectSlackVerdictsMatch(c.g, oracle, {{c.u, c.t}}, "committed edge");
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->firstInfeasible, c.x);
  }
  // Random DFGs with graph control edges from late nodes to early ones.
  int rejects = 0;
  int withEdges = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = randomLayeredDfg(12, 6, seed);
    const std::vector<NodeId> ops = g.scheduledNodes();
    std::mt19937_64 rng(seed);
    int added = 0;
    for (int tries = 0; tries < 200 && added < 3; ++tries) {
      const NodeId late = ops[ops.size() / 2 + rng() % (ops.size() - ops.size() / 2)];
      const NodeId early = ops[rng() % (ops.size() / 2)];
      if (reachesInGraph(g, early, late)) continue;
      g.addControlEdge(late, early);
      ++added;
    }
    if (added == 0) continue;
    ++withEdges;
    for (const int slack : {0, 2, 6}) {
      TimeFrameOracle oracle(g, minSteps(g, LatencyModel::unit()) + slack);
      for (int round = 0; round < 40; ++round) {
        const std::optional<PushAnswer> ref = expectSlackVerdictsMatch(
            g, oracle, randomSingleSourceBatch(g, rng),
            "seed " + std::to_string(seed) + " +" + std::to_string(slack) + " round " +
                std::to_string(round));
        if (HasFailure()) return;
        if (ref && !ref->feasible) ++rejects;
      }
    }
  }
  EXPECT_GT(withEdges, 5);
  EXPECT_GT(rejects, 50);
}

// ---------------------------------------------------------------------------
// The min-id table: explainReject() reads the backward answer of a reject
// whose largest excess is at most kSlackLevels from a per-node table, built
// once the backward walks have settled a graph's worth of nodes, repaired
// from the commits since the last reject, and dropped by pin(); above that
// excess it walks. The cases below take enough rejects per oracle to
// reach each of those states and check the verdicts against push.
// ---------------------------------------------------------------------------

/// Largest excess asap[u] + w(u,t) - alap[t] over the batch, read off the
/// committed frames (w is the frame recurrence's edge weight).
int maxExcess(const Graph& g, TimeFrameOracle& oracle, const std::vector<Edge>& batch,
              const LatencyModel& model) {
  auto weight = [&](NodeId a, NodeId b) {
    const int fromA = isScheduled(g.kind(a)) ? model.latencyOf(g.kind(a)) - 1 : 0;
    return fromA + (isScheduled(g.kind(b)) ? 1 : 0);
  };
  int excess = 0;
  for (const auto& [u, t] : batch)
    excess = std::max(excess, oracle.asap(u) + weight(u, t) - oracle.alap(t));
  return excess;
}

/// One source towards 1-4 of the next 16 scheduled nodes in the cached
/// topological order: never a cycle with other such batches, and a reject
/// overshoots by a few steps, as the transform's batches do.
std::vector<Edge> forwardSingleSourceBatch(const Graph& g, std::mt19937_64& rng) {
  const std::span<const NodeId> order = g.topoOrderView();
  std::vector<NodeId> later;
  std::vector<Edge> batch;
  const std::size_t at = rng() % order.size();
  const NodeId u = order[at];
  if (!isScheduled(g.kind(u))) return batch;
  for (std::size_t i = at + 1; i < order.size() && later.size() < 16; ++i)
    if (isScheduled(g.kind(order[i]))) later.push_back(order[i]);
  if (later.empty()) return batch;
  for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k)
    batch.emplace_back(u, later[rng() % later.size()]);
  return batch;
}

/// Half forward batches, half drawn anywhere (some close a cycle).
std::vector<Edge> mixedSingleSourceBatch(const Graph& g, std::mt19937_64& rng) {
  return rng() % 2 == 0 ? forwardSingleSourceBatch(g, rng) : randomSingleSourceBatch(g, rng);
}

/// Tallies of which path the verdicts took.
struct VerdictCounts {
  int tableRejects = 0;  ///< largest excess within the table's levels
  int walkRejects = 0;   ///< largest excess above them
  int accepts = 0;
};

/// Check one batch against push and tally it.
void checkAndCount(const Graph& g, TimeFrameOracle& oracle, const std::vector<Edge>& batch,
                   const LatencyModel& model, const std::string& what, VerdictCounts& counts) {
  if (batch.empty()) return;
  const int excess = maxExcess(g, oracle, batch, model);
  const std::optional<PushAnswer> ref = expectSlackVerdictsMatch(g, oracle, batch, what);
  if (!ref) return;
  if (ref->feasible) ++counts.accepts;
  else if (excess <= TimeFrameOracle::kSlackLevels) ++counts.tableRejects;
  else ++counts.walkRejects;
}

TEST(TimeFrameOracle, MinIdTableFollowsLongCommitSequences) {
  // One oracle per graph takes hundreds of batches; the first reject builds
  // the table and every later accept repairs it in place.
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    VerdictCounts counts;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = randomLayeredDfg(40, 8, seed);
      for (const int slack : {0, 1, 2}) {
        TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
        std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 250; ++round) {
          checkAndCount(g, oracle, mixedSingleSourceBatch(g, rng), model,
                        "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                            " round " + std::to_string(round),
                        counts);
          if (HasFailure()) return;
        }
      }
    }
    EXPECT_GT(counts.accepts, 300);
    EXPECT_GT(counts.tableRejects, 300);
  }
}

/// `chains` independent chains of `length` operations each, built one chain
/// after another, so ids grow chain by chain.
Graph parallelChains(int chains, int length, std::uint64_t seed) {
  Graph g("chains");
  std::mt19937_64 rng(seed);
  const OpKind kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul};
  for (int c = 0; c < chains; ++c) {
    const NodeId in = g.addInput("in" + std::to_string(c));
    NodeId v = in;
    for (int i = 0; i < length; ++i) v = g.addOp(kinds[rng() % 3], {v, in});
    g.addOutput(v, "out" + std::to_string(c));
  }
  return g;
}

/// One source in some chain towards 1-3 nodes of later chains: acyclic with
/// every other such batch, and a late source into an early target
/// overshoots by up to a chain's depth.
std::vector<Edge> crossChainBatch(const Graph& g, int chains, std::mt19937_64& rng) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  const std::size_t perChain = ops.size() / static_cast<std::size_t>(chains);
  const std::size_t from = rng() % (static_cast<std::size_t>(chains) - 1);
  const NodeId u = ops[from * perChain + rng() % perChain];
  std::vector<Edge> batch;
  for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
    const std::size_t to = from + 1 + rng() % (static_cast<std::size_t>(chains) - 1 - from);
    batch.emplace_back(u, ops[to * perChain + rng() % perChain]);
  }
  return batch;
}

TEST(TimeFrameOracle, ExcessAboveTableLevelsTakesTheWalk) {
  // Chains deeper than the table's levels at tight budgets: a late source
  // into an early target overshoots by more than kSlackLevels.
  VerdictCounts counts;
  constexpr int kChains = 6;
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = parallelChains(kChains, 24, seed);
      for (const int slack : {0, 3, 12}) {
        TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
        std::mt19937_64 rng(seed * 17 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 120; ++round) {
          checkAndCount(g, oracle, crossChainBatch(g, kChains, rng), model,
                        "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                            " round " + std::to_string(round),
                        counts);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(counts.walkRejects, 100);
  EXPECT_GT(counts.tableRejects, 100);
}

/// A layered DFG whose operands pass through wires a third of the time, so
/// transparent nodes sit between scheduled ones.
Graph wiredLayeredDfg(int layers, int perLayer, std::uint64_t seed) {
  Graph g("wired");
  std::mt19937_64 rng(seed);
  std::vector<NodeId> prev;
  for (int i = 0; i < perLayer; ++i) prev.push_back(g.addInput("in" + std::to_string(i)));
  std::vector<NodeId> all = prev;
  const OpKind kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul};
  for (int l = 0; l < layers; ++l) {
    std::vector<NodeId> layer;
    for (int i = 0; i < perLayer; ++i) {
      auto operand = [&] {
        const NodeId src = rng() % 3 != 0 ? prev[rng() % prev.size()] : all[rng() % all.size()];
        return rng() % 3 == 0 ? g.addWire(src, 1) : src;
      };
      const NodeId a = operand();
      const NodeId b = operand();
      layer.push_back(g.addOp(kinds[rng() % 3], {a, b}));
    }
    all.insert(all.end(), layer.begin(), layer.end());
    prev = std::move(layer);
  }
  for (const NodeId v : prev) g.addOutput(v, "out" + std::to_string(v));
  return g;
}

TEST(TimeFrameOracle, TransparentTopsWeighZero) {
  // Batches from a one-cycle op into wires: the new edge weighs 0, so a
  // target's excess is asap[u] - alap[t].
  const LatencyModel model = LatencyModel::unit();
  VerdictCounts counts;
  int wireTargets = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = wiredLayeredDfg(20, 6, seed);
    const std::vector<NodeId> wires = g.nodesOfKind(OpKind::Wire);
    const std::vector<NodeId> ops = g.scheduledNodes();
    ASSERT_FALSE(wires.empty());
    for (const int slack : {0, 2, 5}) {
      TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
      ASSERT_TRUE(oracle.slackExact());
      std::mt19937_64 rng(seed * 71 + static_cast<std::uint64_t>(slack));
      for (int round = 0; round < 120; ++round) {
        const NodeId u = ops[rng() % ops.size()];
        std::vector<Edge> batch;
        for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
          const NodeId t = rng() % 2 == 0 ? wires[rng() % wires.size()] : ops[rng() % ops.size()];
          if (t == u) continue;
          if (g.kind(t) == OpKind::Wire) ++wireTargets;
          batch.emplace_back(u, t);
        }
        checkAndCount(g, oracle, batch, model,
                      "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                          " round " + std::to_string(round),
                      counts);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(wireTargets, 500);
  EXPECT_GT(counts.tableRejects, 100);
  EXPECT_GT(counts.accepts, 100);
}

}  // namespace
}  // namespace pmsched
