// Differential tests: TimeFrameOracle's push/pop/commit frame repair must
// be bit-identical to from-scratch computeTimeFrames() under randomized
// tentative-edge batches — on the built-in circuits, on seeded random DFGs,
// with unit and multi-cycle latency models, and across nesting depths, up
// to 512x16 graphs with batch edges against the topo order. The slack
// verdict tryCommit() must commit exactly the batches push/feasible finds
// feasible, leave the frames alone on a reject, and throw push()'s message
// on a cycle — fast path and fallback alike, on one-source and one-target
// batches. closesCycle() must agree with a plain DFS over the live edges.

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

/// Whether push/feasible/pop finds `batch` feasible; nullopt when push
/// throws (the batch closes a cycle), with the message in `error`.
std::optional<bool> feasibleByPush(TimeFrameOracle& oracle, const std::vector<Edge>& batch,
                                   std::string& error) {
  try {
    oracle.push(batch);
  } catch (const SynthesisError& e) {
    error = e.what();
    return std::nullopt;
  }
  const bool feasible = oracle.feasible();
  EXPECT_EQ(feasible, !oracle.firstInfeasible().has_value());
  oracle.pop();
  return feasible;
}

/// Check tryCommit() on `batch` against push: it commits exactly the
/// feasible batches, a reject leaves every frame as it was, and a cycle
/// throws push()'s message. Returns the push answer (nullopt on a cycle).
std::optional<bool> expectVerdictMatchesPush(TimeFrameOracle& oracle,
                                             const std::vector<Edge>& batch,
                                             const std::string& what) {
  std::string error;
  const std::optional<bool> feasible = feasibleByPush(oracle, batch, error);
  TimeFrameOracle pushed = oracle;  // the committed state tryCommit must reach
  if (feasible.value_or(false)) {
    pushed.push(batch);
    pushed.commit();
  }
  try {
    const TimeFrameOracle::CommitVerdict verdict = oracle.tryCommit(batch);
    EXPECT_TRUE(feasible.has_value()) << what << ": tryCommit accepted a cycle";
    EXPECT_EQ(verdict == TimeFrameOracle::CommitVerdict::Committed, feasible.value_or(false))
        << what;
  } catch (const SynthesisError& e) {
    EXPECT_FALSE(feasible.has_value()) << what << ": " << e.what();
    EXPECT_EQ(std::string(e.what()), error) << what;
  }
  EXPECT_EQ(oracle.depth(), 0u) << what;
  const TimeFrames committed = oracle.frames();
  const TimeFrames expected = pushed.frames();
  EXPECT_EQ(committed.asap, expected.asap) << what;
  EXPECT_EQ(committed.alap, expected.alap) << what;
  return feasible;
}

/// Tallies of the verdicts a sequence of batches drew.
struct VerdictCounts {
  int accepts = 0;
  int rejects = 0;
  int cycles = 0;
};

/// Check one batch against push and tally it.
void checkAndCount(TimeFrameOracle& oracle, const std::vector<Edge>& batch,
                   const std::string& what, VerdictCounts& counts) {
  if (batch.empty()) return;
  const std::optional<bool> feasible = expectVerdictMatchesPush(oracle, batch, what);
  if (!feasible) ++counts.cycles;
  else if (*feasible) ++counts.accepts;
  else ++counts.rejects;
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushOnRandomSingleSourceBatches) {
  // Random committed states: tryCommit commits every feasible batch, so later
  // batches are judged against a growing set of extra edges.
  VerdictCounts counts;
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Graph g = randomLayeredDfg(4 + static_cast<int>(seed % 5) * 3, 6, seed);
      for (const int slack : {0, 2, 6}) {
        const int steps = minSteps(g, model) + slack;
        TimeFrameOracle oracle(g, steps, model);
        ASSERT_TRUE(oracle.slackExact());
        std::mt19937_64 rng(seed * 977 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 60; ++round) {
          checkAndCount(oracle, randomSingleSourceBatch(g, rng),
                        "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                            " round " + std::to_string(round),
                        counts);
          if (HasFailure()) return;
        }
      }
    }
  }
  // The draw must exercise accepts, rejects and the cycle check.
  EXPECT_GT(counts.accepts, 100);
  EXPECT_GT(counts.rejects, 100);
  EXPECT_GT(counts.cycles, 10);
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushOnTransformBatches) {
  // The transform's own batches (select producer -> gated tops), offered
  // in order on a realistic graph at tight and loose budgets.
  const Graph g = randomLayeredDfg(64, 8, 7);
  GatedSetFinder finder(g);
  for (const int slack : {0, 2, 8}) {
    const int steps = criticalPathLength(g) + slack;
    TimeFrameOracle oracle(g, steps);
    VerdictCounts counts;
    for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
      const GatedSets sets = finder.find(m);
      const NodeId ctrl = traceSelectProducer(g, m);
      if (!isScheduled(g.kind(ctrl))) continue;
      std::vector<Edge> batch;
      for (const NodeId t : sets.topTrue) batch.emplace_back(ctrl, t);
      for (const NodeId t : sets.topFalse) batch.emplace_back(ctrl, t);
      checkAndCount(oracle, batch, "mux " + g.node(m).name, counts);
      if (HasFailure()) return;
    }
    EXPECT_GT(counts.accepts, 0) << slack;
    if (slack == 0) {
      EXPECT_GT(counts.rejects, 0);
    }
  }
}

TEST(TimeFrameOracle, TryCommitThrowsPushsMessageOnACycle) {
  // a -> b -> c; the batch c -> {d, a} closes c -> a -> b -> c, and it is
  // also over budget, so only the cycle check can tell it from a reject.
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
  EXPECT_FALSE(feasibleByPush(oracle, {{c, d}, {c, a}}, error).has_value());
  EXPECT_EQ(error, "power-transform: extra edges create a cycle");
  EXPECT_FALSE(expectVerdictMatchesPush(oracle, {{c, d}, {c, a}}, "cycle").has_value());
  // Without the cycle-closing edge the batch is a plain reject.
  EXPECT_EQ(expectVerdictMatchesPush(oracle, {{c, d}}, "c -> d"), std::optional<bool>(false));
  // The same cycle on a state whose frames fit: push() itself throws.
  TimeFrameOracle loose(g, 8, LatencyModel::unit(), "power-transform");
  EXPECT_FALSE(expectVerdictMatchesPush(loose, {{c, a}}, "cycle at 8").has_value());
}

/// A scheduled zero-cycle kind: multipliers take no cycle.
LatencyModel zeroCycleMultiplier() {
  LatencyModel model = LatencyModel::unit();
  model.cycles[unitIndex(ResourceClass::Multiplier)] = 0;
  return model;
}

TEST(TimeFrameOracle, ZeroCycleModelTakesTheFallback) {
  // A zero-cycle scheduled kind weighs its edges differently in the two
  // recurrences; the slack lemma does not hold, and tryCommit() must fall
  // back to push/pop and still answer exactly.
  const LatencyModel model = zeroCycleMultiplier();
  VerdictCounts counts;
  for (std::uint64_t seed = 3; seed < 9; ++seed) {
    const Graph g = randomLayeredDfg(8, 6, seed);
    if (g.nodesOfKind(OpKind::Mul).empty()) continue;
    const int steps = minSteps(g, model) + 1;
    TimeFrameOracle oracle(g, steps, model);
    EXPECT_FALSE(oracle.slackExact());
    EXPECT_TRUE(TimeFrameOracle(g, steps).slackExact());
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 30; ++round) {
      checkAndCount(oracle, randomSingleSourceBatch(g, rng),
                    "zero-cycle round " + std::to_string(round), counts);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(counts.accepts, 0);
  EXPECT_GT(counts.rejects, 0);
  EXPECT_GT(counts.cycles, 0);
}

/// Does `from` reach `to` over data, control and `extra` edges?
bool reachesInGraph(const Graph& g, NodeId from, NodeId to, const std::vector<Edge>& extra = {}) {
  std::vector<std::vector<NodeId>> extraSucc(g.size());
  for (const auto& [a, b] : extra) extraSucc[a].push_back(b);
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
    for (const NodeId s : extraSucc[v]) stack.push_back(s);
  }
  return false;
}

/// Adds up to three graph control edges from a late scheduled node to an
/// early one that does not reach it. Such edges run against id order, so
/// paths (and cycles) leave the data edges' id structure. Returns how many
/// it added.
int addBackwardControlEdges(Graph& g, std::mt19937_64& rng) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  int added = 0;
  for (int tries = 0; tries < 200 && added < 3; ++tries) {
    const NodeId late = ops[ops.size() / 2 + rng() % (ops.size() - ops.size() / 2)];
    const NodeId early = ops[rng() % (ops.size() / 2)];
    if (reachesInGraph(g, early, late)) continue;
    g.addControlEdge(late, early);
    ++added;
  }
  return added;
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushWithBackwardControlEdges) {
  VerdictCounts counts;
  int withEdges = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = randomLayeredDfg(12, 6, seed);
    std::mt19937_64 rng(seed);
    if (addBackwardControlEdges(g, rng) == 0) continue;
    ++withEdges;
    for (const int slack : {0, 2, 6}) {
      TimeFrameOracle oracle(g, minSteps(g, LatencyModel::unit()) + slack);
      for (int round = 0; round < 40; ++round) {
        checkAndCount(oracle, randomSingleSourceBatch(g, rng),
                      "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                          " round " + std::to_string(round),
                      counts);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(withEdges, 5);
  EXPECT_GT(counts.rejects, 50);
  EXPECT_GT(counts.cycles, 0);
}

// ---- one-target batches (shared gating) ---------------------------------------

/// A batch the way shared gating builds it: 1-4 distinct scheduled sources,
/// drawn anywhere (so some batches close a cycle), into one target.
std::vector<Edge> randomSingleTargetBatch(const Graph& g, std::mt19937_64& rng) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
  const NodeId t = ops[pick(rng)];
  std::vector<Edge> batch;
  for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
    const Edge e{ops[pick(rng)], t};
    if (e.first != t && std::find(batch.begin(), batch.end(), e) == batch.end())
      batch.push_back(e);
  }
  return batch;
}

TEST(TimeFrameOracle, ClosesCycleMatchesDfsOnOneTargetBatches) {
  // A one-target batch closes a cycle exactly when its target already
  // reaches one of its sources, over data, graph control and committed
  // edges. Each source is a new walk target, so a walk must not read the
  // stamps an earlier source's walk left: the batches whose only
  // reachable source comes after an unreachable one catch that.
  int cycles = 0;
  int laterSourceOnly = 0;
  int withControlEdges = 0;
  for (const LatencyModel& model :
       {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2), zeroCycleMultiplier()}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Graph g = randomLayeredDfg(6 + static_cast<int>(seed % 4) * 4, 6, seed);
      std::mt19937_64 edgeRng(seed);
      if (seed % 2 == 0 && addBackwardControlEdges(g, edgeRng) > 0) ++withControlEdges;
      for (const int slack : {0, 3}) {
        TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
        std::vector<Edge> live;  // committed so far
        std::mt19937_64 rng(seed * 131 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 80; ++round) {
          const std::vector<Edge> batch = randomSingleTargetBatch(g, rng);
          const std::string what = "seed " + std::to_string(seed) + " +" +
                                   std::to_string(slack) + " round " + std::to_string(round);
          std::vector<bool> reach;
          for (const auto& [source, target] : batch)
            reach.push_back(reachesInGraph(g, target, source, live));
          const bool want = std::find(reach.begin(), reach.end(), true) != reach.end();
          const std::vector<int> before = oracle.frames().asap;
          ASSERT_EQ(oracle.closesCycle(batch), want) << what;
          ASSERT_EQ(oracle.frames().asap, before) << what;
          if (want) {
            ++cycles;
            if (!reach.front()) ++laterSourceOnly;
          } else if (oracle.tryCommit(batch) == TimeFrameOracle::CommitVerdict::Committed) {
            live.insert(live.end(), batch.begin(), batch.end());
          }
        }
      }
    }
  }
  EXPECT_GT(cycles, 200);
  EXPECT_GT(laterSourceOnly, 50);
  EXPECT_GT(withControlEdges, 6);
}

TEST(TimeFrameOracle, SlackVerdictsMatchPushOnOneTargetBatches) {
  // Shared gating's batches through the widened fast path, and through the
  // push/pop fallback under a zero-cycle model.
  for (const LatencyModel& model :
       {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2), zeroCycleMultiplier()}) {
    VerdictCounts counts;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Graph g = randomLayeredDfg(4 + static_cast<int>(seed % 5) * 3, 6, seed);
      for (const int slack : {0, 2, 6}) {
        TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
        std::mt19937_64 rng(seed * 389 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 60; ++round) {
          checkAndCount(oracle, randomSingleTargetBatch(g, rng),
                        "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                            " round " + std::to_string(round),
                        counts);
          if (HasFailure()) return;
        }
      }
    }
    EXPECT_GT(counts.accepts, 50);
    EXPECT_GT(counts.rejects, 50);
    EXPECT_GT(counts.cycles, 10);
  }
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

TEST(TimeFrameOracle, SlackVerdictsMatchPushOverLongCommitSequences) {
  // One oracle per graph takes hundreds of batches, half of them forward
  // and half drawn anywhere: every verdict reads frames that many earlier
  // commits moved.
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    VerdictCounts counts;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = randomLayeredDfg(40, 8, seed);
      for (const int slack : {0, 1, 2}) {
        TimeFrameOracle oracle(g, minSteps(g, model) + slack, model);
        std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(slack));
        for (int round = 0; round < 250; ++round) {
          checkAndCount(oracle,
                        rng() % 2 == 0 ? forwardSingleSourceBatch(g, rng)
                                       : randomSingleSourceBatch(g, rng),
                        "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                            " round " + std::to_string(round),
                        counts);
          if (HasFailure()) return;
        }
      }
    }
    EXPECT_GT(counts.accepts, 300);
    EXPECT_GT(counts.rejects, 300);
  }
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
        checkAndCount(oracle, batch,
                      "seed " + std::to_string(seed) + " +" + std::to_string(slack) +
                          " round " + std::to_string(round),
                      counts);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(wireTargets, 500);
  EXPECT_GT(counts.rejects, 100);
  EXPECT_GT(counts.accepts, 100);
}

// ---- realistic sizes ---------------------------------------------------------

/// Extra edges between scheduled nodes, about half of them running against
/// the cached topo order. None closes a cycle with the graph or `live`.
std::vector<Edge> mixedBatch(const Graph& g, const std::vector<Edge>& live, std::mt19937_64& rng,
                             int count, int& againstOrder) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::vector<std::uint32_t> pos(g.size());
  const std::span<const NodeId> order = g.topoOrderView();
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<Edge> batch;
  std::vector<std::vector<NodeId>> extraSucc(g.size());
  for (const auto& [a, b] : live) extraSucc[a].push_back(b);
  // Does `from` reach `to` over the graph, `live` and the batch so far?
  auto reaches = [&](NodeId from, NodeId to) {
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
      for (const NodeId s : extraSucc[v]) stack.push_back(s);
    }
    return false;
  };
  while (static_cast<int>(batch.size()) < count) {
    // Nearby pairs keep the edges tight enough to move frames.
    const std::size_t i = rng() % ops.size();
    const std::size_t j = std::min(ops.size() - 1, i + 1 + rng() % 64);
    NodeId a = ops[i];
    NodeId b = ops[j];
    if (a == b) continue;
    if (rng() % 2 == 0) std::swap(a, b);
    if (reaches(b, a)) continue;
    if (pos[a] > pos[b]) ++againstOrder;
    batch.emplace_back(a, b);
    extraSucc[a].push_back(b);
  }
  return batch;
}

TEST(TimeFrameOracle, RandomSequencesAtRealisticSizes) {
  struct Case {
    int layers, perLayer;
    std::uint64_t seed;
  };
  int againstOrder = 0;
  int infeasible = 0;
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)}) {
    for (const Case c : {Case{256, 16, 1}, Case{256, 16, 2}, Case{512, 16, 3}}) {
      const Graph g = randomLayeredDfg(c.layers, c.perLayer, c.seed);
      const int steps = minSteps(g, model) + 2;
      std::mt19937_64 rng(c.seed * 97 + static_cast<std::uint64_t>(model.latencyOf(OpKind::Mul)));
      TimeFrameOracle oracle(g, steps, model);
      std::vector<std::vector<Edge>> stack;  // committed batches first, then open ones
      std::size_t committed = 0;
      const std::string name = std::to_string(c.layers) + "x" + std::to_string(c.perLayer) +
                               ":" + std::to_string(c.seed) + " lat*" +
                               std::to_string(model.latencyOf(OpKind::Mul));
      for (int round = 0; round < 24; ++round) {
        const std::string what = name + " round " + std::to_string(round);
        const std::vector<Edge> batch = mixedBatch(g, flatten(stack), rng, 1 + round % 4,
                                                   againstOrder);
        oracle.push(batch);
        stack.push_back(batch);
        expectFramesMatch(g, oracle, stack, steps, model, what + " push");
        if (!oracle.feasible()) ++infeasible;
        const int action = static_cast<int>(rng() % 3);
        if (action == 0 && oracle.depth() == 1 && oracle.feasible()) {
          oracle.commit();
          ++committed;
        } else if (action == 1 && oracle.depth() < 3) {
          continue;  // stay open: the next push stacks on it
        } else {
          oracle.pop();
          stack.pop_back();
          expectFramesMatch(g, oracle, stack, steps, model, what + " pop");
        }
        ASSERT_EQ(stack.size(), committed + oracle.depth()) << what;
        if (HasFailure()) return;
      }
      // Probes at this size abort early; pop must still restore exactly.
      for (int round = 0; round < 8; ++round) {
        while (oracle.depth() > 0) {
          oracle.pop();
          stack.pop_back();
        }
        const std::vector<Edge> batch = mixedBatch(g, flatten(stack), rng, 4, againstOrder);
        stack.push_back(batch);
        const bool expected = computeTimeFrames(g, steps, flatten(stack), model).feasible(g);
        stack.pop_back();
        oracle.push(batch, /*probe=*/true);
        ASSERT_EQ(oracle.feasible(), expected) << name << " probe " << round;
        oracle.pop();
        expectFramesMatch(g, oracle, stack, steps, model, name + " probe restore");
      }
    }
  }
  EXPECT_GT(againstOrder, 100);
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace pmsched
