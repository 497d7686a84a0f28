#include "sched/timeframe_oracle.hpp"

#include <algorithm>

#include "support/fault_injector.hpp"

namespace pmsched {

TimeFrameOracle::TimeFrameOracle(const Graph& g, int steps, const LatencyModel& model,
                                 std::string errorContext)
    : g_(g),
      steps_(steps),
      model_(model),
      ctx_(std::move(errorContext)),
      fanoutCsr_(g.fanoutCsr()),
      ctrlSuccCsr_(g.controlSuccCsr()),
      ctrlPredCsr_(g.controlPredCsr()) {
  if (steps <= 0) throw InfeasibleError(ctx_ + ": steps must be positive");

  const std::size_t n = g.size();
  sched_.resize(n);
  lat_.resize(n);
  latestStart_.resize(n);
  bound_ = 1;
  for (NodeId v = 0; v < n; ++v) {
    sched_[v] = isScheduled(g.kind(v));
    lat_[v] = sched_[v] ? model_.latencyOf(g.kind(v)) : 0;
    latestStart_[v] = sched_[v] ? steps - lat_[v] + 1 : steps;
    bound_ += lat_[v] + 1;  // loose DAG bound on any reachable asap value
    if (sched_[v] && lat_[v] == 0) slackExact_ = false;
  }

  topoPos_.resize(n);
  const std::span<const NodeId> order = g.topoOrderView();
  for (std::size_t i = 0; i < order.size(); ++i)
    topoPos_[order[i]] = static_cast<std::uint32_t>(i);

  asap_.assign(n, 0);
  alap_.assign(n, steps);
  pin_.assign(n, 0);
  xSucc_.resize(n);
  xPred_.resize(n);
  changedFlag_.assign(n, 0);
  inQueue_.assign(n, 0);
  walkStamp_.assign(n, 0);

  // Initial frames: the exact recurrences of computeTimeFrames() over the
  // cached topological order (no pins, no extra edges yet).
  for (const NodeId v : order) asap_[v] = recomputeAsap(v);
  for (auto it = order.rbegin(); it != order.rend(); ++it) alap_[*it] = recomputeAlap(*it);
  for (NodeId v = 0; v < n; ++v)
    if (sched_[v] && asap_[v] > latestStart_[v]) ++overEnd_;
}

int TimeFrameOracle::recomputeAsap(NodeId v) const {
  int avail = 0;
  auto relax = [&](NodeId p) {
    const int ready = sched_[p] ? asap_[p] + lat_[p] - 1 : asap_[p];
    if (ready > avail) avail = ready;
  };
  for (const NodeId p : g_.fanins(v)) relax(p);
  for (const NodeId p : ctrlPredCsr_.row(v)) relax(p);
  for (const NodeId p : xPred_[v]) relax(p);
  int value = sched_[v] ? avail + 1 : avail;
  if (pin_[v] != 0) {
    if (pin_[v] < value)
      throw InfeasibleError(ctx_ + ": pin below ASAP for '" + g_.node(v).name + "'");
    value = pin_[v];
  }
  return value;
}

int TimeFrameOracle::recomputeAlap(NodeId v) const {
  const bool schedV = sched_[v] != 0;
  const int latV = lat_[v];
  int latest = latestStart_[v];
  auto relax = [&](NodeId s) {
    if (sched_[s]) {
      // v must be ready before the scheduled consumer starts; a transparent
      // v relays a "value ready by" deadline one step before the start.
      latest = std::min(latest, schedV ? alap_[s] - latV : alap_[s] - 1);
    } else {
      latest = std::min(latest, alap_[s] - (latV > 0 ? latV - 1 : 0));
    }
  };
  for (const NodeId s : fanoutCsr_.row(v)) relax(s);
  for (const NodeId s : ctrlSuccCsr_.row(v)) relax(s);
  for (const NodeId s : xSucc_[v]) relax(s);
  int value = latest;
  if (pin_[v] != 0) {
    if (pin_[v] > value)
      throw InfeasibleError(ctx_ + ": pin above ALAP for '" + g_.node(v).name + "'");
    value = pin_[v];
  }
  return value;
}

void TimeFrameOracle::setAsap(NodeId v, int value) {
  if (sched_[v]) {
    const bool was = asap_[v] > latestStart_[v];
    const bool now = value > latestStart_[v];
    if (was != now) overEnd_ += now ? 1 : -1;
  }
  asap_[v] = value;
}

void TimeFrameOracle::setAlap(NodeId v, int value) { alap_[v] = value; }

void TimeFrameOracle::beginChangeEpoch() {
  for (const NodeId v : changed_) changedFlag_[v] = 0;
  changed_.clear();
}

void TimeFrameOracle::markChanged(NodeId v) {
  if (!changedFlag_[v]) {
    changedFlag_[v] = 1;
    changed_.push_back(v);
  }
}

TimeFrameOracle::RepairResult TimeFrameOracle::repairForward(std::span<const NodeId> seeds,
                                                             Batch* undo,
                                                             bool abortOnInfeasible) {
  // Adding precedence or pinning only raises ASAPs; a topo-ordered worklist
  // recomputes each affected node from final predecessor values. Batch
  // edges may run against the cached topo order (the source can sit later
  // in it than the target); the monotone recompute-and-re-enqueue loop
  // stays correct, it merely revisits such nodes.
  for (const NodeId v : seeds) enqueue(fwdQueue_, v);
  auto drain = [&] {
    while (!fwdQueue_.empty()) {
      inQueue_[fwdQueue_.top().second] = 0;
      fwdQueue_.pop();
    }
  };
  while (!fwdQueue_.empty()) {
    const NodeId v = fwdQueue_.top().second;
    fwdQueue_.pop();
    inQueue_[v] = 0;
    const int value = recomputeAsap(v);
    if (value == asap_[v]) continue;
    if (value > bound_) {
      // Values beyond the DAG bound mean the batch closed a cycle through a
      // scheduled node (the only kind the transform consumers can create).
      drain();
      return RepairResult::Cycle;
    }
    if (undo) undo->asapUndo.emplace_back(v, asap_[v]);
    setAsap(v, value);
    markChanged(v);
    if (abortOnInfeasible && overEnd_ > 0) {
      drain();
      return RepairResult::Infeasible;
    }
    for (const NodeId s : fanoutCsr_.row(v)) enqueue(fwdQueue_, s);
    for (const NodeId s : ctrlSuccCsr_.row(v)) enqueue(fwdQueue_, s);
    for (const NodeId s : xSucc_[v]) enqueue(fwdQueue_, s);
  }
  return RepairResult::Ok;
}

void TimeFrameOracle::repairBackward(std::span<const NodeId> seeds, Batch* undo) {
  // Only lowers ALAPs; reverse topological order.
  for (const NodeId v : seeds) enqueue(bwdQueue_, v);
  while (!bwdQueue_.empty()) {
    const NodeId v = bwdQueue_.top().second;
    bwdQueue_.pop();
    inQueue_[v] = 0;
    const int value = recomputeAlap(v);
    if (value == alap_[v]) continue;
    if (undo) undo->alapUndo.emplace_back(v, alap_[v]);
    setAlap(v, value);
    markChanged(v);
    for (const NodeId p : g_.fanins(v)) enqueue(bwdQueue_, p);
    for (const NodeId p : ctrlPredCsr_.row(v)) enqueue(bwdQueue_, p);
    for (const NodeId p : xPred_[v]) enqueue(bwdQueue_, p);
  }
}

void TimeFrameOracle::ensureAlap() {
  if (depth_ == 0) return;  // committed state is flushed at commit(); pins are eager
  Batch& top = batchPool_[depth_ - 1];
  if (top.poisoned)
    throw SynthesisError(ctx_ + ": ALAP values are unavailable on an aborted probe batch");
  if (top.bwdDone) return;
  // Flush the deferred backward repair for EVERY open batch's edges, but
  // log every change into the TOP batch's undo only. The fixed point is
  // computed over the full live edge set, so a value tightened "because of"
  // an inner batch cannot be attributed to that batch alone — logging into
  // an older batch would leave stale ALAPs behind when the newer batch is
  // popped. With top-only logging, pop(top) reverts the whole flush and
  // the lower batches deliberately keep bwdDone == false: a later read
  // re-flushes their seeds against the then-current edge set (a cheap
  // no-op when nothing changed), which is always attribution-correct.
  seedsB_.clear();
  for (std::size_t i = 0; i < depth_; ++i)
    for (const Edge& e : batchPool_[i].edges) seedsB_.push_back(e.first);
  repairBackward(seedsB_, &top);
  top.bwdDone = true;
}

void TimeFrameOracle::undoBatch(Batch& batch) {
  // Restoring in reverse replays the undo log back to the previous fixed
  // point exactly (the last restore of a node writes its oldest value).
  for (auto it = batch.asapUndo.rbegin(); it != batch.asapUndo.rend(); ++it) {
    setAsap(it->first, it->second);
    markChanged(it->first);
  }
  for (auto it = batch.alapUndo.rbegin(); it != batch.alapUndo.rend(); ++it) {
    setAlap(it->first, it->second);
    markChanged(it->first);
  }
  for (auto it = batch.edges.rbegin(); it != batch.edges.rend(); ++it) {
    xSucc_[it->first].pop_back();
    xPred_[it->second].pop_back();
  }
}

void TimeFrameOracle::push(std::span<const Edge> edges, bool probe) {
  if (depth_ > 0 && batchPool_[depth_ - 1].poisoned)
    throw SynthesisError(ctx_ + ": push on top of an aborted probe batch");
  beginChangeEpoch();
  if (depth_ == batchPool_.size()) batchPool_.emplace_back();
  Batch& batch = batchPool_[depth_++];
  batch.edges.assign(edges.begin(), edges.end());
  batch.asapUndo.clear();
  batch.alapUndo.clear();
  batch.bwdDone = false;
  batch.poisoned = false;
  seedsF_.clear();
  for (const auto& [before, after] : batch.edges) {
    xSucc_[before].push_back(after);
    xPred_[after].push_back(before);
    seedsF_.push_back(after);
  }
  switch (repairForward(seedsF_, &batch, probe)) {
    case RepairResult::Ok:
      break;
    case RepairResult::Infeasible:
      batch.poisoned = true;  // feasible() is false; only pop() may follow
      break;
    case RepairResult::Cycle:
      undoBatch(batch);
      --depth_;
      throw SynthesisError(ctx_ + ": extra edges create a cycle");
  }
}

void TimeFrameOracle::pop() {
  if (depth_ == 0) throw SynthesisError(ctx_ + ": pop without a matching push");
  beginChangeEpoch();
  undoBatch(batchPool_[--depth_]);
}

void TimeFrameOracle::commit() {
  if (depth_ != 1)
    throw SynthesisError(ctx_ + ": commit requires exactly one open batch");
  if (batchPool_[0].poisoned)
    throw SynthesisError(ctx_ + ": commit of an aborted probe batch");
  // Before any state changes: an injected fault here leaves the batch open
  // and the committed state untouched (the caller's pop still works).
  fault::point("oracle-commit");
  // Flush the lazy backward repair so committed state is always ALAP-exact
  // (commits are rare — accepted candidates only).
  ensureAlap();
  depth_ = 0;  // the edges stay live in xSucc_/xPred_
}

void TimeFrameOracle::pin(NodeId n, int step) {
  if (depth_ != 0) throw SynthesisError(ctx_ + ": pin with open tentative batches");
  if (!sched_[n]) throw SynthesisError(ctx_ + ": pin of a non-scheduled node");
  beginChangeEpoch();
  pin_[n] = step;
  pinned_ = true;  // pins turn the slack verdict's fast path off for good
  const NodeId seeds[1] = {n};
  (void)repairForward(std::span<const NodeId>(seeds), nullptr, false);  // pins cannot cycle
  repairBackward(std::span<const NodeId>(seeds), nullptr);
}

std::optional<NodeId> TimeFrameOracle::firstInfeasible() {
  ensureAlap();
  for (NodeId v = 0; v < g_.size(); ++v)
    if (sched_[v] && asap_[v] > alap_[v]) return v;
  return std::nullopt;
}

bool TimeFrameOracle::slackFastPath(std::span<const Edge> edges) const {
  if (!slackExact_ || depth_ != 0 || pinned_ || overEnd_ != 0 || edges.empty()) return false;
  return std::all_of(edges.begin(), edges.end(),
                     [&](const Edge& e) { return e.first == edges.front().first; });
}

TimeFrameOracle::CommitVerdict TimeFrameOracle::tryCommit(std::span<const Edge> edges) {
  if (!slackFastPath(edges)) {
    push(edges);
    if (!feasible()) {
      pop();
      return CommitVerdict::Rejected;
    }
    commit();
    return CommitVerdict::Committed;
  }
  const NodeId u = edges.front().first;
  if (std::any_of(edges.begin(), edges.end(),
                  [&](const Edge& e) { return excess(u, e.second) > 0; })) {
    // push() would throw on a cycle before it could reject, and so does
    // this: a cycle through u runs from some target back to u.
    beginWalk();
    for (const Edge& e : edges)
      if (reaches(e.second, u)) throw SynthesisError(ctx_ + ": extra edges create a cycle");
    return CommitVerdict::Rejected;
  }
  push(edges);  // throws on a cycle
  commit();
  return CommitVerdict::Committed;
}

void TimeFrameOracle::beginWalk() {
  if (++walkEpoch_ == 0) {  // wrapped: clear the stale stamps once
    std::fill(walkStamp_.begin(), walkStamp_.end(), 0);
    walkEpoch_ = 1;
  }
}

bool TimeFrameOracle::reaches(NodeId from, NodeId to) {
  // A path from x to `to` has length at least weight(x, to) in both frame
  // recurrences, so a node whose frames leave less room cannot be on one.
  auto mayReach = [&](NodeId x) {
    return asap_[to] >= asap_[x] + weight(x, to) && alap_[to] >= alap_[x] + weight(x, to);
  };
  if (from == to) return true;
  if (!mayReach(from) || walkStamp_[from] == walkEpoch_) return false;
  walkStamp_[from] = walkEpoch_;
  walkStack_.assign(1, from);
  while (!walkStack_.empty()) {
    const NodeId v = walkStack_.back();
    walkStack_.pop_back();
    auto visit = [&](NodeId s) {
      if (s == to) return true;
      if (walkStamp_[s] != walkEpoch_ && mayReach(s)) {
        walkStamp_[s] = walkEpoch_;
        walkStack_.push_back(s);
      }
      return false;
    };
    for (const NodeId s : fanoutCsr_.row(v))
      if (visit(s)) return true;
    for (const NodeId s : ctrlSuccCsr_.row(v))
      if (visit(s)) return true;
    for (const NodeId s : xSucc_[v])
      if (visit(s)) return true;
  }
  return false;
}

TimeFrames TimeFrameOracle::frames() {
  ensureAlap();
  TimeFrames tf;
  tf.steps = steps_;
  tf.asap = asap_;
  tf.alap = alap_;
  return tf;
}

}  // namespace pmsched
