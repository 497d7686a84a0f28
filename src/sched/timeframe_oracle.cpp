#include "sched/timeframe_oracle.hpp"

#include <algorithm>
#include <bit>

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

  order_ = g.topoOrderView();
  topoPos_.resize(n);
  for (std::size_t i = 0; i < order_.size(); ++i)
    topoPos_[order_[i]] = static_cast<std::uint32_t>(i);

  asap_.assign(n, 0);
  alap_.assign(n, steps);
  xSucc_.resize(n);
  xPred_.resize(n);
  queue_.resize(n);
  walkStamp_.assign(n, 0);

  // Initial frames: the exact recurrences of computeTimeFrames() over the
  // cached topological order (no extra edges yet).
  for (const NodeId v : order_) asap_[v] = asapFromInputs(v);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) alap_[*it] = alapFromOutputs(*it);
  for (NodeId v = 0; v < n; ++v)
    if (sched_[v] && asap_[v] > latestStart_[v]) ++overEnd_;
}

// ---- worklist ---------------------------------------------------------------

void TimeFrameOracle::TopoWorklist::resize(std::size_t positions) {
  words_.assign((positions + 63) / 64, 0);
  summary_.assign((words_.size() + 63) / 64, 0);
  size_ = 0;
}

bool TimeFrameOracle::TopoWorklist::insert(std::uint32_t pos) {
  std::uint64_t& word = words_[pos / 64];
  const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
  if (word & bit) return false;
  if (word == 0) summary_[pos / 4096] |= std::uint64_t{1} << (pos / 64 % 64);
  word |= bit;
  ++size_;
  return true;
}

void TimeFrameOracle::TopoWorklist::take(std::size_t word, std::uint32_t bit) {
  words_[word] &= ~(std::uint64_t{1} << bit);
  if (words_[word] == 0) summary_[word / 64] &= ~(std::uint64_t{1} << (word % 64));
  --size_;
}

std::uint32_t TimeFrameOracle::TopoWorklist::popMin() {
  std::size_t s = 0;
  while (summary_[s] == 0) ++s;
  const std::size_t word = s * 64 + static_cast<std::size_t>(std::countr_zero(summary_[s]));
  const auto bit = static_cast<std::uint32_t>(std::countr_zero(words_[word]));
  take(word, bit);
  return static_cast<std::uint32_t>(word * 64 + bit);
}

std::uint32_t TimeFrameOracle::TopoWorklist::popMax() {
  std::size_t s = summary_.size() - 1;
  while (summary_[s] == 0) --s;
  const std::size_t word = s * 64 + 63 - static_cast<std::size_t>(std::countl_zero(summary_[s]));
  const auto bit = static_cast<std::uint32_t>(63 - std::countl_zero(words_[word]));
  take(word, bit);
  return static_cast<std::uint32_t>(word * 64 + bit);
}

void TimeFrameOracle::TopoWorklist::clear() {
  for (std::size_t s = 0; s < summary_.size(); ++s) {
    for (std::uint64_t bits = summary_[s]; bits != 0; bits &= bits - 1)
      words_[s * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = 0;
    summary_[s] = 0;
  }
  size_ = 0;
}

// ---- repairs ----------------------------------------------------------------

int TimeFrameOracle::asapFromInputs(NodeId v) const {
  int avail = 0;
  for (const NodeId p : g_.fanins(v)) avail = std::max(avail, readyAfter(p));
  for (const NodeId p : ctrlPredCsr_.row(v)) avail = std::max(avail, readyAfter(p));
  for (const NodeId p : xPred_[v]) avail = std::max(avail, readyAfter(p));
  return sched_[v] ? avail + 1 : avail;
}

int TimeFrameOracle::alapFromOutputs(NodeId v) const {
  int latest = latestStart_[v];
  for (const NodeId s : fanoutCsr_.row(v)) latest = std::min(latest, latestBefore(v, s));
  for (const NodeId s : ctrlSuccCsr_.row(v)) latest = std::min(latest, latestBefore(v, s));
  for (const NodeId s : xSucc_[v]) latest = std::min(latest, latestBefore(v, s));
  return latest;
}

void TimeFrameOracle::setAsap(NodeId v, int value) {
  if (sched_[v]) {
    const bool was = asap_[v] > latestStart_[v];
    const bool now = value > latestStart_[v];
    if (was != now) overEnd_ += now ? 1 : -1;
  }
  asap_[v] = value;
}

TimeFrameOracle::RepairResult TimeFrameOracle::raiseAsap(NodeId s, int value, Batch& undo,
                                                         bool abortOnInfeasible) {
  if (value <= asap_[s]) return RepairResult::Ok;
  // Values beyond the DAG bound mean the batch closed a cycle through a
  // scheduled node (the only kind the transform consumers can create).
  if (value > bound_) return RepairResult::Cycle;
  // A node raised again before it is popped keeps its first undo entry:
  // replaying the log backwards restores the oldest value anyway.
  if (queue_.insert(topoPos_[s])) {
    undo.asapUndo.emplace_back(s, asap_[s]);
    ++frameWrites_;
  }
  setAsap(s, value);
  return abortOnInfeasible && overEnd_ > 0 ? RepairResult::Infeasible : RepairResult::Ok;
}

void TimeFrameOracle::lowerAlap(NodeId p, int value, Batch& undo) {
  if (value >= alap_[p]) return;
  if (queue_.insert(topoPos_[p])) {
    undo.alapUndo.emplace_back(p, alap_[p]);
    ++frameWrites_;
  }
  alap_[p] = value;
}

TimeFrameOracle::RepairResult TimeFrameOracle::repairForward(Batch& undo, bool abortOnInfeasible) {
  // Each popped node offers its ready time to its successors; only a
  // successor the offer raises is enqueued (tightening-only, see header).
  while (!queue_.empty()) {
    const NodeId v = order_[queue_.popMin()];
    const int ready = readyAfter(v);
    auto offerAll = [&](const auto& successors) {
      for (const NodeId s : successors) {
        const RepairResult r = raiseAsap(s, sched_[s] ? ready + 1 : ready, undo, abortOnInfeasible);
        if (r != RepairResult::Ok) return r;
      }
      return RepairResult::Ok;
    };
    RepairResult r = offerAll(fanoutCsr_.row(v));
    if (r == RepairResult::Ok) r = offerAll(ctrlSuccCsr_.row(v));
    if (r == RepairResult::Ok) r = offerAll(xSucc_[v]);
    if (r != RepairResult::Ok) {
      queue_.clear();
      return r;
    }
  }
  return RepairResult::Ok;
}

void TimeFrameOracle::repairBackward(Batch& undo) {
  // Only lowers ALAPs; reverse topological order.
  while (!queue_.empty()) {
    const NodeId v = order_[queue_.popMax()];
    for (const NodeId p : g_.fanins(v)) lowerAlap(p, latestBefore(p, v), undo);
    for (const NodeId p : ctrlPredCsr_.row(v)) lowerAlap(p, latestBefore(p, v), undo);
    for (const NodeId p : xPred_[v]) lowerAlap(p, latestBefore(p, v), undo);
  }
}

void TimeFrameOracle::ensureAlap() {
  if (depth_ == 0) return;  // committed state is flushed at commit()
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
  for (std::size_t i = 0; i < depth_; ++i)
    for (const auto& [before, after] : batchPool_[i].edges)
      lowerAlap(before, latestBefore(before, after), top);
  repairBackward(top);
  top.bwdDone = true;
}

void TimeFrameOracle::undoBatch(Batch& batch) {
  // Restoring in reverse replays the undo log back to the previous fixed
  // point exactly (the last restore of a node writes its oldest value).
  for (auto it = batch.asapUndo.rbegin(); it != batch.asapUndo.rend(); ++it)
    setAsap(it->first, it->second);
  for (auto it = batch.alapUndo.rbegin(); it != batch.alapUndo.rend(); ++it)
    alap_[it->first] = it->second;
  for (auto it = batch.edges.rbegin(); it != batch.edges.rend(); ++it) {
    xSucc_[it->first].pop_back();
    xPred_[it->second].pop_back();
  }
}

void TimeFrameOracle::push(std::span<const Edge> edges, bool probe) {
  if (depth_ > 0 && batchPool_[depth_ - 1].poisoned)
    throw SynthesisError(ctx_ + ": push on top of an aborted probe batch");
  if (depth_ == batchPool_.size()) batchPool_.emplace_back();
  Batch& batch = batchPool_[depth_++];
  batch.edges.assign(edges.begin(), edges.end());
  batch.asapUndo.clear();
  batch.alapUndo.clear();
  batch.bwdDone = false;
  batch.poisoned = false;
  for (const auto& [before, after] : batch.edges) {
    xSucc_[before].push_back(after);
    xPred_[after].push_back(before);
  }
  RepairResult result = RepairResult::Ok;
  for (const auto& [before, after] : batch.edges) {
    const int ready = readyAfter(before);
    result = raiseAsap(after, sched_[after] ? ready + 1 : ready, batch, probe);
    if (result != RepairResult::Ok) break;
  }
  if (result == RepairResult::Ok)
    result = repairForward(batch, probe);
  else
    queue_.clear();
  switch (result) {
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

std::optional<NodeId> TimeFrameOracle::firstInfeasible() {
  ensureAlap();
  for (NodeId v = 0; v < g_.size(); ++v)
    if (sched_[v] && asap_[v] > alap_[v]) return v;
  return std::nullopt;
}

bool TimeFrameOracle::slackFastPath(std::span<const Edge> edges) const {
  if (!slackExact_ || depth_ != 0 || overEnd_ != 0 || edges.empty()) return false;
  const Edge& front = edges.front();
  return std::all_of(edges.begin(), edges.end(),
                     [&](const Edge& e) { return e.first == front.first; }) ||
         std::all_of(edges.begin(), edges.end(),
                     [&](const Edge& e) { return e.second == front.second; });
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
  if (std::any_of(edges.begin(), edges.end(),
                  [&](const Edge& e) { return excess(e.first, e.second) > 0; })) {
    // push() would throw on a cycle before it could reject, and so does
    // this.
    if (closesCycle(edges)) throw SynthesisError(ctx_ + ": extra edges create a cycle");
    return CommitVerdict::Rejected;
  }
  push(edges);  // throws on a cycle
  commit();
  return CommitVerdict::Committed;
}

bool TimeFrameOracle::closesCycle(std::span<const Edge> edges) {
  if (depth_ != 0) throw SynthesisError(ctx_ + ": closesCycle requires the committed state");
  for (std::size_t i = 0; i < edges.size(); ++i) {
    // The stamps of one walk epoch hold for one walk target only.
    if (i == 0 || edges[i].first != edges[i - 1].first) beginWalk();
    if (reaches(edges[i].second, edges[i].first)) return true;
  }
  return false;
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
