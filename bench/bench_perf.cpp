// Runtime micro-benchmarks (google-benchmark): cost of the
// power-management transform, the list scheduler and the rest of the back
// end as a function of CDFG size, on random layered DFGs and on the paper
// circuits. One --benchmark_format=json dump (see tools/bench_report.sh)
// records every family at every size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "circuits/circuits.hpp"
#include "condition_reference.hpp"
#include "ctrl/controller.hpp"
#include "explore/explore.hpp"
#include "explore_reference.hpp"
#include "power/activation.hpp"
#include "sched/bdd.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "server/server.hpp"
#include "support/json.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"

namespace {

using namespace pmsched;

/// Seeded DNF with support k shaped like real activation conditions:
/// sliding-window conjunctions (nested gating chains share select
/// prefixes, shared gating ORs them). Enumeration is 2^k on it regardless
/// of structure; the BDD stays near-linear. Same seed at each size, so
/// BM_DnfProbability* runs are comparable across builds.
GateDnf benchDnf(int k) {
  std::mt19937_64 rng(1996 + static_cast<unsigned>(k));
  std::uniform_int_distribution<int> bit(0, 1);
  GateDnf dnf;
  for (int t = 0; t + 1 < k; t += 2) {
    GateTerm term;
    for (int i = t; i < t + 4 && i < k; ++i)
      term.push_back(GateLiteral{static_cast<NodeId>(i + 1), bit(rng) != 0});
    dnf.push_back(std::move(term));
  }
  return dnf;
}

void BM_PowerTransform(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(applyPowerManagement(g, steps));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PowerTransform)->RangeMultiplier(2)->Range(4, 256)->Complexity();

// Same sweep with a never-exhausting RunBudget attached: the delta against
// BM_PowerTransform is the whole cost of cooperative budget polling
// (designed to be one relaxed load per candidate — compare the two before
// adding poll points to hotter loops).
void BM_PowerTransformBudgeted(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  RunBudget budget;
  budget.setDeadline(std::chrono::hours(24));
  budget.setProbeCap(UINT64_MAX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        applyPowerManagement(g, steps, MuxOrdering::OutputFirst, LatencyModel::unit(), &budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PowerTransformBudgeted)->RangeMultiplier(2)->Range(4, 48)->Complexity();

void BM_PowerTransformOptimal(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(applyPowerManagementOptimal(g, steps));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PowerTransformOptimal)->RangeMultiplier(2)->Range(4, 48)->Complexity();

void BM_SharedGating(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  for (auto _ : state) {
    PowerManagedDesign design = applyPowerManagement(g, steps);
    benchmark::DoNotOptimize(applySharedGating(design));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SharedGating)->RangeMultiplier(2)->Range(4, 256)->Complexity();

// The whole minimum-resource search (every listSchedule call it makes).
void BM_ListSchedule(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimizeResources(g, steps));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListSchedule)->RangeMultiplier(2)->Range(4, 256)->Complexity();

// Unit binding, left-edge registers and the interconnect estimate on the
// one-shot job's design shape: a strict transform at cp+2, scheduled at its
// minimum units.
void BM_BindDesign(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  const int steps = criticalPathLength(g) + 2;
  const PowerManagedDesign design = applyPowerManagement(g, steps);
  const Schedule sched = minimizeSchedule(design.graph, steps).schedule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bindDesign(design.graph, sched));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BindDesign)->RangeMultiplier(2)->Range(4, 1024)->Complexity();

void BM_ActivationAnalysis(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzeActivation(design));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ActivationAnalysis)->RangeMultiplier(2)->Range(4, 512)->Complexity();

// Probability of one condition as a function of support size. The BDD path
// (production dnfProbability) amortizes across queries through the
// thread-local manager; the Cold variant pays the full conversion each
// iteration; the Reference variant is the tests' 2^k enumeration
// (tests/condition_reference.hpp), capped at its 24-variable limit.
void BM_DnfProbability(benchmark::State& state) {
  const GateDnf dnf = benchDnf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnfProbability(dnf));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DnfProbability)->RangeMultiplier(2)->Range(4, 48)->Complexity();

void BM_DnfProbabilityCold(benchmark::State& state) {
  const GateDnf dnf = benchDnf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    BddManager mgr;
    benchmark::DoNotOptimize(mgr.probability(mgr.fromDnf(dnf)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DnfProbabilityCold)->RangeMultiplier(2)->Range(4, 48)->Complexity();

void BM_DnfProbabilityReference(benchmark::State& state) {
  const GateDnf dnf = benchDnf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnfProbabilityReference(dnf));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DnfProbabilityReference)->RangeMultiplier(2)->Range(4, 24)->Complexity();

// ---------------------------------------------------------------------------
// Condition-stack benchmarks: raw ite/unique-table throughput and
// controller generation (whose condition comparison rides the canonical
// activation BDD refs).
// ---------------------------------------------------------------------------

// A fresh AND of two staggered DNF BDDs per iteration: every makeNode /
// unique-table probe / computed-cache hit on the hot path.
void BM_BddIte(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const GateDnf a = benchDnf(k);
  GateDnf b = benchDnf(k);
  for (GateTerm& term : b)
    for (GateLiteral& lit : term) lit.select += 2;  // interleave the supports
  for (auto _ : state) {
    BddManager mgr;
    const BddRef fa = mgr.fromDnf(a);
    const BddRef fb = mgr.fromDnf(b);
    benchmark::DoNotOptimize(mgr.bddAnd(fa, fb));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BddIte)->RangeMultiplier(2)->Range(4, 48)->Complexity();

// Controller synthesis on a fully prepared design: condition-class
// resolution (canonical BDD ref equality), status capture planning, and
// the load-action sweep. The range stops at 256: at 512x8 the shared
// design's controller is refused (a select is scheduled after a load it
// gates), so that point would abort the run. BM_ControllerGenStrict covers
// the larger sizes.
void BM_ControllerGen(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 8, 42);
  const int steps = criticalPathLength(g) + 4;
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);
  const Schedule sched = minimizeSchedule(design.graph, design.steps).schedule;
  const Binding binding = bindDesign(design.graph, sched);
  const ActivationResult activation = analyzeActivation(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesizeController(design, sched, binding, activation));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ControllerGen)->RangeMultiplier(2)->Range(4, 256)->Complexity();

// The same on the one-shot job's design shape (strict at cp+2, 16 ops per
// layer), where a few hundred of the ~11k loads at 512 are gated.
void BM_ControllerGenStrict(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  const int steps = criticalPathLength(g) + 2;
  const PowerManagedDesign design = applyPowerManagement(g, steps);
  const Schedule sched = minimizeSchedule(design.graph, steps).schedule;
  const Binding binding = bindDesign(design.graph, sched);
  const ActivationResult activation = analyzeActivation(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesizeController(design, sched, binding, activation));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ControllerGenStrict)->RangeMultiplier(2)->Range(4, 512)->Complexity();

void BM_Cordic_FullFlow(benchmark::State& state) {
  const Graph g = circuits::cordic();
  for (auto _ : state) {
    PowerManagedDesign design = applyPowerManagement(g, 48);
    applySharedGating(design);
    benchmark::DoNotOptimize(analyzeActivation(design));
  }
}
BENCHMARK(BM_Cordic_FullFlow);

// ---- scheduling-as-a-service (src/server) ---------------------------------

/// JSONL design frames over a rotating pool of graphs, 3 smalls to 1 large —
/// the loadgen's default mix, minus the socket.
std::vector<std::string> serverBenchFrames(int count) {
  std::vector<std::string> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    const bool large = (j % 4) == 3;
    const Graph g = large ? randomLayeredDfg(8, 6, 900 + static_cast<std::uint64_t>(j % 4))
                          : randomLayeredDfg(3, 4, 100 + static_cast<std::uint64_t>(j % 4));
    const int steps = criticalPathLength(g) + 4;
    JsonWriter quotedGraph;
    quotedGraph.value(saveGraphText(g));
    frames.push_back(R"({"id":0,"op":"design","graph":)" + quotedGraph.str() +
                     ",\"steps\":" + std::to_string(steps) + "}");
  }
  return frames;
}

// Warm multi-tenant throughput: one ServerCore, 2 workers, a 64-frame mixed
// batch submitted and drained per iteration. After the first iteration every
// request is cache-warm, so this tracks the serving overhead — framing,
// admission, memo/cache lookups, response building — not the design compute.
void BM_ServerThroughput(benchmark::State& state) {
  ServerOptions opts;
  opts.workers = 2;
  opts.queueCapacity = 1024;
  ServerCore core(opts);
  const std::vector<std::string> frames = serverBenchFrames(64);
  const ServerCore::ResponseSink sink = [](const std::string&) {};
  for (auto _ : state) {
    for (const std::string& f : frames) core.submitFrame(f, sink);
    core.waitIdle();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_ServerThroughput)->UseRealTime();

// Per-request wall latency through the queue on a warm cache, one request in
// flight at a time; p50/p99 land in the counters. This is the server-side
// floor under the loadgen's socket-measured tail latency.
void BM_ServerTailLatency(benchmark::State& state) {
  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);
  const std::vector<std::string> frames = serverBenchFrames(16);
  const ServerCore::ResponseSink sink = [](const std::string&) {};
  for (const std::string& f : frames) core.submitFrame(f, sink);  // warm the cache
  core.waitIdle();
  std::vector<double> latenciesMs;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core.submitFrame(frames[i++ % frames.size()], sink);
    core.waitIdle();
    latenciesMs.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(latenciesMs.begin(), latenciesMs.end());
  if (!latenciesMs.empty()) {
    state.counters["p50_ms"] = latenciesMs[latenciesMs.size() / 2];
    state.counters["p99_ms"] = latenciesMs[latenciesMs.size() * 99 / 100];
  }
}
BENCHMARK(BM_ServerTailLatency)->UseRealTime();

// Amortized design-space sweep vs the tests' per-point loop
// (tests/explore_reference.hpp), same graph
// and range (docs/EXPLORE.md). The sweep spans cp..cp+128 so the
// post-saturation region dominates — exactly the regime the amortization
// targets; tools/bench_report.sh divides the pair into the "explore"
// speedup recorded in BENCH_PR<n>.json.
void BM_ExploreSweep(benchmark::State& state) {
  ExploreRequest req;
  req.graph = randomLayeredDfg(static_cast<int>(state.range(0)), 6, 1);
  req.span = 128;
  for (auto _ : state) {
    ExploreResult res = exploreDesignSpace(req);
    benchmark::DoNotOptimize(res.front.data());
  }
}
BENCHMARK(BM_ExploreSweep)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ExplorePerPoint(benchmark::State& state) {
  ExploreRequest req;
  req.graph = randomLayeredDfg(static_cast<int>(state.range(0)), 6, 1);
  req.span = 128;
  for (auto _ : state) {
    ExploreResult res = explorePerPointReference(req);
    benchmark::DoNotOptimize(res.front.data());
  }
}
BENCHMARK(BM_ExplorePerPoint)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// The text front end on the one-shot input shape (layers x 16): every CLI
// run, served request and explore input pays these before any scheduling.
// Rates are nodes per second.
void BM_LoadGraphText(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  const std::string text = saveGraphText(g);
  for (auto _ : state) benchmark::DoNotOptimize(loadGraphText(text));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LoadGraphText)->RangeMultiplier(2)->Range(4, 256)->Complexity();

// Copy and destroy one transformed design graph (control edges and every
// cached view present), as a design job or explore sweep copies its input.
void BM_GraphCopy(benchmark::State& state) {
  const Graph input = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  const Graph g = applyPowerManagement(input, criticalPathLength(input) + 2).graph;
  (void)g.fanoutCsr();
  (void)g.controlSuccCsr();
  (void)g.topoOrderView();
  for (auto _ : state) {
    Graph copy = g;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphCopy)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_CanonicalizeGraph(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  for (auto _ : state) benchmark::DoNotOptimize(canonicalizeGraph(g));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CanonicalizeGraph)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_SaveGraphText(benchmark::State& state) {
  const Graph g = randomLayeredDfg(static_cast<int>(state.range(0)), 16, 42);
  for (auto _ : state) benchmark::DoNotOptimize(saveGraphText(g));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SaveGraphText)->RangeMultiplier(2)->Range(4, 256)->Complexity();

}  // namespace

BENCHMARK_MAIN();
