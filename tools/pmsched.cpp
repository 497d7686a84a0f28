// pmsched — command-line driver for the whole flow.
//
// Usage:
//   pmsched INPUT --steps N [options]
//   pmsched --random-dfg LxP[:SEED] [--steps N] [options]
//
// INPUT is a behavioral .sil source or a serialized .cdfg graph. The tool
// runs the power-management transform and the resource-minimizing
// scheduler, then emits whatever artifacts are requested:
//
//   --steps N           control-step budget (required for file inputs;
//                       defaults to critical path + 2 for --random-dfg)
//   --ordering MODE     output | input | savings   (default: output)
//   --threads N         compute-pool lanes (default: PMSCHED_THREADS or
//                       hardware concurrency); every design job runs on
//                       one lane, so results are identical at every count
//   --optimal           exact maximum-savings mux subset (DFS) instead of
//                       the paper's greedy order
//   --strict            disable the shared (OR-composed) gating extension
//   --random-dfg LxP[:SEED]  synthesize a random layered DFG (L layers of
//                       P ops, default seed 1) instead of reading INPUT
//   --circuit NAME      run a reconstructed paper circuit (dealer, gcd,
//                       vender, cordic, ...) instead of reading INPUT
//   --report FILE       Markdown design report
//   --vhdl PREFIX       PREFIX_datapath.vhd / _controller.vhd / _tb.vhd
//   --dot FILE          Graphviz rendering of the transformed CDFG
//   --save FILE         serialized CDFG (with control edges)
//   --power-sim N       gate-level power comparison over N random vectors
//   --profile           print one line per pipeline stage to stderr: wall
//                       time, oracle frame writes, list-scheduling runs
//
// Server mode (docs/SERVER.md):
//
//   --serve               JSONL request/response over stdin/stdout
//   --serve-socket PATH   listen on a Unix-domain socket instead of stdio
//   --serve-workers N     concurrent design workers (default 2)
//   --serve-queue N       admission queue capacity (default 64)
//   --serve-max-frame N   per-request frame limit in bytes (default 1 MiB)
//   --serve-cache N       canonical-form cache entries (default 256, 0 = off)
//   --serve-threads N     pool lanes per worker (default: --threads /
//                         PMSCHED_THREADS / hardware); each design job
//                         runs on one lane, concurrency comes from
//                         --serve-workers
//   --default-deadline-ms N  server-side RunBudget deadline wrapped around
//                         every design request that sent no budget.ms of
//                         its own (0 = off); a degraded-by-deadline result
//                         is typed, never a hung worker slot
//   --cache-persist PATH  snapshot + append-only journal for the canonical
//                         design cache; a restarted server replays the
//                         valid prefix and starts warm
//   --drain-deadline-ms N how long a drain (EOF, shutdown op, SIGTERM/
//                         SIGINT) waits for in-flight work before failing
//                         still-queued requests typed (default 5000)
//
// Explore mode (docs/EXPLORE.md): sweep latency budgets min..max over one
// amortized run and print the latency/power/area Pareto front as JSON
// (stdout carries ONLY the JSON document, so fronts diff byte-for-byte):
//
//   --explore             sweep instead of a single --steps point
//   --explore-span K      sweep width when --explore-max-steps is not given
//                         (max = min + K; default 8)
//   --explore-min-steps N first step budget (default: critical path)
//   --explore-max-steps N last step budget (default: min + span)
//   --explore-out FILE    also write the JSON document to FILE
//
// Run budget (see docs/ROBUSTNESS.md for the per-stage contract):
//
//   --budget-ms N         wall-clock deadline for the optimizing stages
//   --budget-probes N     total oracle-probe cap
//   --budget-bdd-nodes N  per-manager BDD node cap
//   --budget-dnf-terms N  DNF literal-arena cap for shared gating
//   --fail-degraded       exit 4 when any stage degraded (for CI gates)
//
// Exit codes: 0 success, 2 usage error, 3 unreadable/malformed input,
// 4 budget exceeded (--fail-degraded), 5 internal error, 6 infeasible
// constraints. Every failure prints one structured "pmsched: error[...]"
// line to stderr — never a raw abort.
//
// Without artifact options it prints the summary to stdout.

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

#include "alloc/binding.hpp"
#include "analysis/report.hpp"
#include "cdfg/textio.hpp"
#include "circuits/circuits.hpp"
#include "explore/explore.hpp"
#include "lang/elaborate.hpp"
#include "rtl/power_harness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/transport.hpp"
#include "support/diagnostics.hpp"
#include "support/fault_injector.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "vhdl/emit.hpp"

namespace {

using namespace pmsched;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;  ///< unreadable file or parse error
constexpr int kExitBudget = 4;
constexpr int kExitInternal = 5;
constexpr int kExitInfeasible = 6;

/// Bad command line (maps to exit 2 and the usage text).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Unreadable input file (exit 3, like a parse error: the input is at fault).
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string inputPath;
  int steps = 0;
  int threads = 0;  ///< 0 = automatic (PMSCHED_THREADS / hardware)
  MuxOrdering ordering = MuxOrdering::OutputFirst;
  bool shared = true;
  bool optimal = false;
  bool failDegraded = false;
  bool profile = false;
  std::string reportPath;
  std::string vhdlPrefix;
  std::string dotPath;
  std::string savePath;
  int powerSim = 0;

  // --explore mode.
  bool explore = false;
  int exploreSpan = 8;
  int exploreMinSteps = 0;  ///< 0 = critical path
  int exploreMaxSteps = 0;  ///< 0 = min + span
  std::string exploreOut;

  // --circuit NAME (a reconstructed paper circuit instead of INPUT).
  std::string circuitName;

  // --random-dfg LxP[:SEED]
  bool randomDfg = false;
  int dfgLayers = 0;
  int dfgPerLayer = 0;
  std::uint64_t dfgSeed = 1;

  // --serve mode.
  bool serve = false;
  std::string serveSocket;
  std::size_t serveWorkers = 2;
  std::size_t serveQueue = 64;
  std::size_t serveMaxFrame = 1 << 20;
  std::size_t serveCache = 256;
  std::size_t serveThreads = 0;  ///< lanes per worker (0 = configured)
  std::uint64_t defaultDeadlineMs = 0;  ///< 0 = no server-side deadline
  std::uint64_t drainDeadlineMs = 5000;
  std::string cachePersistPath;

  // Run budget (0 = unlimited / not set).
  long long budgetMs = 0;
  long long budgetProbes = 0;
  long long budgetBddNodes = 0;
  long long budgetDnfTerms = 0;

  [[nodiscard]] bool hasBudget() const {
    return budgetMs > 0 || budgetProbes > 0 || budgetBddNodes > 0 || budgetDnfTerms > 0;
  }
};

void printUsage(std::ostream& os) {
  os << "usage: pmsched INPUT --steps N [--ordering output|input|savings] [--strict]\n"
        "               [--optimal] [--threads N] [--report FILE] [--vhdl PREFIX]\n"
        "               [--dot FILE] [--save FILE] [--power-sim N]\n"
        "               [--budget-ms N] [--budget-probes N] [--budget-bdd-nodes N]\n"
        "               [--budget-dnf-terms N] [--fail-degraded] [--profile]\n"
        "       pmsched --random-dfg LxP[:SEED] [--steps N] [options]\n"
        "       pmsched --circuit NAME --steps N [options]\n"
        "       pmsched INPUT --explore [--explore-span K] [--explore-min-steps N]\n"
        "               [--explore-max-steps N] [--explore-out FILE]\n"
        "       pmsched --serve [--serve-socket PATH] [--serve-workers N]\n"
        "               [--serve-queue N] [--serve-max-frame N] [--serve-cache N]\n"
        "               [--serve-threads N] [--default-deadline-ms N]\n"
        "               [--cache-persist PATH] [--drain-deadline-ms N]\n";
}

/// Strict integer parsing: the whole token must be a number in [lo, hi].
/// Replaces raw std::stoi, whose std::invalid_argument would surface as an
/// internal error instead of a usage error.
long long parseInt(const std::string& text, const char* what, long long lo, long long hi) {
  long long value = 0;
  std::size_t pos = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    throw UsageError(std::string(what) + " expects an integer, got '" + text + "'");
  }
  if (pos != text.size())
    throw UsageError(std::string(what) + " expects an integer, got '" + text + "'");
  if (value < lo || value > hi)
    throw UsageError(std::string(what) + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + text);
  return value;
}

/// "LxP" or "LxP:SEED" for --random-dfg.
void parseRandomDfg(const std::string& spec, Options& opts) {
  const auto x = spec.find('x');
  if (x == std::string::npos)
    throw UsageError("--random-dfg expects LxP[:SEED], got '" + spec + "'");
  const auto colon = spec.find(':', x + 1);
  const std::string perLayer =
      spec.substr(x + 1, colon == std::string::npos ? std::string::npos : colon - x - 1);
  opts.dfgLayers = static_cast<int>(parseInt(spec.substr(0, x), "--random-dfg layers", 1, 4096));
  opts.dfgPerLayer = static_cast<int>(parseInt(perLayer, "--random-dfg ops per layer", 1, 4096));
  if (colon != std::string::npos)
    opts.dfgSeed = static_cast<std::uint64_t>(
        parseInt(spec.substr(colon + 1), "--random-dfg seed", 0, INT64_MAX));
  opts.randomDfg = true;
}

Options parseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) throw UsageError(std::string("missing value for ") + what);
      return argv[++i];
    };
    auto nextInt = [&](const char* what, long long lo, long long hi) {
      return parseInt(next(what), what, lo, hi);
    };
    if (arg == "--help" || arg == "-h") {
      printUsage(std::cout);
      std::exit(kExitOk);
    } else if (arg == "--steps") opts.steps = static_cast<int>(nextInt("--steps", 1, 1 << 20));
    else if (arg == "--threads") opts.threads = static_cast<int>(nextInt("--threads", 1, 4096));
    else if (arg == "--ordering") {
      const std::string mode = next("--ordering");
      if (mode == "output") opts.ordering = MuxOrdering::OutputFirst;
      else if (mode == "input") opts.ordering = MuxOrdering::InputFirst;
      else if (mode == "savings") opts.ordering = MuxOrdering::BySavings;
      else throw UsageError("unknown ordering '" + mode + "'");
    } else if (arg == "--strict") opts.shared = false;
    else if (arg == "--optimal") opts.optimal = true;
    else if (arg == "--random-dfg") parseRandomDfg(next("--random-dfg"), opts);
    else if (arg == "--circuit") opts.circuitName = next("--circuit");
    else if (arg == "--report") opts.reportPath = next("--report");
    else if (arg == "--vhdl") opts.vhdlPrefix = next("--vhdl");
    else if (arg == "--dot") opts.dotPath = next("--dot");
    else if (arg == "--save") opts.savePath = next("--save");
    else if (arg == "--power-sim")
      opts.powerSim = static_cast<int>(nextInt("--power-sim", 1, 1 << 24));
    else if (arg == "--explore") opts.explore = true;
    else if (arg == "--explore-span")
      opts.exploreSpan = static_cast<int>(nextInt("--explore-span", 0, 1 << 16));
    else if (arg == "--explore-min-steps")
      opts.exploreMinSteps = static_cast<int>(nextInt("--explore-min-steps", 1, 1 << 20));
    else if (arg == "--explore-max-steps")
      opts.exploreMaxSteps = static_cast<int>(nextInt("--explore-max-steps", 1, 1 << 20));
    else if (arg == "--explore-out") opts.exploreOut = next("--explore-out");
    else if (arg == "--serve") opts.serve = true;
    else if (arg == "--serve-socket") opts.serveSocket = next("--serve-socket");
    else if (arg == "--serve-workers")
      opts.serveWorkers = static_cast<std::size_t>(nextInt("--serve-workers", 0, 4096));
    else if (arg == "--serve-queue")
      opts.serveQueue = static_cast<std::size_t>(nextInt("--serve-queue", 1, 1 << 20));
    else if (arg == "--serve-max-frame")
      opts.serveMaxFrame = static_cast<std::size_t>(nextInt("--serve-max-frame", 64, 1 << 28));
    else if (arg == "--serve-cache")
      opts.serveCache = static_cast<std::size_t>(nextInt("--serve-cache", 0, 1 << 20));
    else if (arg == "--serve-threads")
      opts.serveThreads = static_cast<std::size_t>(nextInt("--serve-threads", 1, 4096));
    else if (arg == "--default-deadline-ms")
      opts.defaultDeadlineMs = static_cast<std::uint64_t>(nextInt("--default-deadline-ms", 0, 1LL << 32));
    else if (arg == "--drain-deadline-ms")
      opts.drainDeadlineMs = static_cast<std::uint64_t>(nextInt("--drain-deadline-ms", 0, 1LL << 32));
    else if (arg == "--cache-persist") opts.cachePersistPath = next("--cache-persist");
    else if (arg == "--budget-ms") opts.budgetMs = nextInt("--budget-ms", 1, 1LL << 32);
    else if (arg == "--budget-probes") opts.budgetProbes = nextInt("--budget-probes", 1, INT64_MAX);
    else if (arg == "--budget-bdd-nodes")
      opts.budgetBddNodes = nextInt("--budget-bdd-nodes", 1, INT64_MAX);
    else if (arg == "--budget-dnf-terms")
      opts.budgetDnfTerms = nextInt("--budget-dnf-terms", 1, INT64_MAX);
    else if (arg == "--fail-degraded") opts.failDegraded = true;
    else if (arg == "--profile") opts.profile = true;
    else if (!arg.empty() && arg[0] == '-') throw UsageError("unknown option '" + arg + "'");
    else if (opts.inputPath.empty()) opts.inputPath = arg;
    else throw UsageError("multiple inputs given");
  }
  if (opts.profile && (opts.serve || opts.explore))
    throw UsageError("--profile applies to a single design run");
  if (!opts.serve) {
    if (!opts.serveSocket.empty() || opts.serveWorkers != 2 || opts.serveQueue != 64 ||
        opts.serveMaxFrame != (1u << 20) || opts.serveCache != 256 || opts.serveThreads != 0 ||
        opts.defaultDeadlineMs != 0 || opts.drainDeadlineMs != 5000 ||
        !opts.cachePersistPath.empty())
      throw UsageError("--serve-* options require --serve");
  } else {
    if (!opts.inputPath.empty() || opts.steps != 0 || opts.randomDfg)
      throw UsageError("--serve takes no INPUT (requests arrive as frames)");
    return opts;
  }
  if (!opts.explore) {
    if (opts.exploreSpan != 8 || opts.exploreMinSteps != 0 ||
        opts.exploreMaxSteps != 0 || !opts.exploreOut.empty())
      throw UsageError("--explore-* options require --explore");
  } else {
    if (opts.steps != 0)
      throw UsageError("--explore sweeps step budgets; use --explore-min-steps/--explore-max-steps");
    if (!opts.reportPath.empty() || !opts.vhdlPrefix.empty() || !opts.dotPath.empty() ||
        !opts.savePath.empty() || opts.powerSim != 0)
      throw UsageError("artifact emitters are not available with --explore");
    if (opts.exploreMinSteps != 0 && opts.exploreMaxSteps != 0 &&
        opts.exploreMaxSteps < opts.exploreMinSteps)
      throw UsageError("--explore-max-steps must be >= --explore-min-steps");
  }
  if (opts.randomDfg || !opts.circuitName.empty()) {
    if (opts.randomDfg && !opts.circuitName.empty())
      throw UsageError("--circuit and --random-dfg are mutually exclusive");
    if (!opts.inputPath.empty())
      throw UsageError(std::string(opts.randomDfg ? "--random-dfg" : "--circuit") +
                       " replaces the INPUT file");
    if (!opts.circuitName.empty() && !opts.explore && opts.steps <= 0)
      throw UsageError("--steps is required and must be positive");
  } else {
    if (opts.inputPath.empty()) throw UsageError("no input file");
    if (!opts.explore && opts.steps <= 0)
      throw UsageError("--steps is required and must be positive");
  }
  return opts;
}

/// SIGTERM/SIGINT land here: one async-signal-safe atomic store; the
/// transport loops notice and run the graceful drain (exit 0).
extern "C" void serveSignalHandler(int) { requestGlobalDrain(); }

/// Install the drain handlers WITHOUT SA_RESTART: a blocked stdin read must
/// fail with EINTR so serveStdio falls out of getline into the drain.
void installDrainSignalHandlers() {
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction action {};
  action.sa_handler = serveSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
#endif
}

/// --serve: hand the process over to the multi-tenant server core.
int runServe(const Options& opts) {
  if (opts.threads > 0) setThreadCount(static_cast<std::size_t>(opts.threads));

  ServerOptions serverOpts;
  serverOpts.workers = opts.serveWorkers;
  serverOpts.queueCapacity = opts.serveQueue;
  serverOpts.maxFrameBytes = opts.serveMaxFrame;
  serverOpts.cacheEntries = opts.serveCache;
  serverOpts.threadsPerWorker = opts.serveThreads;
  serverOpts.defaultDeadlineMs = opts.defaultDeadlineMs;
  serverOpts.drainDeadlineMs = opts.drainDeadlineMs;
  serverOpts.cachePersistPath = opts.cachePersistPath;
  installDrainSignalHandlers();
  ServerCore core(serverOpts);
  if (!opts.serveSocket.empty()) {
    try {
      return serveUnixSocket(core, opts.serveSocket);
    } catch (const std::runtime_error& e) {
      // Socket setup failures are environment errors, like unreadable input.
      throw InputError(e.what());
    }
  }
  return serveStdio(core, std::cin, std::cout);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw InputError("cannot write '" + path + "'");
  out << text;
  std::cout << "wrote " << path << " (" << text.size() << " bytes)\n";
}

/// Shared front-end setup for run()/runExplore(): thread count and the
/// optional CLI run budget.
const RunBudget* configureRun(const Options& opts, RunBudget& budgetStorage) {
  // Configure the thread pool before the first pool use; every parallel
  // pass (shared gating, exact search, activation analysis) picks it up
  // from here.
  if (opts.threads > 0) setThreadCount(static_cast<std::size_t>(opts.threads));

  if (!opts.hasBudget()) return nullptr;
  if (opts.budgetMs > 0)
    budgetStorage.setDeadline(std::chrono::milliseconds(opts.budgetMs));
  if (opts.budgetProbes > 0)
    budgetStorage.setProbeCap(static_cast<std::uint64_t>(opts.budgetProbes));
  if (opts.budgetBddNodes > 0)
    budgetStorage.setBddNodeCap(static_cast<std::size_t>(opts.budgetBddNodes));
  if (opts.budgetDnfTerms > 0)
    budgetStorage.setDnfTermCap(static_cast<std::size_t>(opts.budgetDnfTerms));
  return &budgetStorage;
}

/// Resolve INPUT / --circuit / --random-dfg into a graph (shared by both
/// run modes).
Graph loadInputGraph(const Options& opts) {
  if (!opts.circuitName.empty()) {
    for (const auto& named : circuits::paperCircuits())
      if (opts.circuitName == named.name) return named.build();
    std::string known;
    for (const auto& named : circuits::paperCircuits()) {
      if (!known.empty()) known += ", ";
      known += named.name;
    }
    throw InputError("unknown circuit '" + opts.circuitName + "' (known: " + known + ")");
  }
  if (opts.randomDfg)
    return randomLayeredDfg(opts.dfgLayers, opts.dfgPerLayer, opts.dfgSeed);
  const std::string source = readFile(opts.inputPath);
  const bool isSil = opts.inputPath.size() >= 4 &&
                     opts.inputPath.substr(opts.inputPath.size() - 4) == ".sil";
  return isSil ? lang::compile(source) : loadGraphText(source);
}

/// --explore: one amortized Pareto sweep (docs/EXPLORE.md). Stdout carries
/// ONLY the JSON document so the CI smoke jobs can diff fronts
/// byte-for-byte; the degradation summary goes to stderr.
int runExplore(const Options& opts) {
  RunBudget budgetStorage;
  const RunBudget* budget = configureRun(opts, budgetStorage);

  ExploreRequest req;
  req.graph = loadInputGraph(opts);
  req.minSteps = opts.exploreMinSteps;
  req.maxSteps = opts.exploreMaxSteps;
  req.span = opts.exploreSpan;
  req.ordering = opts.ordering;
  req.optimal = opts.optimal;
  req.shared = opts.shared;

  const ExploreResult res = exploreDesignSpace(req, budget);
  const std::string json = renderExploreJson(res);
  if (!opts.exploreOut.empty()) {
    std::ofstream out(opts.exploreOut);
    if (!out) throw InputError("cannot write '" + opts.exploreOut + "'");
    out << json << "\n";
  }
  std::cout << json << "\n";

  if (res.degraded) {
    std::cerr << "degraded: yes (" << res.degradeReason << ")\n";
    if (opts.failDegraded) {
      std::cerr << "pmsched: "
                << Diagnostic{"budget", SourceLoc{},
                              "run degraded under its budget (--fail-degraded)"}
                       .toString()
                << "\n";
      return kExitBudget;
    }
  }
  return kExitOk;
}

/// --profile: one stderr line per pipeline stage.
void printProfile(const StageTrace& trace) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const StageCost& cost = trace[stage];
    std::cerr << "profile: " << stageName(stage) << " " << fixed(cost.ns / 1e6, 3)
              << " ms, frame_writes " << cost.frameWrites << ", list_runs " << cost.listRuns
              << "\n";
  }
}

int run(const Options& opts) {
  RunBudget budgetStorage;
  const RunBudget* budget = configureRun(opts, budgetStorage);

  Graph g = loadInputGraph(opts);
  int steps = opts.steps;
  if (opts.randomDfg && steps <= 0) steps = criticalPathLength(g) + 2;

  std::cout << "circuit '" << g.name() << "': " << countOps(g).totalUnits()
            << " operations, critical path " << criticalPathLength(g) << ", budget "
            << steps << " steps\n";

  // The same service call the server multiplexes (src/server/service.hpp):
  // keeping both front ends on one function is what makes a server response
  // bit-identical to this one-shot run.
  DesignJob job;
  job.graph = g;
  job.steps = steps;
  job.ordering = opts.ordering;
  job.optimal = opts.optimal;
  job.shared = opts.shared;
  DesignOutcome outcome = runDesignJob(job, budget);
  if (opts.profile) printProfile(outcome.trace);
  const PowerManagedDesign& design = outcome.design;
  const Schedule& sched = outcome.schedule;
  const Binding& binding = outcome.binding;
  const ActivationResult& activation = outcome.activation;
  const ControllerSpec& ctrl = outcome.controller;
  const DesignSummary& summary = outcome.summary;

  std::cout << "power-managed muxes: " << summary.managed
            << ", shared-gated ops: " << summary.sharedGated
            << ", units: " << summary.units << "\n"
            << "expected datapath power reduction: " << summary.reductionPercent << "%\n";

  // One stable, machine-grepped degradation summary; the per-stage log
  // follows so humans can see exactly what was cut short.
  const bool degraded = summary.degraded;
  if (degraded) {
    std::cout << "degraded: yes (" << summary.degradeReason << ")\n";
    if (budget != nullptr)
      for (const DegradeEvent& ev : budget->events())
        std::cout << "  degraded[" << ev.stage << "] " << budgetKindName(ev.kind) << ": "
                  << ev.detail << "\n";
    if (!design.degradeReason.empty())
      std::cout << "  degraded[transform] " << design.degradeReason << "\n";
  } else {
    std::cout << "degraded: no\n";
  }

  if (!opts.reportPath.empty()) {
    nameSlackRejects(g, outcome.design);  // only the report prints the named node
    writeFile(opts.reportPath, analysis::renderDesignReport(
                                   {design, sched, binding, activation, ctrl}));
  }
  if (!opts.vhdlPrefix.empty()) {
    writeFile(opts.vhdlPrefix + "_datapath.vhd", vhdl::emitDatapath(design, sched, ctrl));
    writeFile(opts.vhdlPrefix + "_controller.vhd",
              vhdl::emitController(design, sched, ctrl));
    writeFile(opts.vhdlPrefix + "_tb.vhd",
              vhdl::emitTestbench(design, sched, ctrl, 8, 0xDAC1996));
  }
  if (!opts.dotPath.empty()) writeFile(opts.dotPath, toDot(design.graph));
  if (!opts.savePath.empty()) writeFile(opts.savePath, saveGraphText(design.graph));

  if (opts.powerSim > 0) {
    const PowerManagedDesign baseline = unmanagedDesign(g, steps);
    const Schedule baseSched = minimizeSchedule(baseline.graph, steps).schedule;
    const Binding baseBinding = bindDesign(baseline.graph, baseSched);
    const ActivationResult baseAct = analyzeActivation(baseline);

    Rng rngA(0xDAC1996);
    Rng rngB(0xDAC1996);
    const RtlPowerResult orig = measurePower(
        mapDesign(baseline, baseSched, baseBinding, baseAct, RtlOptions{false}), g,
        opts.powerSim, rngA, true);
    const RtlPowerResult pm =
        measurePower(mapDesign(design, sched, binding, activation, RtlOptions{true}),
                     design.graph, opts.powerSim, rngB, true);

    std::cout << "gate-level (" << opts.powerSim << " vectors): baseline "
              << fixed(orig.energyPerSample(), 0) << " -> power-managed "
              << fixed(pm.energyPerSample(), 0) << " ("
              << fixed((orig.energyPerSample() - pm.energyPerSample()) /
                           orig.energyPerSample() * 100.0,
                       1)
              << "% lower), functional mismatches: "
              << orig.functionalMismatches + pm.functionalMismatches << "\n";
  }

  if (degraded && opts.failDegraded) {
    std::cerr << "pmsched: "
              << Diagnostic{"budget", SourceLoc{},
                            "run degraded under its budget (--fail-degraded)"}
                     .toString()
              << "\n";
    return kExitBudget;
  }
  return kExitOk;
}

void printDiag(const std::string& category, SourceLoc loc, const std::string& message) {
  std::cerr << "pmsched: " << Diagnostic{category, loc, message}.toString() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure path funnels through here: one structured diagnostic on
  // stderr and a category-specific exit code — never an uncaught throw.
  try {
    const Options opts = parseArgs(argc, argv);
    if (opts.serve) return runServe(opts);
    if (opts.explore) return runExplore(opts);
    return run(opts);
  } catch (const UsageError& e) {
    printDiag("usage", SourceLoc{}, e.what());
    printUsage(std::cerr);
    return kExitUsage;
  } catch (const ParseError& e) {
    // what() already embeds the location prefix; strip it so the structured
    // line carries the location exactly once.
    std::string message = e.what();
    const std::string prefix = e.loc().toString() + ": ";
    if (message.rfind(prefix, 0) == 0) message = message.substr(prefix.size());
    printDiag("parse", e.loc(), message);
    return kExitInput;
  } catch (const InputError& e) {
    printDiag("parse", SourceLoc{}, e.what());
    return kExitInput;
  } catch (const BudgetExceededError& e) {
    printDiag("budget", SourceLoc{}, e.what());
    return kExitBudget;
  } catch (const InfeasibleError& e) {
    printDiag("infeasible", SourceLoc{}, e.what());
    return kExitInfeasible;
  } catch (const FaultInjectedError& e) {
    printDiag("internal", SourceLoc{}, e.what());
    return kExitInternal;
  } catch (const std::exception& e) {
    printDiag("internal", SourceLoc{}, e.what());
    return kExitInternal;
  } catch (...) {
    printDiag("internal", SourceLoc{}, "unknown exception");
    return kExitInternal;
  }
}
