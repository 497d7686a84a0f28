#pragma once
// End-to-end benchmark for pmsched: the pieces every workload shares.
//
// Inputs are generated here from the benchmark seed (the program under test
// only ever sees CDFG text), spans are recorded here around the calls the
// benchmark makes into the library's public functions, and every design is
// checked here against the invariants a user relies on. See NOTES.md for
// the workloads, the metrics and how to read a trace.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/service.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double msBetween(Clock::time_point a, Clock::time_point b);

// ---- deterministic inputs -------------------------------------------------

/// SplitMix64: the benchmark's own generator, so library changes never move
/// the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); 0 when bound is 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from the run seed and a label.
[[nodiscard]] std::uint64_t subSeed(std::uint64_t seed, std::string_view label, std::uint64_t index = 0);

/// One generated CDFG: its text and its critical path.
struct GraphText {
  std::string text;
  int criticalPath = 0;  ///< unit-latency longest path, inputs at depth 0
};

/// A layered random DFG in the graph text format: `layers` layers of
/// `perLayer` binary ops; every third op is a mux whose select is a fresh
/// comparison, every seventh a multiply, the rest alternate add/sub.
[[nodiscard]] GraphText layeredDfg(int layers, int perLayer, std::uint64_t seed);

/// The same graph with every node renamed (statement order kept): an
/// isomorph the design cache must recognise, whose reply must carry the new
/// names. Reordering the statements too would also be an isomorph, but the
/// pipeline breaks ties by node id, so a reordered graph can get another
/// design than the one the cache replays (see NOTES.md).
[[nodiscard]] std::string isomorphText(const std::string& text, std::uint64_t seed);

/// Paper circuit texts and their expected Table II results (files kept in
/// this directory, so library edits cannot silently move them).
struct PaperRow {
  std::string circuit;
  int steps = 0;
  int managed = 0;
  int sharedGated = 0;
  std::string reductionPercent;
  std::string units;
};
[[nodiscard]] std::vector<PaperRow> loadPaperRows(const std::string& dataDir);
[[nodiscard]] std::string loadCircuitText(const std::string& dataDir, const std::string& name);

// ---- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// Nearest-rank percentile `p` in (0.5, 1), reported only when at least ten
/// samples lie beyond it; std::nullopt otherwise.
[[nodiscard]] std::optional<double> tailPercentile(std::vector<double> samples, double p);

/// A figure for the human-readable rows (six significant digits).
[[nodiscard]] std::string fmt(double v);

/// Peak resident set (VmHWM) of a process, in MiB; `pid` 0 = this process.
[[nodiscard]] double peakRssMb(int pid = 0);

// ---- host-speed calibration ---------------------------------------------------

/// The speed of a shared host drifts by a fifth over tens of seconds with
/// its neighbours' load, so one run's wall times can sit 20% above the
/// next's. A fixed loop of the benchmark's own (sorting and hashing seeded
/// data, nothing from pmsched) slows down with the host. Timed right before
/// a measured call, it rescales that call to a host on which the loop takes
/// kCalibrationNominalMs: scaled = wall * nominal / loop. NOTES.md shows the
/// scaled figures drift by about 1% where the wall times drift by 15%.
constexpr double kCalibrationNominalMs = 10.0;

/// Run the calibration loop once; its wall time in ms.
[[nodiscard]] double calibrationLoopMs();

/// `wallMs` rescaled by a calibration loop time taken next to it.
[[nodiscard]] inline double scaledMs(double wallMs, double loopMs) {
  return wallMs * kCalibrationNominalMs / loopMs;
}

// ---- tracing --------------------------------------------------------------

/// In-memory spans (name, start, end, parent) recorded on one thread. Off,
/// a span costs nothing and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Span span(const char* name);

  /// Run `f` inside a span named `name`.
  template <class F>
  decltype(auto) call(const char* name, F&& f) {
    const Span s = span(name);
    return f();
  }

  struct Totals {
    double wallMs = 0;
    double selfMs = 0;  ///< wall minus the part covered by child spans
    int count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Chrome trace-event JSON of every span (chrome://tracing, Perfetto).
  [[nodiscard]] std::string chromeTraceJson() const;

 private:
  struct Record {
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
  };
  [[nodiscard]] std::int64_t nowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

// ---- the pipeline, one span per stage ---------------------------------------

/// Work counters gathered at the stage boundaries of runStagedJob().
struct StageCounts {
  int jobs = 0;
  long long managed = 0;
  long long sharedGated = 0;
  long long sharedSlackRejects = 0;
  int ctrlFailures = 0;
};

/// runDesignJob() rebuilt from the public stage functions in the order
/// runDesignJob()/finishDesignJob() call them, one span per stage under a
/// "bench.job" root. The trace-faithfulness guard compares its rendering
/// with runDesignJob()'s for the same job.
[[nodiscard]] pmsched::DesignOutcome runStagedJob(const pmsched::DesignJob& job, Tracer& tracer,
                                                  StageCounts& counts);

/// One job run plainly through runDesignJob() and, in a traced run, also
/// stage by stage first; the two renderings must agree (trace faithfulness).
/// A pipeline error propagates from the plain run.
struct JobRun {
  pmsched::DesignOutcome outcome;
  double plainMs = 0;
  double stagedMs = 0;
  bool faithful = true;
};
[[nodiscard]] JobRun runJob(const pmsched::DesignJob& job, Tracer& tracer, StageCounts& counts);

/// The design response a server owes for `job` (id 0, cache_hit false).
[[nodiscard]] std::string renderResponse(const pmsched::DesignOutcome& outcome);

/// Design-level checks: the schedule validates against the design graph
/// within the job's budget, and the design graph computes the input graph's
/// outputs on seeded input vectors. Empty string when every check passes.
[[nodiscard]] std::string checkDesign(const pmsched::DesignJob& job,
                                      const pmsched::DesignOutcome& outcome,
                                      std::uint64_t vectorSeed);

// ---- serve responses --------------------------------------------------------

/// Remove the `cache_hit` flag, the one field a served reply may differ in.
[[nodiscard]] std::string stripCacheHit(std::string line);

/// The value of the top-level "id" of a response line, or -1.
[[nodiscard]] long long responseId(std::string_view line);

/// Failure accounting shared by every workload: a non-ok reply, a typed
/// error, an admission refusal, a timeout or a failed check is one failed
/// operation out of the attempted ones.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  long long mismatches = 0;  ///< failed correctness checks (these fail the run)
  long long refusals = 0;    ///< admission rejections and timeouts

  /// Score one served reply. `expected` is the in-process rendering with
  /// cache_hit stripped and the same id, or nullptr when the in-process run
  /// failed (then only a typed error is acceptable).
  void scoreReply(const std::string* reply, const std::string* expected);
  void scoreCheck(bool passed);
};

// ---- metrics ------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};
/// Exactly the metrics BENCHMARK.json lists, in its order.
[[nodiscard]] const std::vector<MetricSpec>& endToEndSpecs();
[[nodiscard]] const std::vector<MetricSpec>& perLayerSpecs();

/// A workload's finished run.
struct RunResult {
  bool correct = true;
  Tally tally;
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  /// Workload-specific figures printed in the human-readable rows only
  /// (name, value text, unit).
  std::vector<std::vector<std::string>> details;
  std::vector<std::string> errors;
  std::string chromeTrace;

  void fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
};

/// One JSON object with exactly correct/attempted/failed/metrics.
[[nodiscard]] std::string resultJson(const RunResult& r, bool trace);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dataDir;    ///< this directory (circuit texts, Table II rows)
  std::string workDir;    ///< scratch directory inside the checkout
  std::string serverBin;  ///< the built `pmsched` binary
};

/// Per-layer metrics every workload reports, zero where the workload never
/// enters the layer. A `*.self_ms` is the mean self time per call.
void fillStageMetrics(RunResult& r, const Tracer& tracer, const StageCounts& counts);

RunResult runOneshotXl(const RunConfig& cfg);
RunResult runServeMix(const RunConfig& cfg);
/// serve_mix's request bodies in send order, `perPhase` per timed phase.
[[nodiscard]] std::vector<std::string> serveMixBodies(std::uint64_t seed, const std::string& dataDir,
                                                      int perPhase);
RunResult runExploreSweep(const RunConfig& cfg);

}  // namespace e2e
