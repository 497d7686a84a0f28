#include "e2ebench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "cdfg/analysis.hpp"
#include "cdfg/interpreter.hpp"
#include "cdfg/textio.hpp"
#include "power/power_model.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "server/protocol.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace e2e {

using namespace pmsched;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- deterministic inputs -------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) return 0;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % bound;
}

std::uint64_t subSeed(std::uint64_t seed, std::string_view label, std::uint64_t index) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the label
  for (const char c : label) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  Rng mix(seed ^ h ^ (index * 0xD1B54A32D192ED03ULL));
  return mix.next();
}

GraphText layeredDfg(int layers, int perLayer, std::uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(static_cast<std::size_t>(layers * perLayer) * 24 + 64);
  const auto line = [&out](std::initializer_list<std::string_view> words) {
    for (const std::string_view w : words) out.append(w).push_back(' ');
    out.back() = '\n';
  };
  line({"graph", "random_" + std::to_string(layers) + "x" + std::to_string(perLayer)});
  struct Value {
    std::string name;
    int depth;
  };
  std::vector<Value> previous;
  for (int i = 0; i < perLayer; ++i) {
    previous.push_back({"in" + std::to_string(i), 0});
    line({"input", previous.back().name, "8"});
  }
  GraphText g;
  int counter = 0;
  const auto pick = [&]() -> const Value& { return previous[rng.below(previous.size())]; };
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<Value> current;
    for (int i = 0; i < perLayer; ++i) {
      const Value& a = pick();
      const Value& b = pick();
      std::string name = "n";
      name += std::to_string(counter++);
      int depth = std::max(a.depth, b.depth) + 1;
      if (counter % 3 == 0) {
        const Value& c = pick();
        const Value& d = pick();
        const std::string select = name + "_c";
        line({"node gt", select, "1", c.name, d.name});
        line({"node mux", name, "8", select, a.name, b.name});
        depth = std::max(depth, std::max(c.depth, d.depth) + 2);
      } else {
        const char* kind = counter % 7 == 0 ? "node mul" : (counter % 2 == 0 ? "node add" : "node sub");
        line({kind, name, "8", a.name, b.name});
      }
      current.push_back({name, depth});
      g.criticalPath = std::max(g.criticalPath, depth);
    }
    previous = std::move(current);
  }
  for (std::size_t i = 0; i < previous.size(); ++i)
    line({"output", "out" + std::to_string(i), previous[i].name});
  g.text = std::move(out);
  return g;
}

namespace {

std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  for (std::string w; in >> w;) words.push_back(w);
  return words;
}

/// Positions of the node names a statement defines and uses.
struct StatementShape {
  int defines = -1;
  std::vector<int> uses;
};

StatementShape shapeOf(const std::vector<std::string>& w) {
  StatementShape s;
  if (w.empty()) return s;
  const std::string& kw = w[0];
  if (kw == "input" || kw == "const") {
    s.defines = 1;
  } else if (kw == "wire" || kw == "output") {
    s.defines = 1;
    s.uses = {2};
  } else if (kw == "node") {
    s.defines = 2;
    for (int i = 4; i < static_cast<int>(w.size()); ++i) s.uses.push_back(i);
  }
  return s;
}

}  // namespace

std::string isomorphText(const std::string& text, std::uint64_t seed) {
  Rng rng(seed);
  std::istringstream in(text);
  std::string header;
  std::vector<std::vector<std::string>> stmts;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("graph ", 0) == 0) {
      header = line;
      continue;
    }
    stmts.push_back(splitWords(line));
  }

  // Fresh names: a random permutation of indices behind a per-isomorph tag.
  std::vector<std::size_t> perm(stmts.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  const std::string tag = "v" + std::to_string(rng.below(1000)) + "_";
  std::map<std::string, std::string> rename;
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const int at = shapeOf(stmts[i]).defines;
    if (at >= 0) rename[stmts[i][static_cast<std::size_t>(at)]] = tag + std::to_string(perm[i]);
  }

  std::string out = header + "\n";
  for (std::vector<std::string>& w : stmts) {
    const StatementShape s = shapeOf(w);
    if (s.defines >= 0) w[static_cast<std::size_t>(s.defines)] = rename.at(w[static_cast<std::size_t>(s.defines)]);
    for (const int u : s.uses) w[static_cast<std::size_t>(u)] = rename.at(w[static_cast<std::size_t>(u)]);
    for (std::size_t k = 0; k < w.size(); ++k) {
      if (k > 0) out += ' ';
      out += w[k];
    }
    out += '\n';
  }
  return out;
}

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace

std::vector<PaperRow> loadPaperRows(const std::string& dataDir) {
  std::istringstream in(readFile(dataDir + "/table2_expected.txt"));
  std::vector<PaperRow> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    // circuit steps managed shared_gated reduction_percent units-to-end-of-line
    std::istringstream fields(line);
    PaperRow row;
    fields >> row.circuit >> row.steps >> row.managed >> row.sharedGated >> row.reductionPercent;
    std::getline(fields >> std::ws, row.units);
    if (row.units.empty())
      throw std::runtime_error("table2_expected.txt: malformed row '" + line + "'");
    rows.push_back(row);
  }
  return rows;
}

std::string loadCircuitText(const std::string& dataDir, const std::string& name) {
  return readFile(dataDir + "/circuits/" + name + ".txt");
}

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::optional<double> tailPercentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least p*n samples at or below.
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx), samples.end());
  return samples[idx];
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double peakRssMb(int pid) {
  const std::string path = pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// ---- host-speed calibration ---------------------------------------------------

double calibrationLoopMs() {
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  Rng rng(0x5EED);
  std::vector<std::uint64_t> keys(90000);
  for (std::uint64_t& k : keys) k = rng.next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> buckets;
  for (std::size_t i = 0; i < 30000; ++i) buckets[keys[(i * 7919) % keys.size()] >> 24] += i;
  sink = sink + keys[keys.size() / 2] + buckets.size();
  return msBetween(t0, Clock::now());
}

// ---- tracing --------------------------------------------------------------

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, nowNs(), -1, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return Span(this, open_.back());
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].endNs = tracer_->nowNs();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Record& r : spans_)
    if (r.parent >= 0) childNs[static_cast<std::size_t>(r.parent)] += r.endNs - r.startNs;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    Totals& t = out[r.name];
    t.wallMs += static_cast<double>(r.endNs - r.startNs) / 1e6;
    t.selfMs += static_cast<double>(r.endNs - r.startNs - childNs[i]) / 1e6;
    ++t.count;
  }
  return out;
}

std::string Tracer::chromeTraceJson() const {
  JsonWriter w;
  w.beginObject().key("traceEvents").beginArray();
  for (const Record& r : spans_) {
    w.beginObject()
        .key("name").value(r.name)
        .key("ph").value("X")
        .key("ts").value(static_cast<double>(r.startNs) / 1e3)
        .key("dur").value(static_cast<double>(r.endNs - r.startNs) / 1e3)
        .key("pid").value(1)
        .key("tid").value(1)
        .endObject();
  }
  w.endArray().endObject();
  return w.str();
}

// ---- the pipeline, one span per stage ---------------------------------------

DesignOutcome runStagedJob(const DesignJob& job, Tracer& tracer, StageCounts& counts) {
  const Tracer::Span root = tracer.span("bench.job");
  ++counts.jobs;
  DesignOutcome out;
  out.design = tracer.call("sched.transform", [&] {
    return job.optimal ? applyPowerManagementOptimal(job.graph, job.steps, 24, nullptr)
                       : applyPowerManagement(job.graph, job.steps, job.ordering);
  });
  counts.managed += out.design.managedCount();
  if (job.shared) {
    out.sharedGated = tracer.call("sched.shared_gating", [&] {
      return applySharedGating(out.design, nullptr, &out.sharedGatingSlackRejects);
    });
    counts.sharedGated += out.sharedGated;
    counts.sharedSlackRejects += out.sharedGatingSlackRejects;
  }
  out.units = tracer.call("sched.minimize_resources",
                          [&] { return minimizeResources(out.design.graph, job.steps); });
  const ListScheduleResult scheduled = tracer.call(
      "sched.list_schedule", [&] { return listSchedule(out.design.graph, job.steps, out.units); });
  if (!scheduled.schedule) throw InfeasibleError(scheduled.message);
  out.schedule = *scheduled.schedule;
  out.binding = tracer.call("alloc.bind", [&] { return bindDesign(out.design.graph, out.schedule); });
  out.activation = tracer.call("power.activation", [&] { return analyzeActivation(out.design); });
  try {
    out.controller = tracer.call("ctrl.synthesize", [&] {
      return synthesizeController(out.design, out.schedule, out.binding, out.activation);
    });
  } catch (const SynthesisError&) {
    ++counts.ctrlFailures;
    throw;
  }

  // The summary exactly as finishDesignJob() fills it for an unbudgeted run.
  DesignSummary& s = out.summary;
  s.ops = countOps(job.graph).totalUnits();
  s.criticalPath = criticalPathLength(job.graph);
  s.steps = job.steps;
  s.managed = out.design.managedCount();
  s.sharedGated = out.sharedGated;
  s.units = out.units.toString();
  s.reductionPercent = fixed(out.activation.reductionPercent(OpPowerModel::paperWeights()), 2);
  s.degraded = out.design.degraded || out.activation.degraded;
  if (s.degraded)
    s.degradeReason = out.design.degradeReason.empty() ? "stage-local limit" : out.design.degradeReason;
  return out;
}

JobRun runJob(const DesignJob& job, Tracer& tracer, StageCounts& counts) {
  JobRun run;
  std::optional<DesignOutcome> staged;
  // The staged run gets its own copy, so both runs find the graph in the
  // same state; which goes first alternates, so order effects cancel in the
  // trace-overhead figure.
  const auto runStaged = [&] {
    const DesignJob copy = job;
    const auto t0 = Clock::now();
    try {
      staged = runStagedJob(copy, tracer, counts);
    } catch (const SynthesisError&) {
      // Counted in ctrl.failures; the plain run fails the same way.
    }
    run.stagedMs = msBetween(t0, Clock::now());
  };
  const bool stagedFirst = tracer.enabled() && counts.jobs % 2 == 0;
  if (stagedFirst) runStaged();
  const auto t1 = Clock::now();
  run.outcome = runDesignJob(job);
  run.plainMs = msBetween(t1, Clock::now());
  if (tracer.enabled() && !stagedFirst) runStaged();
  if (tracer.enabled()) run.faithful = staged && renderResponse(*staged) == renderResponse(run.outcome);
  return run;
}

std::string renderResponse(const DesignOutcome& outcome) {
  return makeDesignResponse("0", outcome.summary, saveGraphText(outcome.design.graph), false);
}

std::string checkDesign(const DesignJob& job, const DesignOutcome& outcome, std::uint64_t vectorSeed) {
  try {
    if (outcome.schedule.steps() > job.steps)
      return "schedule uses " + std::to_string(outcome.schedule.steps()) + " steps, budget " +
             std::to_string(job.steps);
    outcome.schedule.validate(outcome.design.graph);
  } catch (const std::exception& e) {
    return std::string("schedule does not validate: ") + e.what();
  }
  const Graph& in = job.graph;
  const Graph& design = outcome.design.graph;
  Rng rng(vectorSeed);
  for (int v = 0; v < 3; ++v) {
    std::map<std::string, std::int64_t> inputs;
    for (const NodeId id : in.nodesOfKind(OpKind::Input))
      inputs[in.node(id).name] = static_cast<std::int64_t>(rng.below(256)) - 128;
    if (evaluateGraph(in, inputs) != evaluateGraph(design, inputs))
      return "design graph computes different outputs on vector " + std::to_string(v);
  }
  return {};
}

// ---- serve responses --------------------------------------------------------

std::string stripCacheHit(std::string line) {
  for (const char* marker : {",\"cache_hit\":true", ",\"cache_hit\":false"}) {
    const std::size_t at = line.find(marker);
    if (at != std::string::npos) line.erase(at, std::char_traits<char>::length(marker));
  }
  return line;
}

long long responseId(std::string_view line) {
  constexpr std::string_view prefix = "{\"id\":";
  if (line.substr(0, prefix.size()) != prefix) return -1;
  long long id = 0;
  std::size_t i = prefix.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return -1;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) id = id * 10 + (line[i] - '0');
  return id;
}

void Tally::scoreReply(const std::string* reply, const std::string* expected) {
  ++attempted;
  if (reply == nullptr) {  // never answered: a timeout
    ++failed;
    ++refusals;
    return;
  }
  const bool ok = reply->find("\"ok\":true") != std::string::npos;
  if (!ok) {
    ++failed;
    if (reply->find("\"category\":\"admission\"") != std::string::npos) ++refusals;
    return;
  }
  if (expected == nullptr || stripCacheHit(*reply) != *expected) {
    ++failed;
    ++mismatches;
  }
}

void Tally::scoreCheck(bool passed) {
  ++attempted;
  if (!passed) {
    ++failed;
    ++mismatches;
  }
}

// ---- metrics ------------------------------------------------------------------

const std::vector<MetricSpec>& endToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"latency_ms_p50", "ms", "lower"},
      {"power_reduction_pct", "%", "higher"},
      {"unit_area", "area", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& perLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"sched.transform.self_ms", "ms", "lower"},
      {"sched.transform.managed", "count", "higher"},
      {"sched.shared_gating.self_ms", "ms", "lower"},
      {"sched.shared_gating.accept_ratio", "ratio", "higher"},
      {"sched.minimize_resources.self_ms", "ms", "lower"},
      {"sched.list_schedule.self_ms", "ms", "lower"},
      {"alloc.bind.self_ms", "ms", "lower"},
      {"power.activation.self_ms", "ms", "lower"},
      {"ctrl.synthesize.self_ms", "ms", "lower"},
      {"ctrl.failures", "count", "lower"},
      {"cdfg.load_text.self_ms", "ms", "lower"},
      {"cdfg.canonicalize.self_ms", "ms", "lower"},
      {"explore.sweep.self_ms", "ms", "lower"},
      {"explore.full_runs", "count", "lower"},
      {"explore.amortized_ratio", "ratio", "higher"},
      {"explore.pruned_ratio", "ratio", "higher"},
      {"explore.skipped", "count", "lower"},
      {"server.service_ms_p50", "ms", "lower"},
      {"server.wait_ms_p99", "ms", "lower"},
      {"server.stats.self_ms", "ms", "lower"},
      {"server.cache.exact_hit_ratio", "ratio", "higher"},
      {"server.cache.hit_ratio", "ratio", "higher"},
      {"server.cache.inserts", "count", "lower"},
      {"server.worker_restarts", "count", "lower"},
      {"server.retries", "count", "lower"},
      {"server.rejected_admission", "count", "lower"},
      {"bench.stage_coverage_pct", "%", "higher"},
      {"bench.trace_overhead_pct", "%", "lower"},
      {"bench.late_ms_p99", "ms", "lower"},
  };
  return specs;
}

std::string resultJson(const RunResult& r, bool trace) {
  JsonWriter w;
  w.beginObject()
      .key("correct").value(r.correct)
      .key("attempted").value(static_cast<std::int64_t>(std::max(1LL, r.tally.attempted)))
      .key("failed").value(static_cast<std::int64_t>(r.tally.failed))
      .key("metrics").beginObject();
  const std::map<std::string, double>& values = trace ? r.perLayer : r.endToEnd;
  for (const MetricSpec& spec : trace ? perLayerSpecs() : endToEndSpecs()) {
    const auto it = values.find(spec.name);
    if (it == values.end()) throw std::logic_error(std::string("metric not measured: ") + spec.name);
    w.key(spec.name).beginObject().key("value").value(it->second).key("unit").value(spec.unit).endObject();
  }
  w.endObject().endObject();
  return w.str();
}

void fillStageMetrics(RunResult& r, const Tracer& tracer, const StageCounts& counts) {
  for (const MetricSpec& spec : perLayerSpecs()) r.perLayer.emplace(spec.name, 0.0);
  const auto totals = tracer.totals();
  const auto selfMs = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.selfMs / it->second.count;
  };
  for (const char* stage : {"sched.transform", "sched.shared_gating", "sched.minimize_resources",
                            "sched.list_schedule", "alloc.bind", "power.activation",
                            "ctrl.synthesize", "cdfg.load_text", "cdfg.canonicalize",
                            "explore.sweep", "server.stats"}) {
    r.perLayer[std::string(stage) + ".self_ms"] = selfMs(stage);
  }
  if (counts.jobs > 0)
    r.perLayer["sched.transform.managed"] = static_cast<double>(counts.managed) / counts.jobs;
  const long long gatingTries = counts.sharedGated + counts.sharedSlackRejects;
  if (gatingTries > 0)
    r.perLayer["sched.shared_gating.accept_ratio"] =
        static_cast<double>(counts.sharedGated) / static_cast<double>(gatingTries);
  r.perLayer["ctrl.failures"] = counts.ctrlFailures;
  const auto job = totals.find("bench.job");
  if (job != totals.end() && job->second.wallMs > 0)
    r.perLayer["bench.stage_coverage_pct"] =
        100.0 * (job->second.wallMs - job->second.selfMs) / job->second.wallMs;
}

}  // namespace e2e
