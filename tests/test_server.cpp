// ServerCore suite: differential (server response == one-shot service run),
// cache bit-identity across renamed isomorphs, admission/fairness with the
// deterministic workerless drain, session lifecycle, typed errors, and a
// concurrent multi-session run (the TSan job leans on this one).

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "graph_permute.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/transport.hpp"
#include "support/fault_injector.hpp"
#include "support/json.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

std::string designFrame(int id, const std::string& graphText, int steps,
                        const std::string& extra = {}) {
  JsonWriter g;
  g.value(graphText);
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"design\",\"graph\":" + g.str() +
         ",\"steps\":" + std::to_string(steps) + extra + "}";
}

/// Submit one frame and return the (parsed) single response.
JsonValue roundTrip(ServerCore& core, const std::string& frame) {
  std::vector<std::string> out;
  core.submitFrame(frame, [&](const std::string& line) { out.push_back(line); });
  core.waitIdle();
  EXPECT_EQ(out.size(), 1u) << frame;
  return parseJson(out.at(0));
}

const JsonValue& field(const JsonValue& response, const char* name) {
  const JsonValue* v = response.find(name);
  EXPECT_NE(v, nullptr) << name;
  return *v;
}

std::string errorCategory(const JsonValue& response) {
  EXPECT_FALSE(field(response, "ok").asBool());
  return field(field(response, "error"), "category").asString();
}

TEST(Server, PingStatsAndSessionLifecycle) {
  ServerCore core(ServerOptions{});
  EXPECT_TRUE(field(roundTrip(core, R"({"id":1,"op":"ping"})"), "ok").asBool());

  const JsonValue open =
      roundTrip(core, R"({"id":2,"op":"open_session","session":"a"})");
  EXPECT_TRUE(field(open, "ok").asBool());

  // Duplicate open and unknown close are typed protocol errors.
  EXPECT_EQ(errorCategory(
                roundTrip(core, R"({"id":3,"op":"open_session","session":"a"})")),
            "protocol");
  EXPECT_EQ(errorCategory(
                roundTrip(core, R"({"id":4,"op":"close_session","session":"zz"})")),
            "protocol");

  EXPECT_EQ(core.openSessions(), 1u);
  EXPECT_TRUE(field(roundTrip(core, R"({"id":5,"op":"close_session","session":"a"})"),
                    "ok")
                  .asBool());
  EXPECT_EQ(core.openSessions(), 0u);

  const JsonValue stats = roundTrip(core, R"({"id":6,"op":"stats"})");
  const JsonValue& sessions = field(field(stats, "result"), "sessions");
  EXPECT_EQ(field(sessions, "opened").asInt(), 1);
  EXPECT_EQ(field(sessions, "closed").asInt(), 1);
}

TEST(Server, DesignResponseMatchesOneShotServiceRun) {
  const Graph g = randomLayeredDfg(4, 4, 21);
  const int steps = 9;

  DesignJob job;
  job.graph = g;
  job.steps = steps;
  const DesignOutcome expected = runDesignJob(job);
  const std::string expectedText = saveGraphText(expected.design.graph);

  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);
  const JsonValue response = roundTrip(core, designFrame(1, saveGraphText(g), steps));
  ASSERT_TRUE(field(response, "ok").asBool());
  const JsonValue& result = field(response, "result");
  EXPECT_EQ(field(result, "managed").asInt(), expected.summary.managed);
  EXPECT_EQ(field(result, "shared_gated").asInt(), expected.summary.sharedGated);
  EXPECT_EQ(field(result, "units").asString(), expected.summary.units);
  EXPECT_EQ(field(result, "reduction_percent").asString(),
            expected.summary.reductionPercent);
  EXPECT_FALSE(field(result, "degraded").asBool());
  EXPECT_EQ(field(result, "design").asString(), expectedText);
}

TEST(Server, DesignOutcomeTracesEveryStage) {
  DesignJob job;
  job.graph = randomLayeredDfg(32, 6, 3);
  job.steps = criticalPathLength(job.graph) + 2;
  for (const bool shared : {false, true}) {
    job.shared = shared;
    const DesignOutcome out = runDesignJob(job);
    const StageTrace& trace = out.trace;
    EXPECT_FALSE(trace.running());
    for (std::size_t i = 0; i < kNumStages; ++i) {
      const Stage stage = static_cast<Stage>(i);
      if (stage != Stage::SharedGating || shared) {
        EXPECT_GT(trace[stage].ns, 0) << stageName(stage);
      }
    }
    ASSERT_GT(out.design.managedCount(), 0);
    EXPECT_GT(trace[Stage::Transform].frameWrites, 0u);
    EXPECT_EQ(trace[Stage::Transform].frameWrites + trace[Stage::SharedGating].frameWrites,
              out.design.oracleFrameWrites);
    if (!shared) {
      EXPECT_EQ(trace[Stage::SharedGating].ns, 0);
    }
    // The minimum-resource search runs at least once, and the trace counts
    // exactly the runs it made.
    const MinimizedSchedule minimized = minimizeSchedule(out.design.graph, job.steps);
    EXPECT_GE(minimized.runs, 1);
    EXPECT_EQ(trace[Stage::Minimize].listRuns, static_cast<std::uint64_t>(minimized.runs));
    EXPECT_EQ(trace[Stage::Bind].listRuns, 0u);
  }
}

TEST(Server, CacheHitIsBitIdenticalAndSurvivesRenaming) {
  const Graph g = randomLayeredDfg(4, 3, 5);
  const int steps = 8;
  const std::string text = saveGraphText(g);

  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);

  const JsonValue first = roundTrip(core, designFrame(1, text, steps));
  ASSERT_TRUE(field(first, "ok").asBool());
  EXPECT_FALSE(field(field(first, "result"), "cache_hit").asBool());

  // Verbatim repeat: identical design text, served from the cache.
  const JsonValue repeat = roundTrip(core, designFrame(2, text, steps));
  EXPECT_TRUE(field(field(repeat, "result"), "cache_hit").asBool());
  EXPECT_EQ(field(field(repeat, "result"), "design").asString(),
            field(field(first, "result"), "design").asString());

  // A renamed isomorph (same graph, different node names via round-trip
  // through a renamed save) must hit the cache AND come back with ITS OWN
  // names — exactly what a cold run on that graph would produce.
  Graph renamed = loadGraphText(text);
  renamed.setName("other");
  const std::string renamedText = saveGraphText(renamed);
  DesignJob job;
  job.graph = renamed;
  job.steps = steps;
  const std::string expectedRenamed = saveGraphText(runDesignJob(job).design.graph);

  const JsonValue hit = roundTrip(core, designFrame(3, renamedText, steps));
  ASSERT_TRUE(field(hit, "ok").asBool());
  EXPECT_TRUE(field(field(hit, "result"), "cache_hit").asBool());
  EXPECT_EQ(field(field(hit, "result"), "design").asString(), expectedRenamed);

  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.inserts, 1u);
}

/// What a one-shot in-process run of `text` replies: runDesignJob +
/// makeDesignResponse, or the typed error the server sends for it.
std::string oneShotReply(int id, const std::string& text, int steps) {
  DesignJob job;
  job.graph = loadGraphText(text);
  job.steps = steps;
  const std::string idJson = std::to_string(id);
  try {
    const DesignOutcome out = runDesignJob(job);
    return makeDesignResponse(idJson, out.summary, saveGraphText(out.design.graph),
                              /*cacheHit=*/false);
  } catch (const InfeasibleError& e) {
    return makeErrorResponse(idJson, ServerErrorCategory::Infeasible, e.what());
  } catch (const SynthesisError& e) {
    return makeErrorResponse(idJson, ServerErrorCategory::Internal, e.what());
  }
}

/// Submit one frame; the single raw reply line with cache_hit forced false.
std::string replyIgnoringCacheHit(ServerCore& core, const std::string& frame, bool& cacheHit) {
  std::vector<std::string> out;
  core.submitFrame(frame, [&](const std::string& line) { out.push_back(line); });
  core.waitIdle();
  EXPECT_EQ(out.size(), 1u) << frame;
  std::string reply = out.at(0);
  const std::string hit = "\"cache_hit\":true";
  const std::size_t at = reply.find(hit);
  cacheHit = at != std::string::npos;
  if (cacheHit) reply.replace(at, hit.size(), "\"cache_hit\":false");
  return reply;
}

TEST(Server, ReorderedIsomorphsMissAndMatchOneShotRuns) {
  // The pipeline breaks ties by node id, so one graph written in another
  // producers-first statement order can get a different design. Every
  // reply must be what a one-shot run of ITS text gives: a reordering hits
  // only when its canonical order permutation was seen before, while a
  // renamed copy in the same statement order still hits.
  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);
  std::mt19937_64 rng(0x0DE5);
  const std::vector<std::pair<int, int>> shapes = {{16, 4}, {24, 4}, {32, 6}, {48, 8}, {64, 8}};
  std::set<std::pair<std::string, std::vector<std::uint32_t>>> warm;  // (text, order) keys
  int id = 0, reorderings = 0, misses = 0, renamedHits = 0;
  for (const auto& [layers, perLayer] : shapes) {
    for (const std::uint64_t seed : {3ULL, 8ULL}) {
      const Graph base = randomLayeredDfg(layers, perLayer, seed);
      const int steps = criticalPathLength(base) + static_cast<int>(rng() % 9);
      std::vector<std::string> texts = {saveGraphText(base)};
      for (int r = 0; r < 3; ++r)
        texts.push_back(saveGraphText(rebuildInOrder(base, randomTopoOrder(base, rng))));
      for (std::size_t t = 0; t < texts.size(); ++t) {
        const CanonicalForm form = canonicalizeGraph(loadGraphText(texts[t]));
        const bool seen = !warm.emplace(form.text, form.order).second;
        bool cacheHit = false;
        const std::string reply =
            replyIgnoringCacheHit(core, designFrame(++id, texts[t], steps), cacheHit);
        EXPECT_EQ(reply, oneShotReply(id, texts[t], steps))
            << layers << "x" << perLayer << ":" << seed << " text " << t;
        const bool ok = reply.find("\"ok\":true") != std::string::npos;
        if (ok) {
          EXPECT_EQ(cacheHit, seen) << layers << "x" << perLayer << " text " << t;
        }
        if (t > 0) {
          ++reorderings;
          misses += cacheHit ? 0 : 1;
        }
      }
      // Renamed, same statement order as the base text: served warm, with
      // its own names.
      const std::string renamed = saveGraphText(rebuildInOrder(base, base.allNodes(), "v"));
      bool cacheHit = false;
      const std::string reply =
          replyIgnoringCacheHit(core, designFrame(++id, renamed, steps), cacheHit);
      EXPECT_EQ(reply, oneShotReply(id, renamed, steps));
      if (reply.find("\"ok\":true") != std::string::npos) {
        EXPECT_TRUE(cacheHit) << layers << "x" << perLayer << ":" << seed;
        renamedHits += cacheHit ? 1 : 0;
      }
    }
  }
  EXPECT_GE(reorderings, 20);
  EXPECT_GE(misses, 20);
  EXPECT_GE(renamedHits, 5);
}

TEST(Server, CacheRespectsOptionsAndOptOut) {
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 9));
  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);

  roundTrip(core, designFrame(1, text, 8));
  // Different steps: different key, no hit.
  const JsonValue other = roundTrip(core, designFrame(2, text, 9));
  EXPECT_FALSE(field(field(other, "result"), "cache_hit").asBool());
  // cache:false bypasses lookup and insert entirely.
  const std::uint64_t hitsBefore = core.statsSnapshot().cache.hits;
  roundTrip(core, designFrame(3, text, 8, ",\"cache\":false"));
  EXPECT_EQ(core.statsSnapshot().cache.hits, hitsBefore);
  // A budgeted request bypasses the cache too (wall-clock dependent).
  roundTrip(core, designFrame(4, text, 8, ",\"budget\":{\"ms\":60000}"));
  EXPECT_EQ(core.statsSnapshot().cache.hits, hitsBefore);
}

TEST(Server, AdmissionRejectsBeyondCapacityTyped) {
  ServerOptions opts;
  opts.workers = 0;  // deterministic: nothing drains until we say so
  opts.queueCapacity = 2;
  ServerCore core(opts);
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 1));

  std::vector<std::string> out;
  auto sink = [&](const std::string& line) { out.push_back(line); };
  core.submitFrame(designFrame(1, text, 8), sink);
  core.submitFrame(designFrame(2, text, 8), sink);
  EXPECT_TRUE(out.empty());  // both queued
  core.submitFrame(designFrame(3, text, 8), sink);
  ASSERT_EQ(out.size(), 1u);  // third rejected immediately
  const JsonValue rejected = parseJson(out.back());
  EXPECT_EQ(errorCategory(rejected), "admission");
  EXPECT_EQ(field(rejected, "id").asInt(), 3);

  while (core.drainOne()) {
  }
  EXPECT_EQ(out.size(), 3u);
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejectedAdmission, 1u);
}

TEST(Server, FairnessSmallBurstThenLarge) {
  ServerOptions opts;
  opts.workers = 0;
  opts.queueCapacity = 16;
  opts.smallRequestBytes = 512;  // the 6x6 graph text is well past this
  ServerCore core(opts);
  const std::string small = saveGraphText(randomLayeredDfg(2, 2, 1));
  ASSERT_LE(small.size(), opts.smallRequestBytes);
  const std::string large = saveGraphText(randomLayeredDfg(6, 6, 1));
  ASSERT_GT(large.size(), opts.smallRequestBytes);

  std::vector<int> order;
  auto sink = [&](const std::string& line) {
    order.push_back(static_cast<int>(field(parseJson(line), "id").asInt()));
  };
  core.submitFrame(designFrame(100, large, 12), sink);
  for (int id = 1; id <= 6; ++id) core.submitFrame(designFrame(id, small, 6), sink);
  while (core.drainOne()) {
  }
  // Four smalls may jump the waiting large; then the large goes.
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[3], 4);
  EXPECT_EQ(order[4], 100);
  EXPECT_EQ(order[5], 5);
  EXPECT_EQ(order[6], 6);
}

TEST(Server, TypedErrorsForBadFramesAndBadRequests) {
  ServerOptions opts;
  opts.workers = 1;
  opts.maxFrameBytes = 4096;
  ServerCore core(opts);

  EXPECT_EQ(errorCategory(roundTrip(core, "{not json")), "protocol");
  EXPECT_EQ(errorCategory(roundTrip(core, "[1,2,3]")), "protocol");
  EXPECT_EQ(errorCategory(roundTrip(core, R"({"id":1,"op":"nope"})")), "protocol");
  EXPECT_EQ(errorCategory(roundTrip(core, R"({"id":1,"op":"design","steps":4})")),
            "protocol");  // missing graph
  EXPECT_EQ(errorCategory(roundTrip(
                core, R"({"id":1,"op":"design","graph":"x","steps":0})")),
            "usage");
  EXPECT_EQ(errorCategory(roundTrip(
                core, R"({"id":1,"op":"design","graph":"x","steps":4,"ordering":"zig"})")),
            "usage");
  // The embedded graph text is garbage -> graph-level parse error.
  EXPECT_EQ(errorCategory(roundTrip(
                core, R"({"id":1,"op":"design","graph":"not a graph","steps":4})")),
            "parse");
  // Infeasible step budget.
  const std::string text = saveGraphText(randomLayeredDfg(4, 4, 2));
  EXPECT_EQ(errorCategory(roundTrip(core, designFrame(9, text, 1))), "infeasible");
  // Oversized frame.
  const std::string fat(8192, 'x');
  EXPECT_EQ(errorCategory(roundTrip(core, designFrame(10, fat, 4))), "protocol");
  // An unreadable id still gets a response, with id null.
  const JsonValue broken = roundTrip(core, R"({"id":[1],"op":"ping"})");
  EXPECT_TRUE(field(broken, "id").isNull());
  EXPECT_EQ(errorCategory(broken), "protocol");
}

TEST(Server, ShutdownReportsLeakedSessionsAndStopsServing) {
  ServerCore core(ServerOptions{});
  roundTrip(core, R"({"id":1,"op":"open_session","session":"leak1"})");
  roundTrip(core, R"({"id":2,"op":"open_session","session":"leak2"})");

  std::vector<std::string> out;
  const bool keepServing = core.submitFrame(R"({"id":3,"op":"shutdown"})",
                                            [&](const std::string& l) { out.push_back(l); });
  EXPECT_FALSE(keepServing);
  ASSERT_EQ(out.size(), 1u);
  const JsonValue response = parseJson(out[0]);
  EXPECT_TRUE(field(response, "ok").asBool());
  EXPECT_EQ(field(field(response, "result"), "leaked_sessions").asInt(), 2);

  // Post-shutdown designs are rejected as admission errors.
  out.clear();
  core.submitFrame(designFrame(4, "g", 4), [&](const std::string& l) { out.push_back(l); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(errorCategory(parseJson(out[0])), "admission");
}

TEST(Server, StdioTransportServesJsonl) {
  ServerOptions opts;
  opts.workers = 1;
  ServerCore core(opts);
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 4));
  std::istringstream in(std::string(R"({"id":1,"op":"ping"})") + "\n\n" +
                        designFrame(2, text, 8) + "\n");
  std::ostringstream out;
  EXPECT_EQ(serveStdio(core, in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  int responses = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(field(parseJson(line), "ok").asBool());
    ++responses;
  }
  EXPECT_EQ(responses, 2);
}

TEST(Server, ResponsesIdenticalAcrossWorkerLaneCounts) {
  const std::string text = saveGraphText(randomLayeredDfg(4, 4, 13));
  std::string designAt[2];
  const std::size_t lanes[2] = {1, 2};
  for (int i = 0; i < 2; ++i) {
    ServerOptions opts;
    opts.workers = 1;
    opts.threadsPerWorker = lanes[i];
    ServerCore core(opts);
    const JsonValue r = roundTrip(core, designFrame(1, text, 9));
    ASSERT_TRUE(field(r, "ok").asBool());
    designAt[i] = field(field(r, "result"), "design").asString();
  }
  EXPECT_EQ(designAt[0], designAt[1]);
}

TEST(Server, ConcurrentSessionsComplete) {
  ServerOptions opts;
  opts.workers = 4;
  opts.threadsPerWorker = 2;
  opts.queueCapacity = 256;
  ServerCore core(opts);

  constexpr int kClients = 4;
  constexpr int kRequests = 4;
  std::vector<std::vector<std::string>> outputs(kClients);
  // Sinks for one client may race with its own submits. Workers call them
  // after the client thread has returned, so the mutexes outlive it.
  std::array<std::mutex, kClients> sinkMutex;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto sink = [&outputs, &sinkMutex, c](const std::string& line) {
        std::lock_guard<std::mutex> lock(sinkMutex[static_cast<std::size_t>(c)]);
        outputs[static_cast<std::size_t>(c)].push_back(line);
      };
      const std::string session = "client" + std::to_string(c);
      core.submitFrame("{\"id\":0,\"op\":\"open_session\",\"session\":\"" + session +
                           "\"}",
                       sink);
      const std::string text =
          saveGraphText(randomLayeredDfg(3, 3, 100 + static_cast<std::uint64_t>(c)));
      for (int r = 1; r <= kRequests; ++r)
        core.submitFrame(designFrame(r, text, 8,
                                     ",\"session\":\"" + session + "\""),
                         sink);
      core.submitFrame("{\"id\":99,\"op\":\"close_session\",\"session\":\"" + session +
                           "\"}",
                       sink);
    });
  }
  for (std::thread& t : clients) t.join();
  core.waitIdle();

  EXPECT_EQ(core.openSessions(), 0u);  // zero leaked sessions
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(outputs[c].size(), static_cast<std::size_t>(kRequests) + 2) << c;
    std::string firstDesign;
    for (const std::string& line : outputs[c]) {
      const JsonValue v = parseJson(line);
      EXPECT_TRUE(field(v, "ok").asBool()) << line;
      if (const JsonValue* result = v.find("result")) {
        if (const JsonValue* design = result->find("design")) {
          // Every response within a client is for the same graph: all
          // design texts must agree (cache hits included).
          if (firstDesign.empty()) firstDesign = design->asString();
          else EXPECT_EQ(design->asString(), firstDesign);
        }
      }
    }
  }
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.completed, stats.accepted);
}

// ---- supervision, deadlines, drain, restart (PR 9) -------------------------

/// Disarm the fault injector even when an assertion fails mid-test.
struct FaultGuard {
  ~FaultGuard() { fault::arm(""); }
};

TEST(Server, WorkerCrashIsRetriedInvisibly) {
  FaultGuard guard;
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 7));

  ServerOptions opts;
  opts.workers = 0;  // deterministic: we drain on this thread
  opts.retryBackoffMs = 0;
  std::string clean;
  {
    ServerCore core(opts);
    std::vector<std::string> out;
    core.submitFrame(designFrame(1, text, 8), [&](const std::string& l) { out.push_back(l); });
    while (core.drainOne()) {
    }
    ASSERT_EQ(out.size(), 1u);
    clean = out[0];
  }

  fault::arm("worker-crash:1");
  ServerCore core(opts);
  std::vector<std::string> out;
  core.submitFrame(designFrame(1, text, 8), [&](const std::string& l) { out.push_back(l); });
  while (core.drainOne()) {
  }
  fault::arm("");

  // The crash is invisible to the requester: exactly one response, and it is
  // byte-identical to the crash-free run (the retry bypasses the cache, so
  // cache_hit stays false on both sides).
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], clean);
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.workerRestarts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Server, CrashOnTheRetryYieldsOneTypedInternalError) {
  FaultGuard guard;
  ServerOptions opts;
  opts.workers = 0;
  opts.retryBackoffMs = 0;
  ServerCore core(opts);
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 7));

  fault::arm("worker-crash:1,worker-crash:2");  // first attempt AND the retry
  std::vector<std::string> out;
  core.submitFrame(designFrame(1, text, 8), [&](const std::string& l) { out.push_back(l); });
  while (core.drainOne()) {
  }
  fault::arm("");

  ASSERT_EQ(out.size(), 1u) << "never silence, never a duplicate";
  const JsonValue response = parseJson(out[0]);
  EXPECT_EQ(errorCategory(response), "internal");
  EXPECT_EQ(field(response, "id").asInt(), 1);
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.workerRestarts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Server, SynthesisErrorIsTypedWithoutRestartOrRetry) {
  // The control edge d1 -> gt plus the transform's gt -> d1 close a cycle,
  // so the greedy transform throws SynthesisError in strict and shared
  // mode. That is a deterministic pipeline verdict, not a worker crash: one
  // typed internal reply, and supervision never engages.
  const Graph g = loadGraphText(
      "graph loop\n"
      "input a 8\n"
      "input b 8\n"
      "node gt gt 1 a b\n"
      "node sub d1 8 a b\n"
      "node sub d2 8 b a\n"
      "node mux r 8 gt d1 d2\n"
      "output r_out r\n"
      "ctrl d1 gt\n");
  const int steps = criticalPathLength(g) + 2;
  DesignJob dj;
  dj.graph = g;
  dj.steps = steps;
  ASSERT_THROW((void)runDesignJob(dj), SynthesisError);
  dj.shared = false;
  ASSERT_THROW((void)runDesignJob(dj), SynthesisError);

  ServerOptions opts;
  opts.workers = 0;
  opts.retryBackoffMs = 0;
  ServerCore core(opts);
  std::vector<std::string> out;
  core.submitFrame(designFrame(1, saveGraphText(g), steps),
                   [&](const std::string& l) { out.push_back(l); });
  while (core.drainOne()) {
  }
  ASSERT_EQ(out.size(), 1u);
  const JsonValue response = parseJson(out[0]);
  EXPECT_EQ(errorCategory(response), "internal");
  EXPECT_EQ(field(response, "id").asInt(), 1);

  const JsonValue stats = roundTrip(core, R"({"id":2,"op":"stats"})");
  const JsonValue& supervision = field(field(stats, "result"), "supervision");
  EXPECT_EQ(field(supervision, "worker_restarts").asInt(), 0);
  EXPECT_EQ(field(supervision, "retries").asInt(), 0);
  EXPECT_EQ(core.statsSnapshot().completed, 1u);
}

TEST(Server, DefaultDeadlineBoundsUnbudgetedRequests) {
  ServerOptions opts;
  opts.workers = 0;
  opts.defaultDeadlineMs = 1;
  ServerCore core(opts);

  // An exact-DFS request big enough that a 1 ms deadline must trip (about
  // 20 ms unbudgeted); the response is still a valid design, just degraded
  // — same contract as a client-sent budget.
  const Graph g = randomLayeredDfg(96, 8, 1);
  const int steps = criticalPathLength(g) + 2;
  std::vector<std::string> out;
  core.submitFrame(designFrame(1, saveGraphText(g), steps, ",\"optimal\":true"),
                   [&](const std::string& l) { out.push_back(l); });
  while (core.drainOne()) {
  }
  ASSERT_EQ(out.size(), 1u);
  const JsonValue degraded = parseJson(out[0]);
  EXPECT_TRUE(field(degraded, "ok").asBool());
  EXPECT_TRUE(field(field(degraded, "result"), "degraded").asBool());
  EXPECT_GE(core.statsSnapshot().deadlineTrips, 1u);

  // A client budget always wins over the server default: with a generous
  // budget.ms the same request is NOT cut off at 1 ms.
  out.clear();
  const std::string small = saveGraphText(randomLayeredDfg(3, 3, 7));
  core.submitFrame(designFrame(2, small, 8, ",\"budget\":{\"ms\":60000}"),
                   [&](const std::string& l) { out.push_back(l); });
  while (core.drainOne()) {
  }
  ASSERT_EQ(out.size(), 1u);
  const JsonValue budgeted = parseJson(out[0]);
  EXPECT_TRUE(field(budgeted, "ok").asBool());
  EXPECT_FALSE(field(field(budgeted, "result"), "degraded").asBool());
}

TEST(Server, DrainFailsQueuedWorkTypedAndCountsIt) {
  ServerOptions opts;
  opts.workers = 0;  // nothing ever picks the jobs up
  opts.drainDeadlineMs = 10;
  ServerCore core(opts);
  const std::string text = saveGraphText(randomLayeredDfg(3, 3, 7));

  std::vector<std::string> out;
  auto sink = [&](const std::string& l) { out.push_back(l); };
  core.submitFrame(designFrame(1, text, 8), sink);
  core.submitFrame(designFrame(2, text, 8), sink);
  EXPECT_TRUE(out.empty());
  core.drain();

  ASSERT_EQ(out.size(), 2u) << "every admitted request is answered";
  for (const std::string& line : out) {
    EXPECT_EQ(errorCategory(parseJson(line)), "admission");
    EXPECT_NE(line.find("drained"), std::string::npos) << line;
  }
  const ServerStats stats = core.statsSnapshot();
  EXPECT_EQ(stats.drainAbandoned, 2u);
  EXPECT_EQ(stats.completed, 2u);  // the books balance: nothing stays in flight
}

TEST(Server, RestartWithPersistedCacheServesIdenticalWarmResponses) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("pmsched_server_restart_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string persist = (dir / "design.cache").string();

  ServerOptions opts;
  opts.workers = 1;
  opts.cachePersistPath = persist;
  const std::string text = saveGraphText(randomLayeredDfg(4, 4, 21));
  const std::string frame = designFrame(1, text, 9);

  std::string first;
  {
    ServerCore core(opts);
    const JsonValue r = roundTrip(core, frame);
    ASSERT_TRUE(field(r, "ok").asBool());
    EXPECT_FALSE(field(field(r, "result"), "cache_hit").asBool());
    std::vector<std::string> out;
    core.submitFrame(frame, [&](const std::string& l) { out.push_back(l); });
    core.waitIdle();
    first = out.at(0);
  }  // destroyed WITHOUT drain: the journal alone carries the entry

  // kill -9 model: the journal ends mid-record; the valid prefix must load.
  {
    std::ofstream tail(persist + ".journal", std::ios::binary | std::ios::app);
    tail << "GARBAGE-TAIL";
  }

  ServerCore restarted(opts);
  std::vector<std::string> out;
  restarted.submitFrame(frame, [&](const std::string& l) { out.push_back(l); });
  restarted.waitIdle();
  ASSERT_EQ(out.size(), 1u);
  // Warm hit, and byte-identical to the pre-restart response (which was
  // itself a cache hit, so even the cache_hit flag matches).
  EXPECT_EQ(out[0], first);
  EXPECT_NE(out[0].find("\"cache_hit\":true"), std::string::npos);
  const ServerStats stats = restarted.statsSnapshot();
  EXPECT_GE(stats.cache.hits, 1u);
  // The first run journaled exactly one canonical insert (its second
  // response was a memo hit, which adds nothing); the garbage tail is
  // counted, not fatal.
  EXPECT_EQ(stats.cache.journalReplayed, 1u);
  EXPECT_EQ(stats.cache.journalSkipped, 1u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace pmsched
