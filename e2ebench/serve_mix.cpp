// serve_mix: an open loop against a spawned `pmsched --serve --serve-socket`.
//
// One sender thread sends pipelined JSONL design frames at a fixed offered
// rate over two Unix-socket connections; one receiver thread matches the
// replies by id. Latency runs from each request's due time, so a stall is
// charged to every request queued behind it. A third, synchronous control
// connection carries ping/stats/shutdown between phases.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "e2ebench.hpp"
#include "power/power_model.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace e2e {

using namespace pmsched;

namespace {

// ---- traffic ----------------------------------------------------------------

enum class Kind { Paper, Novel, Isomorph, Repeat };

/// One distinct request body: the frame minus its leading `{"id":N,`.
struct Body {
  std::string json;
  std::string graphText;
  int steps = 0;
  bool optimal = false;
  Kind kind = Kind::Novel;
  int base = -1;      ///< the body an isomorph was derived from
  int paperRow = -1;  ///< index into the Table II rows
  int novel = -1;     ///< a novel graph's index in the novel stream
};

struct Traffic {
  std::vector<Body> bodies;
  std::vector<int> warmup, low, high;  ///< body indices in send order
};

/// How often each novel graph was redrawn because the in-process pipeline
/// rejected it (novel index -> redraws).
using Redraws = std::map<int, int>;

std::string quoted(const std::string& s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

std::string designBody(const std::string& graphText, int steps, bool optimal) {
  return "\"op\":\"design\",\"graph\":" + quoted(graphText) + ",\"steps\":" + std::to_string(steps) +
         (optimal ? ",\"optimal\":true}" : "}");
}

/// The seeded request mix, stratified so every seed sends the same shape of
/// traffic and only the graphs themselves differ. Each block of ten
/// requests is a seeded shuffle of 4 byte-identical repeats of a recent
/// request, 3 renamed isomorphs of a recent graph and 3 novel graphs.
/// Novel graphs cycle through 8 to 128 layers (log-spaced) by 4 to 8 ops at
/// cp+0..cp+8; every tenth is a small graph sent with optimal:true. A novel
/// graph has its own seed stream, so redrawing one changes no other request
/// of the mix. Drawing repeats and isomorph bases from the last kRecent
/// keeps the working set inside the server's 256-entry cache.
class MixGenerator {
 public:
  static constexpr std::size_t kRecent = 96;

  MixGenerator(std::uint64_t seed, const Redraws& redraws, Traffic& t)
      : seed_(seed), rng_(subSeed(seed, "mix")), redraws_(redraws), t_(t) {}

  int addBody(Body b) {
    b.json = designBody(b.graphText, b.steps, b.optimal);
    t_.bodies.push_back(std::move(b));
    const int idx = static_cast<int>(t_.bodies.size()) - 1;
    if (t_.bodies.back().kind != Kind::Isomorph) bases_.push_back(idx);
    return idx;
  }

  int novel() {
    static constexpr int kLayers[] = {8, 11, 16, 22, 32, 45, 64, 90, 128};
    const int k = novelCount_++;
    Body b;
    b.kind = Kind::Novel;
    b.optimal = k % 10 == 9;
    const int layers = b.optimal ? 8 + (k / 10) % 9 : kLayers[k % 9];
    const int perLayer = b.optimal ? 4 + (k / 10) % 3 : 4 + (k / 9) % 5;
    const auto redrawn = redraws_.find(k);
    const int attempt = redrawn == redraws_.end() ? 0 : redrawn->second;
    const GraphText g = layeredDfg(layers, perLayer, subSeed(subSeed(seed_, "novel", k), "redraw", attempt));
    b.novel = k;
    b.graphText = g.text;
    b.steps = g.criticalPath + (k * 7) % 9;
    return addBody(std::move(b));
  }

  int next(std::vector<int>& sent) {
    if (block_.empty()) {
      block_ = {Kind::Repeat, Kind::Repeat, Kind::Repeat, Kind::Repeat, Kind::Isomorph,
                Kind::Isomorph, Kind::Isomorph, Kind::Novel, Kind::Novel, Kind::Novel};
      for (std::size_t i = block_.size(); i > 1; --i) std::swap(block_[i - 1], block_[rng_.below(i)]);
    }
    const Kind kind = block_.back();
    block_.pop_back();
    int idx = -1;
    if (kind == Kind::Repeat && !sent.empty()) {
      idx = sent[sent.size() - 1 - rng_.below(std::min<std::size_t>(sent.size(), kRecent))];
    } else if (kind == Kind::Isomorph && !bases_.empty()) {
      const int baseIdx = bases_[bases_.size() - 1 - rng_.below(std::min<std::size_t>(bases_.size(), kRecent))];
      const Body& base = t_.bodies[static_cast<std::size_t>(baseIdx)];
      Body b;
      b.kind = Kind::Isomorph;
      b.base = baseIdx;
      b.graphText = isomorphText(base.graphText, rng_.next());
      b.steps = base.steps;
      b.optimal = base.optimal;
      idx = addBody(std::move(b));
    } else {
      idx = novel();
    }
    sent.push_back(idx);
    return idx;
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  const Redraws& redraws_;
  Traffic& t_;
  std::vector<int> bases_;
  std::vector<Kind> block_;
  int novelCount_ = 0;
};

Traffic makeTraffic(std::uint64_t seed, const std::vector<PaperRow>& rows,
                    const std::map<std::string, std::string>& circuitText, int lowCount,
                    int highCount, const Redraws& redraws) {
  Traffic t;
  MixGenerator gen(subSeed(seed, "serve_mix"), redraws, t);
  std::vector<int> sent;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Body b;
    b.kind = Kind::Paper;
    b.paperRow = static_cast<int>(i);
    b.graphText = circuitText.at(rows[i].circuit);
    b.steps = rows[i].steps;
    const int idx = gen.addBody(std::move(b));
    t.warmup.push_back(idx);
    sent.push_back(idx);
  }
  for (int i = 0; i < lowCount; ++i) t.low.push_back(gen.next(sent));
  for (int i = 0; i < highCount; ++i) t.high.push_back(gen.next(sent));
  return t;
}

std::map<std::string, std::string> loadCircuitTexts(const std::string& dataDir,
                                                    const std::vector<PaperRow>& rows) {
  std::map<std::string, std::string> texts;
  for (const PaperRow& row : rows)
    if (texts.count(row.circuit) == 0) texts[row.circuit] = loadCircuitText(dataDir, row.circuit);
  return texts;
}

// ---- sockets and the server process ------------------------------------------

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  bool sendLine(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Append whatever is readable now; false on EOF or error.
  bool fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  bool popLine(std::string& line) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buf_.size();
      return false;
    }
    line.assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    scanned_ = 0;
    return true;
  }

  /// Synchronous request/response (control connection only).
  std::string call(const std::string& line) {
    std::string reply;
    if (!sendLine(line)) throw std::runtime_error("control connection: send failed");
    while (!popLine(reply))
      if (!fill()) throw std::runtime_error("control connection: server closed");
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scanned_ = 0;
};

/// The spawned server; killed and reaped on every exit path.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& socketPath) : socket_(socketPath) {
    ::unlink(socketPath.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(2, 1);  // keep the benchmark's stdout for its own result
      const char* argv[] = {bin.c_str(), "--serve", "--serve-socket", socketPath.c_str(),
                            "--serve-workers", "2", "--serve-threads", "1", nullptr};
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      std::perror("e2ebench: exec pmsched");
      std::_Exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    ::unlink(socket_.c_str());
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// Shut down over `ctl` and reap; returns the exit code.
  int shutdown(Conn& ctl) {
    (void)ctl.call(R"({"id":"bye","op":"shutdown"})");
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Connect once the listener is up, then wait for the first pong.
std::unique_ptr<Conn> connectWhenUp(const std::string& path) {
  for (int waited = 0; waited < 20000; waited += 5) {
    auto conn = std::make_unique<Conn>(path);
    if (conn->ok()) {
      if (conn->call(R"({"id":"up","op":"ping"})").find("\"pong\":true") == std::string::npos)
        throw std::runtime_error("server answered ping without pong");
      return conn;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("server never came up at " + path);
}

// ---- one traffic phase ----------------------------------------------------------

struct Request {
  int body = 0;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point received{};
  bool answered = false;
  std::string reply;
};

struct Phase {
  std::vector<Request> reqs;
  long long idBase = 0;
  long long backlogMid = 0;
  long long backlogEnd = 0;
  Clock::time_point start{};
};

/// Send `order` open-loop at `rate` per second (rate > 0), or closed-loop
/// with at most `window` outstanding requests until `seconds` elapse
/// (rate == 0). Replies are matched by id on one receiver thread.
Phase runPhase(const Traffic& t, const std::vector<int>& order, double rate, int window,
               double seconds, long long& nextId, Conn& a, Conn& b) {
  Phase ph;
  ph.idBase = nextId;
  ph.reqs.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) ph.reqs[i].body = order[i];
  nextId += static_cast<long long>(order.size());

  std::atomic<long long> sent{0}, received{0};
  std::atomic<bool> senderDone{false};
  ph.start = Clock::now() + std::chrono::milliseconds(5);
  Conn* conns[2] = {&a, &b};

  std::thread receiver([&] {
    const auto giveUpAfter = std::chrono::seconds(60);
    Clock::time_point senderEnd{};
    std::string line;
    while (true) {
      if (senderDone.load() && received.load() >= sent.load()) break;
      if (senderDone.load()) {
        if (senderEnd == Clock::time_point{}) senderEnd = Clock::now();
        if (Clock::now() - senderEnd > giveUpAfter) break;
      }
      pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b.fd(), POLLIN, 0}};
      if (::poll(fds, 2, 20) <= 0) continue;
      for (int c = 0; c < 2; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conns[c]->fill()) return;  // server gone; unanswered ones time out
        while (conns[c]->popLine(line)) {
          const long long id = responseId(line);
          const long long i = id - ph.idBase;
          if (i < 0 || i >= static_cast<long long>(ph.reqs.size())) continue;
          Request& r = ph.reqs[static_cast<std::size_t>(i)];
          r.received = Clock::now();
          r.answered = true;
          r.reply = std::move(line);
          ++received;
        }
      }
    }
  });

  const auto deadline = ph.start + std::chrono::duration<double>(seconds);
  const auto mid = ph.start + std::chrono::duration<double>(seconds / 2);
  bool midSampled = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Request& r = ph.reqs[i];
    if (rate > 0) {
      r.due = ph.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(static_cast<double>(i) / rate));
      std::this_thread::sleep_until(r.due);
    } else {
      while (sent.load() - received.load() >= window) std::this_thread::sleep_for(std::chrono::microseconds(50));
      if (Clock::now() >= deadline) break;
      r.due = Clock::now();
    }
    if (!midSampled && r.due >= mid) {
      ph.backlogMid = sent.load() - received.load();
      midSampled = true;
    }
    const std::string frame = "{\"id\":" + std::to_string(ph.idBase + static_cast<long long>(i)) + "," +
                              t.bodies[static_cast<std::size_t>(r.body)].json;
    r.sent = Clock::now();
    if (!conns[i % 2]->sendLine(frame)) break;
    ++sent;
  }
  ph.backlogEnd = sent.load() - received.load();
  senderDone = true;
  receiver.join();
  ph.reqs.resize(static_cast<std::size_t>(sent.load()));
  return ph;
}

// ---- stats diffs ------------------------------------------------------------------

struct Counters {
  long long hits = 0, exactHits = 0, misses = 0, inserts = 0, restarts = 0, retries = 0, rejected = 0;
};

Counters readStats(Conn& ctl, Tracer& tracer) {
  const std::string reply = tracer.call("server.stats", [&] { return ctl.call(R"({"id":"s","op":"stats"})"); });
  const JsonValue v = parseJson(reply);
  const JsonValue* res = v.find("result");
  if (res == nullptr) throw std::runtime_error("stats op failed: " + reply);
  const auto field = [&](const char* group, const char* name) -> long long {
    const JsonValue* g = group == nullptr ? res : res->find(group);
    const JsonValue* f = g == nullptr ? nullptr : g->find(name);
    return f == nullptr ? 0 : f->asInt();
  };
  return {field("cache", "hits"), field("cache", "exact_hits"), field("cache", "misses"),
          field("cache", "inserts"), field("supervision", "worker_restarts"),
          field("supervision", "retries"), field(nullptr, "rejected_admission")};
}

Counters diff(const Counters& after, const Counters& before) {
  return {after.hits - before.hits,         after.exactHits - before.exactHits,
          after.misses - before.misses,     after.inserts - before.inserts,
          after.restarts - before.restarts, after.retries - before.retries,
          after.rejected - before.rejected};
}

std::string fmtOpt(const std::optional<double>& v) { return v ? fmt(*v) : "n/a"; }

/// The in-process run of one body and what the checks need from it.
struct Reference {
  std::string json;                     ///< the body this was computed for
  std::optional<std::string> expected;  ///< stripped rendering; nullopt: the pipeline throws
  bool controllerFailed = false;        ///< the pipeline threw SynthesisError
  DesignSummary summary;
  double power = 0;
  double area = 0;
  std::uint64_t hash = 0;  ///< canonical hash of the request graph
  std::string error;       ///< a failed design check
  double plainMs = 0;
  double stagedMs = 0;
};

Reference computeReference(const Body& body, std::uint64_t vectorSeed, Tracer& tracer, StageCounts& counts) {
  Reference ref;
  ref.json = body.json;
  try {
    DesignJob job;
    job.graph = tracer.call("cdfg.load_text", [&] { return loadGraphText(body.graphText); });
    ref.hash = tracer.call("cdfg.canonicalize", [&] { return canonicalizeGraph(job.graph); }).hash;
    job.steps = body.steps;
    job.optimal = body.optimal;
    const JobRun run = runJob(job, tracer, counts);
    ref.plainMs = run.plainMs;
    ref.stagedMs = run.stagedMs;
    ref.expected = stripCacheHit(renderResponse(run.outcome));
    ref.summary = run.outcome.summary;
    ref.power = run.outcome.activation.reductionPercent(OpPowerModel::paperWeights());
    ref.area = UnitCosts::defaults().costOf(run.outcome.units);
    ref.error = run.faithful ? checkDesign(job, run.outcome, vectorSeed)
                             : "staged pipeline differs from runDesignJob";
  } catch (const SynthesisError&) {
    ref.controllerFailed = true;
  } catch (const InfeasibleError&) {
  } catch (const std::exception& e) {
    ref.error = std::string("in-process run threw: ") + e.what();
  }
  return ref;
}

std::uint64_t vectorSeed(std::uint64_t seed, int body) {
  return subSeed(seed, "vectors", static_cast<std::uint64_t>(body));
}

/// Bring `refs` up to date with `t`: run every body whose reference is
/// missing or stale in-process, on four threads with one lane each.
void updateReferences(const Traffic& t, std::uint64_t seed, std::vector<Reference>& refs) {
  refs.resize(t.bodies.size());
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < t.bodies.size(); ++i)
    if (refs[i].json != t.bodies[i].json) todo.push_back(i);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < 4; ++w) {
    pool.emplace_back([&] {
      ScopedComputePool lanes(1);
      Tracer off(false);
      StageCounts unused;
      for (std::size_t k = next++; k < todo.size(); k = next++) {
        const std::size_t i = todo[k];
        refs[i] = computeReference(t.bodies[i], vectorSeed(seed, static_cast<int>(i)), off, unused);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

// Offered rates (requests per second). "low" sits well under the two
// workers' capacity; "high" sits near the knee measured on a 4-core box.
constexpr double kLowRate = 120;
constexpr double kHighRate = 320;
/// A rate is met only if the backlog at the end of sending is no larger
/// than at the phase midpoint plus this slack.
constexpr long long kBacklogSlack = 4;

/// Calibration loops on a background thread, one per kPeriod, until
/// stop(): the host's speed during an open-loop phase, at about 5% of one
/// core. A request's latency is rescaled by the median loop time of the
/// kWindow it fell due in.
class PhaseCalibration {
 public:
  static constexpr std::chrono::milliseconds kPeriod{200};
  static constexpr std::chrono::seconds kWindow{1};

  PhaseCalibration() : start_(Clock::now()), thread_([this] {
    do {
      const double ms = calibrationLoopMs();
      samples_.emplace_back(window(Clock::now()), ms);
      std::this_thread::sleep_for(kPeriod);
    } while (!done_);
  }) {}
  ~PhaseCalibration() { stop(); }
  PhaseCalibration(const PhaseCalibration&) = delete;
  PhaseCalibration& operator=(const PhaseCalibration&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    done_ = true;
    thread_.join();
    std::map<std::size_t, std::vector<double>> byWindow;
    for (const auto& [w, ms] : samples_) byWindow[w].push_back(ms);
    for (const auto& [w, ms] : byWindow) windowMs_[w] = median(ms);
  }

  /// `wallMs` rescaled by the loop time of the window `due` fell in, or of
  /// the nearest later one with a sample. Call after stop().
  [[nodiscard]] double scaled(Clock::time_point due, double wallMs) const {
    auto it = windowMs_.lower_bound(window(due));
    if (it == windowMs_.end()) --it;
    return scaledMs(wallMs, it->second);
  }

 private:
  [[nodiscard]] std::size_t window(Clock::time_point t) const {
    return t <= start_ ? 0 : static_cast<std::size_t>((t - start_) / kWindow);
  }

  Clock::time_point start_;
  std::atomic<bool> done_{false};
  std::vector<std::pair<std::size_t, double>> samples_;
  std::map<std::size_t, double> windowMs_;
  std::thread thread_;  // last: it starts once the members it uses exist
};

/// A novel graph redrawn this often means the pipeline rejects its whole
/// shape; the run stops instead of looping.
constexpr int kMaxRedraws = 32;

}  // namespace

std::vector<std::string> serveMixBodies(std::uint64_t seed, const std::string& dataDir, int perPhase) {
  const std::vector<PaperRow> rows = loadPaperRows(dataDir);
  const Traffic t = makeTraffic(seed, rows, loadCircuitTexts(dataDir, rows), perPhase, perPhase, Redraws{});
  std::vector<std::string> out;
  for (const std::vector<int>* phase : {&t.warmup, &t.low, &t.high})
    for (const int idx : *phase) out.push_back(t.bodies[static_cast<std::size_t>(idx)].json);
  return out;
}

RunResult runServeMix(const RunConfig& cfg) {
  RunResult r;
  Tracer tracer(cfg.trace);
  StageCounts counts;

  const double lowS = 0.6 * cfg.seconds, highS = 0.4 * cfg.seconds;
  const int lowCount = static_cast<int>(kLowRate * lowS);
  const int highCount = static_cast<int>(kHighRate * highS);

  const std::vector<PaperRow> rows = loadPaperRows(cfg.dataDir);
  const std::map<std::string, std::string> circuitText = loadCircuitTexts(cfg.dataDir, rows);

  // The in-process reference of every body, runDesignJob +
  // makeDesignResponse: the rendering each ok reply must equal. A novel
  // graph the pipeline rejects (today the shared-mode controller bug, see
  // NOTES.md) is redrawn with the same shape until it gets a design, so no
  // request is meant to fail. Done once, untimed, before set-up.
  Redraws redraws;
  std::vector<Reference> refs;
  int controllerRejects = 0, redrawn = 0;
  for (;;) {
    const Traffic draft = makeTraffic(cfg.seed, rows, circuitText, lowCount, highCount, redraws);
    updateReferences(draft, cfg.seed, refs);
    bool again = false;
    for (std::size_t i = 0; i < draft.bodies.size(); ++i) {
      const Body& body = draft.bodies[i];
      if (body.kind != Kind::Novel || refs[i].expected || !refs[i].error.empty()) continue;
      if (++redraws[body.novel] > kMaxRedraws)
        throw std::runtime_error("novel graph " + std::to_string(body.novel) + ": every redraw is rejected");
      controllerRejects += refs[i].controllerFailed ? 1 : 0;
      ++redrawn;
      again = true;
    }
    if (!again) break;
  }
  counts.ctrlFailures += controllerRejects;

  // Set-up, three times: traffic generation, server spawn until the first
  // pong, and the warm-up prefix, each rescaled by a calibration loop run
  // just before it. The last server stays up.
  const std::string socketPath = cfg.workDir + "/serve-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setupS;
  Traffic t;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Conn> ctl, connA, connB;
  long long nextId = 1;
  Phase warm;
  for (int rep = 0; rep < 3; ++rep) {
    if (server) {
      connA.reset();
      connB.reset();
      (void)server->shutdown(*ctl);
      ctl.reset();
      server.reset();
    }
    const double loopMs = calibrationLoopMs();
    const auto t0 = Clock::now();
    t = makeTraffic(cfg.seed, rows, circuitText, lowCount, highCount, redraws);
    server = std::make_unique<ServerProcess>(cfg.serverBin, socketPath);
    ctl = connectWhenUp(socketPath);
    connA = std::make_unique<Conn>(socketPath);
    connB = std::make_unique<Conn>(socketPath);
    if (!connA->ok() || !connB->ok()) throw std::runtime_error("cannot open traffic connections");
    warm = runPhase(t, t.warmup, 0, 8, 1e9, nextId, *connA, *connB);
    setupS.push_back(scaledMs(msBetween(t0, Clock::now()), loopMs) / 1e3);
  }

  const Counters c0 = readStats(*ctl, tracer);
  PhaseCalibration lowCalibration;
  const Phase low = runPhase(t, t.low, kLowRate, 0, lowS, nextId, *connA, *connB);
  lowCalibration.stop();
  const Counters c1 = readStats(*ctl, tracer);
  const Phase high = runPhase(t, t.high, kHighRate, 0, highS, nextId, *connA, *connB);
  const Counters c2 = readStats(*ctl, tracer);
  const double serverRssMb = peakRssMb(server->pid());
  connA.reset();
  connB.reset();
  const int serverExit = server->shutdown(*ctl);
  server.reset();
  if (serverExit != 0) r.fail("server exited " + std::to_string(serverExit));

  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].error.empty()) r.fail("serve_mix body " + std::to_string(i) + ": " + refs[i].error);
    else if (!refs[i].expected)
      r.fail("serve_mix body " + std::to_string(i) + ": the in-process pipeline rejects it, but not its base");
  }

  // Traced: the fixed-rate phases' bodies again on this thread, plainly and
  // stage by stage, for the stage spans and the trace-overhead figure.
  double plainMs = 0, stagedMs = 0;
  if (cfg.trace) {
    std::set<int> fixedRate(t.low.begin(), t.low.end());
    fixedRate.insert(t.high.begin(), t.high.end());
    for (const int idx : fixedRate) {
      const Reference traced = computeReference(t.bodies[static_cast<std::size_t>(idx)], vectorSeed(cfg.seed, idx), tracer, counts);
      plainMs += traced.plainMs;
      stagedMs += traced.stagedMs;
      if (!traced.error.empty() || traced.expected != refs[static_cast<std::size_t>(idx)].expected)
        r.fail("serve_mix body " + std::to_string(idx) + ": traced run disagrees: " + traced.error);
    }
  }

  // Generator self-checks: isomorphs really are isomorphs, and the paper
  // circuits reproduce the Table II rows kept beside this file.
  for (std::size_t idx = 0; idx < t.bodies.size(); ++idx) {
    const Body& body = t.bodies[idx];
    const Reference& ref = refs[idx];
    if (body.kind == Kind::Isomorph && ref.hash != refs[static_cast<std::size_t>(body.base)].hash)
      r.fail("isomorph body " + std::to_string(idx) + " does not canonicalize like its base");
    if (body.kind == Kind::Paper) {
      const PaperRow& row = rows[static_cast<std::size_t>(body.paperRow)];
      const bool match = ref.expected && ref.summary.managed == row.managed &&
                         ref.summary.sharedGated == row.sharedGated &&
                         ref.summary.reductionPercent == row.reductionPercent &&
                         ref.summary.units == row.units;
      if (!match) r.fail("paper circuit " + row.circuit + "@" + std::to_string(row.steps) +
                         " no longer reproduces its Table II row");
    }
  }

  // Score every reply. Warm-up replies are checked but not counted.
  const auto score = [&](const Phase& ph, Tally& tally) {
    for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
      const Request& q = ph.reqs[i];
      const std::optional<std::string>& exp = refs[static_cast<std::size_t>(q.body)].expected;
      std::string want;
      if (exp) want = "{\"id\":" + std::to_string(ph.idBase + static_cast<long long>(i)) + exp->substr(7);
      const long long before = tally.mismatches;
      tally.scoreReply(q.answered ? &q.reply : nullptr, exp ? &want : nullptr);
      if (tally.mismatches != before) {
        const std::string got = stripCacheHit(q.reply);
        std::size_t at = 0;
        while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
        r.fail("serve_mix reply " + std::to_string(ph.idBase + static_cast<long long>(i)) +
               (exp ? " differs from the in-process rendering at byte " + std::to_string(at) +
                          ": got '" + got.substr(at > 40 ? at - 40 : 0, 120) + "' want '" +
                          want.substr(at > 40 ? at - 40 : 0, 120) + "'"
                    : " is ok where the in-process pipeline fails"));
      }
    }
  };
  Tally warmTally;
  score(warm, warmTally);
  for (const Phase* ph : {&low, &high}) score(*ph, r.tally);

  // Latency from due time, per offered rate.
  const auto latencies = [](const Phase& ph) {
    std::vector<double> out;
    for (const Request& q : ph.reqs)
      if (q.answered) out.push_back(msBetween(q.due, q.received));
    return out;
  };
  const auto lateness = [](const Phase& ph, std::vector<double>& out) {
    for (const Request& q : ph.reqs) out.push_back(msBetween(q.due, q.sent));
  };
  const std::vector<double> lowLat = latencies(low), highLat = latencies(high);
  std::vector<double> lowScaled;
  for (const Request& q : low.reqs)
    if (q.answered) lowScaled.push_back(lowCalibration.scaled(q.due, msBetween(q.due, q.received)));
  // Low-rate latency by what the request was when first generated.
  std::map<Kind, std::vector<double>> lowByKind;
  for (const Request& q : low.reqs)
    if (q.answered) lowByKind[t.bodies[static_cast<std::size_t>(q.body)].kind].push_back(msBetween(q.due, q.received));
  std::vector<double> late;
  lateness(low, late);
  lateness(high, late);

  // Design quality over the distinct novel graphs of the two fixed-rate
  // phases: fixed by the seed, whatever the server's speed.
  std::vector<double> power, area;
  std::set<int> seenQuality;
  std::vector<int> fixedRateBodies = t.low;
  fixedRateBodies.insert(fixedRateBodies.end(), t.high.begin(), t.high.end());
  for (const int idx : fixedRateBodies) {
    const Reference& ref = refs[static_cast<std::size_t>(idx)];
    if (t.bodies[static_cast<std::size_t>(idx)].kind != Kind::Novel || !seenQuality.insert(idx).second ||
        !ref.expected)
      continue;
    power.push_back(ref.power);
    area.push_back(ref.area);
  }

  r.endToEnd = {
      {"setup_s", median(setupS)},
      {"latency_ms_p50", median(lowScaled)},
      {"power_reduction_pct", mean(power)},
      {"unit_area", mean(area)},
      {"peak_rss_mb", serverRssMb},
  };

  const auto met = [](const Phase& ph, const std::vector<double>& lat, const Counters& d) {
    return d.rejected == 0 && ph.backlogEnd <= ph.backlogMid + kBacklogSlack && lat.size() == ph.reqs.size();
  };
  const double attempted = static_cast<double>(std::max(1LL, r.tally.attempted));
  const Counters dLow = diff(c1, c0), dHigh = diff(c2, c1), dAll = diff(c2, c0);
  r.details = {
      {"offered_rps.low", fmt(kLowRate), "1/s"},
      {"req_p50_ms.low", fmt(median(lowLat)), "ms"},
      {"req_p99_ms.low", fmtOpt(tailPercentile(lowLat, 0.99)), "ms"},
      {"req_p90_ms.low", fmtOpt(tailPercentile(lowLat, 0.90)), "ms"},
      {"req_p50_ms.low.isomorph", fmt(median(lowByKind[Kind::Isomorph])), "ms"},
      {"req_p50_ms.low.novel", fmt(median(lowByKind[Kind::Novel])), "ms"},
      {"rate_met.low", met(low, lowLat, dLow) ? "yes" : "no", ""},
      {"offered_rps.high", fmt(kHighRate), "1/s"},
      {"req_p50_ms.high", fmt(median(highLat)), "ms"},
      {"req_p99_ms.high", fmtOpt(tailPercentile(highLat, 0.99)), "ms"},
      {"req_p90_ms.high", fmtOpt(tailPercentile(highLat, 0.90)), "ms"},
      {"rate_met.high", met(high, highLat, dHigh) ? "yes" : "no", ""},
      {"backlog.high", std::to_string(high.backlogMid) + " -> " + std::to_string(high.backlogEnd), "requests"},
      {"fail_ratio", fmt(static_cast<double>(r.tally.failed) / attempted), "ratio"},
      {"refused_or_timed_out", std::to_string(r.tally.refusals), "count"},
      {"late_ms_p99", fmtOpt(tailPercentile(late, 0.99)), "ms"},
      {"requests", std::to_string(r.tally.attempted), "count"},
      {"redrawn_novel_graphs", std::to_string(redrawn), "count"},
      {"cache.exact_hits", std::to_string(dAll.exactHits), "count"},
      {"cache.canonical_hits", std::to_string(dAll.hits - dAll.exactHits), "count"},
      {"cache.misses", std::to_string(dAll.misses), "count"},
      {"worker_restarts.low/high", std::to_string(dLow.restarts) + "/" + std::to_string(dHigh.restarts), "count"},
  };

  fillStageMetrics(r, tracer, counts);
  const double lookups = static_cast<double>(dAll.hits + dAll.misses);
  if (lookups > 0) {
    r.perLayer["server.cache.exact_hit_ratio"] = static_cast<double>(dAll.exactHits) / lookups;
    r.perLayer["server.cache.hit_ratio"] = static_cast<double>(dAll.hits) / lookups;
  }
  r.perLayer["server.cache.inserts"] = static_cast<double>(dAll.inserts);
  r.perLayer["server.worker_restarts"] = static_cast<double>(dAll.restarts);
  r.perLayer["server.retries"] = static_cast<double>(dAll.retries);
  r.perLayer["server.rejected_admission"] = static_cast<double>(dAll.rejected);
  if (const auto p99 = tailPercentile(late, 0.99)) r.perLayer["bench.late_ms_p99"] = *p99;
  if (cfg.trace) {
    if (plainMs > 0) r.perLayer["bench.trace_overhead_pct"] = 100.0 * (stagedMs / plainMs - 1.0);
    // Service time: the same frames replayed in order through an in-process
    // server core with the spawned server's options, on this thread.
    ServerOptions opts;
    opts.workers = 0;
    opts.threadsPerWorker = 1;
    ServerCore core(opts);
    std::vector<double> service;
    std::vector<double> wait;
    const auto sinkNothing = [](const std::string&) {};
    for (const Request& q : warm.reqs) {
      core.submitFrame("{\"id\":0," + t.bodies[static_cast<std::size_t>(q.body)].json, sinkNothing);
      while (core.drainOne()) {
      }
    }
    for (const Phase* ph : {&low, &high}) {
      for (std::size_t i = 0; i < ph->reqs.size(); ++i) {
        const Request& q = ph->reqs[i];
        const std::string frame = "{\"id\":" + std::to_string(i) + "," + t.bodies[static_cast<std::size_t>(q.body)].json;
        const auto t0 = Clock::now();
        tracer.call("server.service", [&] {
          core.submitFrame(frame, sinkNothing);
          while (core.drainOne()) {
          }
        });
        const double ms = msBetween(t0, Clock::now());
        service.push_back(ms);
        if (q.answered) wait.push_back(msBetween(q.due, q.received) - ms);
      }
    }
    r.perLayer["server.service_ms_p50"] = median(service);
    if (const auto p99 = tailPercentile(wait, 0.99)) r.perLayer["server.wait_ms_p99"] = *p99;
    else r.perLayer["server.wait_ms_p99"] = wait.empty() ? 0 : *std::max_element(wait.begin(), wait.end());
    r.chromeTrace = tracer.chromeTraceJson();
  }
  return r;
}

}  // namespace e2e
