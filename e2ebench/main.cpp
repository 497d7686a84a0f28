// e2ebench — one run of one workload; see NOTES.md and run.py.
//
//   e2ebench --workload oneshot_xl|serve_mix|explore_sweep --seed N
//            --seconds S --trace 0|1 --data-dir DIR --work-dir DIR --server BIN
//
// Prints one human-readable row per figure, then, as the last line of
// stdout, one JSON object with exactly correct/attempted/failed/metrics:
// the end-to-end metrics untraced, the per-layer metrics traced. Exits 1
// when any correctness check failed, 2 on a usage or set-up error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "e2ebench.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "e2ebench: " << msg << "\n"
            << "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                --data-dir DIR --work-dir DIR --server BIN\n";
  std::exit(2);
}

e2e::RunConfig parseArgs(int argc, char** argv) {
  e2e::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " expects a value");
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--data-dir") cfg.dataDir = v;
      else if (a == "--work-dir") cfg.workDir = v;
      else if (a == "--server") cfg.serverBin = v;
      else usage("unknown option '" + a + "'");
    } catch (const std::logic_error&) {
      usage(a + ": bad value '" + v + "'");
    }
  }
  if (cfg.workload.empty() || cfg.dataDir.empty() || cfg.workDir.empty() || cfg.serverBin.empty())
    usage("--workload, --data-dir, --work-dir and --server are required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::RunConfig cfg = parseArgs(argc, argv);
  e2e::RunResult r;
  try {
    if (cfg.workload == "oneshot_xl") r = e2e::runOneshotXl(cfg);
    else if (cfg.workload == "serve_mix") r = e2e::runServeMix(cfg);
    else if (cfg.workload == "explore_sweep") r = e2e::runExploreSweep(cfg);
    else usage("unknown workload '" + cfg.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << cfg.workload << ": " << e.what() << "\n";
    return 2;
  }

  if (!r.chromeTrace.empty()) {
    const std::string path = cfg.workDir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
    std::ofstream(path) << r.chromeTrace << "\n";
    std::cerr << "e2ebench: wrote " << path << "\n";
  }
  for (const std::string& e : r.errors) std::cerr << "e2ebench: CHECK FAILED: " << e << "\n";

  const auto row = [&](const std::string& name, const std::string& value, const std::string& unit) {
    std::printf("%-14s %-34s %16s %s\n", cfg.workload.c_str(), name.c_str(), value.c_str(), unit.c_str());
  };
  for (const auto& d : r.details) row("(" + d[0] + ")", d[1], d[2]);
  const auto& specs = cfg.trace ? e2e::perLayerSpecs() : e2e::endToEndSpecs();
  const auto& values = cfg.trace ? r.perLayer : r.endToEnd;
  for (const e2e::MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", it == values.end() ? 0.0 : it->second);
    row(s.name, buf, s.unit);
  }
  std::string json;
  try {
    json = e2e::resultJson(r, cfg.trace);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
  std::cout << json << std::endl;
  return r.correct ? 0 : 1;
}
