#include "support/fault_injector.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace pmsched {

namespace fault {

namespace {

// The registry of every point() call compiled into the library. Kept here
// (not distributed) so the CI fault matrix and docs/ROBUSTNESS.md have one
// authoritative list to iterate.
constexpr std::array<std::string_view, 13> kSites = {
    "parse-stmt",      // textio: per accepted statement (input path)
    "bdd-node",        // BddManager::makeNode (allocation)
    "dnf-intern",      // DnfEngine term interning (allocation)
    "oracle-commit",   // TimeFrameOracle::commit (commit)
    "gating-commit",   // shared-gating acceptance (commit)
    "serve-accept",    // server admission (clean: typed rejection, keeps serving)
    "serve-frame",     // server frame decode (clean: typed error, keeps serving)
    "cache-insert",    // design-cache insert (clean: result served, not cached)
    "worker-crash",    // server worker, outside the per-job catch (clean:
                       // supervised — arenas rebuilt, request retried once)
    "cache-journal-write",   // cache persistence append (clean: not journaled)
    "cache-snapshot-load",   // cache persistence load (clean: cold start)
    "drain-deadline",  // drain entry (clean: queued work failed out typed)
    "explore-point",   // explore sweep, per point (clean: point skipped
                       // typed, the rest of the front still emits)
};

/// One armed "site:nth" entry. Several entries may name the same site (a
/// chaos schedule like "worker-crash:1,worker-crash:3" fires on the 1st AND
/// 3rd hit); all entries for one site share that site's hit counter.
struct ArmedEntry {
  std::size_t siteIndex;
  std::uint64_t targetHit;
};

std::atomic<bool> armed{false};
std::array<std::atomic<std::uint64_t>, kSites.size()> hitsBySite{};
std::vector<ArmedEntry> armedEntries;  // written only while disarmed (see arm())
std::once_flag envOnce;

std::size_t siteIndex(std::string_view site) {
  for (std::size_t i = 0; i < kSites.size(); ++i)
    if (kSites[i] == site) return i;
  return kSites.size();  // unknown site: armed entry that can never fire
}

void armLocked(std::string_view spec) {
  armed.store(false, std::memory_order_release);
  for (auto& h : hitsBySite) h.store(0, std::memory_order_relaxed);
  armedEntries.clear();
  if (spec.empty()) return;
  // Comma-separated schedule of site[:nth] entries (a single entry is the
  // original PMSCHED_FAULT grammar unchanged).
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string_view one =
        spec.substr(begin, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - begin);
    begin = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (one.empty()) continue;
    const std::size_t colon = one.find(':');
    ArmedEntry entry{siteIndex(one.substr(0, colon)), 1};
    if (colon != std::string_view::npos) {
      const std::string n(one.substr(colon + 1));
      char* end = nullptr;
      const unsigned long long v = std::strtoull(n.c_str(), &end, 10);
      entry.targetHit = (end && *end == '\0' && v > 0) ? v : 1;
    }
    armedEntries.push_back(entry);
  }
  if (!armedEntries.empty()) armed.store(true, std::memory_order_release);
}

void parseEnvOnce() {
  std::call_once(envOnce, [] {
    if (const char* env = std::getenv("PMSCHED_FAULT")) armLocked(env);
  });
}

}  // namespace

std::span<const std::string_view> sites() { return kSites; }

void arm(std::string_view spec) {
  // Suppress a later (first-point) env parse from clobbering the test's arm.
  std::call_once(envOnce, [] {});
  armLocked(spec);
}

void point(const char* site) {
  if (!armed.load(std::memory_order_acquire)) {
    // The env variable must be honored even when the first point() is the
    // first fault-aware code to run; call_once makes the parse race-free.
    parseEnvOnce();
    if (!armed.load(std::memory_order_acquire)) return;
  }
  const std::string_view name(site);
  std::size_t index = kSites.size();
  for (const ArmedEntry& entry : armedEntries) {
    if (entry.siteIndex < kSites.size() && kSites[entry.siteIndex] == name) {
      index = entry.siteIndex;
      break;
    }
  }
  if (index == kSites.size()) return;  // this site is not in the schedule
  const std::uint64_t hit = hitsBySite[index].fetch_add(1, std::memory_order_relaxed) + 1;
  for (const ArmedEntry& entry : armedEntries)
    if (entry.siteIndex == index && entry.targetHit == hit)
      throw FaultInjectedError(site, hit);
}

}  // namespace fault

}  // namespace pmsched
