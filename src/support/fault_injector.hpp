#pragma once
// FaultInjector — deterministic fault injection for the robustness tests.
//
// Sites are named fault::point("...") calls at allocation, handoff, and
// commit boundaries across the pipeline (the list lives in
// docs/ROBUSTNESS.md and kFaultSites below; the CI fault matrix fires each
// one once). Arming is either the PMSCHED_FAULT=<site>:<nth> environment
// variable (parsed once, on the first point() hit) or fault::arm() from
// tests. A disarmed point costs one relaxed atomic load, so sites may sit
// on hot paths.
//
// An armed site's nth hit (1-based, counted process-wide across threads)
// throws FaultInjectedError. Every site is placed where an exception
// already has a defined propagation path, so firing one must produce a
// structured diagnostic, never a crash.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pmsched {

class FaultInjectedError : public std::runtime_error {
 public:
  FaultInjectedError(std::string_view site, std::uint64_t hit)
      : std::runtime_error("fault injected at site '" + std::string(site) + "' (hit " +
                           std::to_string(hit) + ")"),
        site_(site) {}

  [[nodiscard]] const std::string& site() const { return site_; }

 private:
  std::string site_;
};

namespace fault {

/// Every compiled-in injection site (docs + the CI fault matrix iterate it).
[[nodiscard]] std::span<const std::string_view> sites();

/// Arm a comma-separated schedule of "site[:nth]" entries (nth is 1-based,
/// default 1; entries naming the same site share its hit counter, so
/// "worker-crash:1,worker-crash:3" fires on the 1st AND 3rd hit — this is
/// what the chaos harness arms). Disarm with an empty spec. Overrides
/// PMSCHED_FAULT (same grammar). Not thread-safe against concurrent point()
/// calls — arm before the run starts (tests do; the env variable is parsed
/// before any thread can hit a point).
void arm(std::string_view spec);

/// Fire-check for one site. Cheap when disarmed.
void point(const char* site);

}  // namespace fault

}  // namespace pmsched
