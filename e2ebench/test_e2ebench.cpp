// The benchmark's own tests: deterministic inputs, the percentile rule, the
// metric names against BENCHMARK.json, and failure accounting.
//
//   ctest --test-dir .bench_build/e2ebench      (or run e2ebench_test)

#include <fstream>
#include <iostream>
#include <sstream>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "e2ebench.hpp"
#include "server/protocol.hpp"
#include "support/json.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                             \
  do {                                                                          \
    if (!(cond)) {                                                              \
      ++failures;                                                               \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond "\n"; \
    }                                                                           \
  } while (0)

void sameSeedSameInputs() {
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const auto a = e2e::layeredDfg(64, 8, e2e::subSeed(seed, "explore", 0));
    const auto b = e2e::layeredDfg(64, 8, e2e::subSeed(seed, "explore", 0));
    CHECK(a.text == b.text);
    CHECK(e2e::isomorphText(a.text, seed) == e2e::isomorphText(b.text, seed));
    CHECK(e2e::serveMixBodies(seed, E2EBENCH_DIR, 40) == e2e::serveMixBodies(seed, E2EBENCH_DIR, 40));
  }
  CHECK(e2e::layeredDfg(64, 8, e2e::subSeed(1, "explore", 0)).text !=
        e2e::layeredDfg(64, 8, e2e::subSeed(2, "explore", 0)).text);
  CHECK(e2e::serveMixBodies(1, E2EBENCH_DIR, 40) != e2e::serveMixBodies(2, E2EBENCH_DIR, 40));
}

void generatorFactsMatchTheLibrary() {
  for (const std::uint64_t seed : {3ULL, 4ULL, 5ULL}) {
    const auto g = e2e::layeredDfg(24, 6, seed);
    const pmsched::Graph graph = pmsched::loadGraphText(g.text);
    CHECK(g.criticalPath == pmsched::criticalPathLength(graph));
    // An isomorph is a different text with the same canonical form.
    const std::string iso = e2e::isomorphText(g.text, seed);
    CHECK(iso != g.text);
    CHECK(pmsched::canonicalHash(pmsched::loadGraphText(iso)) == pmsched::canonicalHash(graph));
  }
}

void percentileNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  CHECK(!e2e::tailPercentile(v, 0.90));  // rank 90 of 99: only 9 beyond
  v.push_back(100);
  CHECK(e2e::tailPercentile(v, 0.90) == 90.0);  // 10 beyond
  CHECK(!e2e::tailPercentile(v, 0.99));
  for (int i = 101; i <= 999; ++i) v.push_back(i);
  CHECK(!e2e::tailPercentile(v, 0.99));  // rank 990 of 999: only 9 beyond
  v.push_back(1000);
  CHECK(e2e::tailPercentile(v, 0.99) == 990.0);
  CHECK(e2e::median({3, 1, 2}) == 2.0);
  CHECK(e2e::median({4, 1, 2, 3}) == 2.5);
}

void metricNamesMatchBenchmarkJson() {
  std::ifstream in(E2EBENCH_BENCHMARK_JSON);
  CHECK(static_cast<bool>(in));
  std::stringstream text;
  text << in.rdbuf();
  const pmsched::JsonValue doc = pmsched::parseJson(text.str());
  const auto compare = [](const pmsched::JsonValue* list, const std::vector<e2e::MetricSpec>& specs) {
    CHECK(list != nullptr && list->isArray());
    if (list == nullptr) return;
    CHECK(list->items().size() == specs.size());
    for (std::size_t i = 0; i < std::min(list->items().size(), specs.size()); ++i) {
      const pmsched::JsonValue& m = list->items()[i];
      CHECK(m.find("name")->asString() == specs[i].name);
      CHECK(m.find("unit")->asString() == specs[i].unit);
      CHECK(m.find("better")->asString() == specs[i].better);
    }
  };
  compare(doc.find("end_to_end"), e2e::endToEndSpecs());
  compare(doc.find("per_layer"), e2e::perLayerSpecs());

  // What a run prints is exactly those names.
  e2e::RunResult r;
  for (const auto& s : e2e::endToEndSpecs()) r.endToEnd[s.name] = 1.5;
  for (const auto& s : e2e::perLayerSpecs()) r.perLayer[s.name] = 0.5;
  for (const bool trace : {false, true}) {
    const pmsched::JsonValue out = pmsched::parseJson(e2e::resultJson(r, trace));
    CHECK(out.members().size() == 4);
    const auto& printed = out.find("metrics")->members();
    const auto& specs = trace ? e2e::perLayerSpecs() : e2e::endToEndSpecs();
    CHECK(printed.size() == specs.size());
    for (std::size_t i = 0; i < std::min(printed.size(), specs.size()); ++i)
      CHECK(printed[i].first == specs[i].name);
  }
}

void typedErrorsAndRefusalsCountAsFailures() {
  const std::string ok = R"({"id":5,"ok":true,"result":{"ops":3,"cache_hit":true}})";
  const std::string want = e2e::stripCacheHit(R"({"id":5,"ok":true,"result":{"ops":3,"cache_hit":false}})");
  const std::string internal = pmsched::makeErrorResponse("5", pmsched::ServerErrorCategory::Internal, "x");
  const std::string refused = pmsched::makeErrorResponse("5", pmsched::ServerErrorCategory::Admission, "full");
  const std::string wrong = R"({"id":5,"ok":true,"result":{"ops":4,"cache_hit":false}})";

  e2e::Tally t;
  t.scoreReply(&ok, &want);
  CHECK(t.attempted == 1 && t.failed == 0 && t.mismatches == 0);
  t.scoreReply(&internal, nullptr);  // the pipeline fails on this graph: a typed error is right
  CHECK(t.failed == 1 && t.mismatches == 0);
  t.scoreReply(&refused, &want);
  CHECK(t.failed == 2 && t.refusals == 1 && t.mismatches == 0);
  t.scoreReply(nullptr, &want);  // never answered
  CHECK(t.failed == 3 && t.refusals == 2);
  t.scoreReply(&wrong, &want);
  CHECK(t.failed == 4 && t.mismatches == 1);
  t.scoreReply(&ok, nullptr);  // ok where the pipeline must fail
  CHECK(t.failed == 5 && t.mismatches == 2);
  CHECK(t.attempted == 6);
  CHECK(e2e::responseId(ok) == 5);
  CHECK(e2e::responseId(R"({"id":"s","ok":true})") == -1);
}

void tracerSelfTime() {
  e2e::Tracer tracer(true);
  {
    const auto root = tracer.span("root");
    const auto child = tracer.span("child");
  }
  const auto totals = tracer.totals();
  CHECK(totals.at("root").count == 1 && totals.at("child").count == 1);
  CHECK(totals.at("root").selfMs <= totals.at("root").wallMs);
  CHECK(totals.at("root").wallMs >= totals.at("child").wallMs);
  e2e::Tracer off(false);
  { const auto s = off.span("x"); }
  CHECK(off.totals().empty());
}

void paperRowsLoad() {
  const auto rows = e2e::loadPaperRows(E2EBENCH_DIR);
  CHECK(rows.size() == 10);
  CHECK(rows.front().circuit == "dealer" && rows.front().units == "{MUX:2, COMP:2, +:1, -:1}");
  for (const auto& row : rows) CHECK(!e2e::loadCircuitText(E2EBENCH_DIR, row.circuit).empty());
}

}  // namespace

int main() {
  sameSeedSameInputs();
  generatorFactsMatchTheLibrary();
  percentileNeedsTenBeyond();
  metricNamesMatchBenchmarkJson();
  typedErrorsAndRefusalsCountAsFailures();
  tracerSelfTime();
  paperRowsLoad();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "e2ebench_test: all checks passed\n";
  return 0;
}
