// Allocation counts of the flat Graph and of the back end after scheduling:
// copying a graph is a handful of vector copies, loading one from text
// makes no per-node allocation, and binding, activation analysis and
// controller synthesis allocate in proportion to the gated part of a
// design, not to its node count. Counted by replacing the global operator
// new, which is why these checks live in their own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "cdfg/graph.hpp"
#include "cdfg/textio.hpp"
#include "ctrl/controller.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "support/random_dfg.hpp"

namespace {
std::atomic<long> allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pmsched {
namespace {

/// Heap allocations `body` makes.
template <typename Body>
long countAllocations(Body body) {
  const long before = allocations.load();
  body();
  return allocations.load() - before;
}

TEST(GraphAllocations, CopyIsAHandfulOfVectorCopiesAtAnySize) {
  struct Size {
    int layers;
    int perLayer;
  };
  for (const Size size : {Size{4, 4}, Size{64, 8}, Size{512, 16}}) {
    Graph g = randomLayeredDfg(size.layers, size.perLayer, 1);
    // Control edges and every cached view present: the most a copy carries.
    for (NodeId n = 1; n + 20 < g.size(); n += 7) g.addControlEdge(n, n + 20);
    (void)g.fanoutCsr();
    (void)g.controlPredCsr();
    (void)g.topoOrderView();
    const std::string what = std::to_string(size.layers) + "x" + std::to_string(size.perLayer);
    const long copy = countAllocations([&] {
      const Graph c = g;
      EXPECT_EQ(c.size(), g.size());
    });
    EXPECT_LE(copy, 16) << what;
  }
}

TEST(GraphAllocations, LoadingTextMakesNoPerNodeAllocation) {
  const std::string text = saveGraphText(randomLayeredDfg(512, 16, 1));
  long nodes = 0;
  const long load = countAllocations([&] {
    const Graph g = loadGraphText(text);
    nodes = static_cast<long>(g.size());
  });
  ASSERT_GT(nodes, 8000);
  EXPECT_LT(load, 200) << nodes << " nodes";
}

TEST(BackEndAllocations, MakeNoPerNodeAllocationOnAStrictDesign) {
  // The one-shot benchmark's shape: 512x16 strict at cp+2, about 11k
  // operations of which a few hundred are gated.
  const Graph g = randomLayeredDfg(512, 16, 1);
  const int steps = criticalPathLength(g) + 2;
  const PowerManagedDesign design = applyPowerManagement(g, steps);
  const Schedule sched = minimizeSchedule(design.graph, steps, design.frames).schedule;
  ASSERT_GT(design.graph.size(), 10000u);

  Binding binding;
  const long bind = countAllocations([&] { binding = bindDesign(design.graph, sched); });
  EXPECT_LT(bind, 1000) << design.graph.size() << " nodes";

  const long tail = countAllocations([&] {
    const ActivationResult activation = analyzeActivation(design);
    const ControllerSpec spec = synthesizeController(design, sched, binding, activation);
    EXPECT_GT(spec.gatedLoadCount(), 0);
  });
  EXPECT_LT(tail, 2000) << design.graph.size() << " nodes";
}

}  // namespace
}  // namespace pmsched
