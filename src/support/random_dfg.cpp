#include "support/random_dfg.hpp"

#include <string>
#include <vector>

#include "support/rng.hpp"

namespace pmsched {

Graph randomLayeredDfg(int layers, int perLayer, std::uint64_t seed) {
  Rng rng(seed);
  Graph g("random_" + std::to_string(layers) + "x" + std::to_string(perLayer));
  std::vector<NodeId> previous;
  for (int i = 0; i < perLayer; ++i)
    previous.push_back(g.addInput("in" + std::to_string(i)));

  int counter = 0;
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < perLayer; ++i) {
      const NodeId a = previous[rng.below(previous.size())];
      const NodeId b = previous[rng.below(previous.size())];
      const std::string name = std::string("n").append(std::to_string(counter++));
      if (counter % 3 == 0) {
        const NodeId c = previous[rng.below(previous.size())];
        const NodeId d = previous[rng.below(previous.size())];
        const NodeId cmp = g.addOp(OpKind::CmpGt, {c, d}, name + "_c");
        current.push_back(g.addMux(cmp, a, b, name));
      } else if (counter % 7 == 0) {
        current.push_back(g.addOp(OpKind::Mul, {a, b}, name));
      } else {
        current.push_back(
            g.addOp(counter % 2 == 0 ? OpKind::Add : OpKind::Sub, {a, b}, name));
      }
    }
    previous = current;
  }
  for (std::size_t i = 0; i < previous.size(); ++i)
    g.addOutput(previous[i], "out" + std::to_string(i));
  return g;
}

}  // namespace pmsched
