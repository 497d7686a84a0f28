#pragma once
// Flat name table shared by the text reader (name resolution) and
// Graph::validate() (name uniqueness).

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "cdfg/graph.hpp"

namespace pmsched {

/// Name -> node id over the node names of one graph, by open addressing on
/// 8-byte slots: a 32-bit hash tag and the id. A name is compared with
/// graph.node(id).name only when the tags match, so a probe rarely leaves
/// the table. Sized once for at most `capacityHint` names, so it never
/// rehashes and allocates nothing per name.
class NameTable {
 public:
  NameTable(const Graph& graph, std::size_t capacityHint) : graph_(graph) {
    std::size_t slots = 16;
    while (slots < 2 * capacityHint) slots *= 2;
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
  }

  /// The id bound to `name`, or kInvalidNode.
  [[nodiscard]] NodeId find(std::string_view name) const {
    const std::uint64_t h = hash(name);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = (h ^ tag) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kInvalidNode) return kInvalidNode;
      if (s.tag == tag && graph_.node(s.id).name == name) return s.id;
    }
  }

  /// Bind `name`, the name of node `id`; false when the name is already
  /// bound.
  bool insert(std::string_view name, NodeId id) {
    const std::uint64_t h = hash(name);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = (h ^ tag) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kInvalidNode) {
        s = Slot{tag, id};
        return true;
      }
      if (s.tag == tag && graph_.node(s.id).name == name) return false;
    }
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    NodeId id = kInvalidNode;
  };

  /// Word-at-a-time multiply-xorshift hash (names are short, and this runs
  /// several times per statement); the high 32 bits are the tag, and folded
  /// onto the low bits they pick the first slot.
  static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = s.size() * 0x9e3779b97f4a7c15ULL;
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, s.size() - i);
    h = (h ^ w) * 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 29);
  }

  const Graph& graph_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace pmsched
