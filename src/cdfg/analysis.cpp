#include "cdfg/analysis.hpp"

#include <algorithm>
#include <charconv>
#include <queue>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "support/strings.hpp"

namespace pmsched {

std::vector<int> nodeDepths(const Graph& g) {
  std::vector<int> depth(g.size(), 0);
  for (const NodeId n : g.topoOrderView()) {
    int before = 0;  // step after which all inputs are available
    for (const NodeId p : g.fanins(n)) before = std::max(before, depth[p]);
    for (const NodeId p : g.controlPredecessors(n)) before = std::max(before, depth[p]);
    // A scheduled node occupies step before+1; its value is ready after it.
    depth[n] = isScheduled(g.kind(n)) ? before + 1 : before;
  }
  return depth;
}

int criticalPathLength(const Graph& g) {
  int cp = 0;
  for (const int d : nodeDepths(g)) cp = std::max(cp, d);
  return cp;
}

std::vector<int> distanceToOutput(const Graph& g) {
  const std::span<const NodeId> order = g.topoOrderView();
  std::vector<int> dist(g.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    int below = 0;
    for (const NodeId s : g.fanouts(n)) {
      const int through = dist[s] + (isScheduled(g.kind(s)) ? 1 : 0);
      below = std::max(below, through);
    }
    dist[n] = below;
  }
  return dist;
}

OpStats countOps(const Graph& g) {
  OpStats s;
  for (NodeId i = 0; i < g.size(); ++i) {
    switch (resourceClassOf(g.kind(i))) {
      case ResourceClass::Mux: ++s.mux; break;
      case ResourceClass::Comparator: ++s.comp; break;
      case ResourceClass::Adder: ++s.add; break;
      case ResourceClass::Subtractor: ++s.sub; break;
      case ResourceClass::Multiplier: ++s.mul; break;
      case ResourceClass::Logic: ++s.logic; break;
      case ResourceClass::Shifter: ++s.shift; break;
      case ResourceClass::None: break;
    }
  }
  return s;
}

std::array<int, kNumUnitClasses> countByClass(const Graph& g) {
  std::array<int, kNumUnitClasses> counts{};
  for (NodeId i = 0; i < g.size(); ++i) {
    const ResourceClass rc = resourceClassOf(g.kind(i));
    if (rc != ResourceClass::None) ++counts[unitIndex(rc)];
  }
  return counts;
}

std::string toDot(const Graph& g) {
  std::ostringstream os;
  os << "digraph \"" << g.name() << "\" {\n  rankdir=TB;\n";
  for (NodeId i = 0; i < g.size(); ++i) {
    const Node& n = g.node(i);
    std::string shape = "box";
    if (n.kind == OpKind::Mux) shape = "trapezium";
    if (n.kind == OpKind::Input || n.kind == OpKind::Const) shape = "ellipse";
    if (n.kind == OpKind::Output) shape = "doublecircle";
    os << "  n" << i << " [label=\"" << n.name << "\\n" << opName(n.kind)
       << "\" shape=" << shape << "];\n";
  }
  for (NodeId i = 0; i < g.size(); ++i) {
    const Node& n = g.node(i);
    for (std::size_t k = 0; k < n.operands.size(); ++k) {
      os << "  n" << n.operands[k] << " -> n" << i;
      if (n.kind == OpKind::Mux) {
        static constexpr const char* kPort[] = {"sel", "1", "0"};
        os << " [label=\"" << kPort[k] << "\"]";
      }
      os << ";\n";
    }
    for (const NodeId p : g.controlPredecessors(i))
      os << "  n" << p << " -> n" << i << " [style=dashed color=red];\n";
  }
  os << "}\n";
  return os.str();
}

// ---- canonical form --------------------------------------------------------

namespace {

/// splitmix64 finalizer: the avalanche step every signature goes through.
constexpr std::uint64_t avalanche(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive combine (mix(a, b) != mix(b, a)).
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return avalanche(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Structural base signature: everything about a node except its wiring.
/// Names deliberately excluded — that is the whole point.
std::uint64_t baseSignature(const Node& n) {
  std::uint64_t h = avalanche(static_cast<std::uint64_t>(n.kind) + 1);
  h = mix(h, static_cast<std::uint64_t>(n.width));
  if (n.kind == OpKind::Const) h = mix(h, static_cast<std::uint64_t>(n.constValue) ^ 0x5c5cULL);
  if (n.kind == OpKind::Wire) h = mix(h, static_cast<std::uint64_t>(n.shift) ^ 0xa3a3ULL);
  return h;
}

/// 64-bit FNV-1a of `text`, continued from `h` (the offset basis starts a
/// fresh hash), so a text can be hashed piece by piece as it is written.
std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

CanonicalForm canonicalizeGraph(const Graph& g) {
  const std::size_t n = g.size();
  const std::span<const NodeId> topo = g.topoOrderView();
  const CsrAdjacency& fanoutCsr = g.fanoutCsr();
  const CsrAdjacency& ctrlSuccCsr = g.controlSuccCsr();
  const CsrAdjacency& ctrlPredCsr = g.controlPredCsr();

  // Every pass below reads operands, some in a random order, so copy them
  // once, in id order, into one flat array: row id of `fanin` is
  // [faninStart[id], faninStart[id + 1]). The same pass counts each node's
  // predecessors for the Kahn traversal (`missing`) and lays out the rows
  // of the down pass (`rowFill`, below).
  std::vector<std::uint32_t> faninStart(n + 1);
  std::vector<NodeId> fanin;
  fanin.reserve(fanoutCsr.edgeCount());
  std::vector<std::uint32_t> missing(n);
  std::vector<std::uint32_t> rowFill(n);
  std::uint32_t rowsEnd = 0;
  for (NodeId id = 0; id < n; ++id) {
    faninStart[id] = static_cast<std::uint32_t>(fanin.size());
    const std::span<const NodeId> ops = g.fanins(id);
    fanin.insert(fanin.end(), ops.begin(), ops.end());
    missing[id] = static_cast<std::uint32_t>(ops.size() + ctrlPredCsr.row(id).size());
    rowsEnd += static_cast<std::uint32_t>(fanoutCsr.row(id).size() + ctrlSuccCsr.row(id).size());
    rowFill[id] = rowsEnd;
  }
  faninStart[n] = static_cast<std::uint32_t>(fanin.size());
  const auto faninsOf = [&](NodeId id) {
    return std::span<const NodeId>(fanin.data() + faninStart[id], fanin.data() + faninStart[id + 1]);
  };

  // Pass 1 (up): fanin-cone signatures, operand order preserved, control
  // predecessors folded in as a sorted (unordered) set.
  std::vector<std::uint64_t> up(n, 0);
  std::vector<std::uint64_t> scratch;
  for (const NodeId id : topo) {
    std::uint64_t h = baseSignature(g.node(id));
    std::size_t slot = 0;
    for (const NodeId p : faninsOf(id)) h = mix(h, mix(up[p], 0x10 + slot++));
    scratch.clear();
    for (const NodeId p : ctrlPredCsr.row(id)) scratch.push_back(up[p]);
    std::sort(scratch.begin(), scratch.end());
    for (const std::uint64_t v : scratch) h = mix(h, v ^ 0xc0117Ead5ULL);
    up[id] = h;
  }

  // Pass 2 (down): consumer-context signatures in reverse topological
  // order, folded with `up` into each node's static signature `sig`. A
  // node's contribution to its operand records WHICH slot of which
  // consumer it feeds, so sub(a, b) and sub(b, a) refine differently. Each
  // data or control consumer edge adds one value to its producer's row of
  // one flat buffer; every consumer comes later in topological order, so a
  // row is full by the time its producer is reached. `rowFill[p]` counts
  // down from the row's end and is the row's start once it is full.
  std::vector<std::uint64_t> incoming(rowsEnd);
  std::vector<std::uint64_t> sig(n);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    std::uint64_t* const rowBegin = incoming.data() + rowFill[id];
    std::uint64_t* const rowEnd =
        rowBegin + fanoutCsr.row(id).size() + ctrlSuccCsr.row(id).size();
    std::sort(rowBegin, rowEnd);
    std::uint64_t down = mix(up[id], 0xd0d0ULL);
    for (const std::uint64_t* v = rowBegin; v != rowEnd; ++v) down = mix(down, *v);
    sig[id] = mix(up[id], down);
    std::size_t slot = 0;
    for (const NodeId p : faninsOf(id)) incoming[--rowFill[p]] = mix(down, 0x20 + slot++);
    for (const NodeId p : ctrlPredCsr.row(id)) incoming[--rowFill[p]] = mix(down, 0xc791ULL);
  }

  // Kahn traversal: ready nodes picked in ascending priority order. The
  // static (up, down) signature alone can tie for nodes whose cones and
  // contexts are locally isomorphic without the nodes being automorphic
  // (e.g. two sub(input, input) nodes sharing one operand) — and a heap
  // tie resolves by push order, which tracks insertion order. So the pop
  // priority additionally folds in the CANONICAL INDICES of the node's
  // predecessors: a node only becomes ready once every predecessor is
  // assigned, those indices are pure pop-history (insertion-independent),
  // and any two candidates with different operand tuples now separate
  // deterministically. The pending heap never holds two entries for one
  // node, so the loop runs exactly n times on any DAG.
  CanonicalForm form;
  form.order.reserve(n);
  form.indexOf.assign(n, 0);

  // Control predecessors of `id` by canonical index, ascending.
  std::vector<std::uint32_t> ctrlIdx;
  const auto sortedCtrlIndices = [&](NodeId id) -> const std::vector<std::uint32_t>& {
    ctrlIdx.clear();
    for (const NodeId p : ctrlPredCsr.row(id)) ctrlIdx.push_back(form.indexOf[p]);
    std::sort(ctrlIdx.begin(), ctrlIdx.end());
    return ctrlIdx;
  };
  auto readyPriority = [&](NodeId id) {
    std::uint64_t h = sig[id];
    std::size_t slot = 0;
    for (const NodeId p : faninsOf(id)) h = mix(h, mix(form.indexOf[p] + 1, 0x40 + slot++));
    for (const std::uint32_t v : sortedCtrlIndices(id)) h = mix(h, v ^ 0x51edeULL);
    return h;
  };

  using Entry = std::pair<std::uint64_t, NodeId>;  // (priority, id)
  auto later = [&](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first > b.first;
    if (sig[a.second] != sig[b.second]) return sig[a.second] > sig[b.second];
    return up[a.second] > up[b.second];
  };
  std::vector<Entry> heap;
  heap.reserve(n);
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> ready(later, std::move(heap));
  for (NodeId id = 0; id < n; ++id)
    if (missing[id] == 0) ready.push({readyPriority(id), id});

  while (!ready.empty()) {
    const NodeId id = ready.top().second;
    ready.pop();
    form.indexOf[id] = static_cast<std::uint32_t>(form.order.size());
    form.order.push_back(id);
    for (const NodeId s : fanoutCsr.row(id))
      if (--missing[s] == 0) ready.push({readyPriority(s), s});
    for (const NodeId s : ctrlSuccCsr.row(id))
      if (--missing[s] == 0) ready.push({readyPriority(s), s});
  }

  // Serialize in canonical order, operands/edges by canonical index. The
  // text is the collision guard the cache compares on every hit. Each line
  // is put together in a stack buffer, then appended and hashed while it is
  // hot: a decimal gets a fixed window past the cursor (24 bytes hold any
  // int64, 12 any canonical index), the head of a line fits in 64 bytes,
  // and index fields spill the buffer before they could overrun it.
  std::string& text = form.text;
  text.reserve(16 + 20 * n + 8 * fanin.size() + 8 * ctrlPredCsr.edgeCount());
  text += "cform1 ";
  appendInt(text, static_cast<std::int64_t>(n));
  text += '\n';
  std::uint64_t hash = fnv1a(text);
  char line[96];
  char* p = line;
  const auto flush = [&] {
    const auto size = static_cast<std::size_t>(p - line);
    text.append(line, size);
    hash = fnv1a(std::string_view(line, size), hash);
    p = line;
  };
  const auto index = [&](std::string_view tag, std::uint32_t v) {
    if (p - line > 64) flush();
    p = std::copy(tag.begin(), tag.end(), p);
    p = std::to_chars(p, p + 12, v).ptr;
  };
  for (const NodeId id : form.order) {
    const Node& node = g.node(id);
    const std::string_view kind = opName(node.kind);
    p = std::copy(kind.begin(), kind.end(), line);
    *p++ = ' ';
    *p++ = 'w';
    p = std::to_chars(p, p + 24, node.width).ptr;
    if (node.kind == OpKind::Const) {
      *p++ = ' ';
      *p++ = 'c';
      p = std::to_chars(p, p + 24, node.constValue).ptr;
    } else if (node.kind == OpKind::Wire) {
      *p++ = ' ';
      *p++ = 's';
      p = std::to_chars(p, p + 24, node.shift).ptr;
    }
    for (const NodeId op : faninsOf(id)) index(" ", form.indexOf[op]);
    for (const std::uint32_t v : sortedCtrlIndices(id)) index(" ^", v);
    *p++ = '\n';
    flush();
  }
  form.hash = hash;
  return form;
}

std::uint64_t canonicalHash(const Graph& g) { return canonicalizeGraph(g).hash; }

}  // namespace pmsched
