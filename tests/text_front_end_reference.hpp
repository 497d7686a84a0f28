#pragma once
// Test-only references for the text front end: the stream-based graph
// reader and writer, the vector-per-node canonicalizer, and the
// byte-at-a-time JSON string escape and unescape that the single-pass
// versions in src/ replaced. The differential suite
// (test_text_front_end_differential.cpp) requires the shipped code to
// agree with these on every input: the same graph, or the same exception
// type and message; the same canonical text, hash and permutation; the same
// JSON bytes and strings.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/graph.hpp"
#include "support/fault_injector.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace pmsched {

namespace reference_detail {

inline OpKind kindFromName(std::string_view name, SourceLoc loc) {
  for (const OpKind kind :
       {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::CmpGt, OpKind::CmpGe, OpKind::CmpLt,
        OpKind::CmpLe, OpKind::CmpEq, OpKind::CmpNe, OpKind::Mux, OpKind::And, OpKind::Or,
        OpKind::Xor, OpKind::Not, OpKind::Shl, OpKind::Shr}) {
    if (opName(kind) == name) return kind;
  }
  throw ParseError(loc, "unknown operation kind '" + std::string(name) + "'");
}

constexpr std::uint64_t avalanche(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return avalanche(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

inline std::uint64_t baseSignature(const Node& n) {
  std::uint64_t h = avalanche(static_cast<std::uint64_t>(n.kind) + 1);
  h = mix(h, static_cast<std::uint64_t>(n.width));
  if (n.kind == OpKind::Const) h = mix(h, static_cast<std::uint64_t>(n.constValue) ^ 0x5c5cULL);
  if (n.kind == OpKind::Wire) h = mix(h, static_cast<std::uint64_t>(n.shift) ^ 0xa3a3ULL);
  return h;
}

inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace reference_detail

inline std::string saveGraphTextReference(const Graph& g) {
  std::ostringstream os;
  os << "graph " << g.name() << "\n";
  for (NodeId n = 0; n < g.size(); ++n) {
    const Node& node = g.node(n);
    switch (node.kind) {
      case OpKind::Input: os << "input " << node.name << " " << node.width << "\n"; break;
      case OpKind::Const:
        os << "const " << node.name << " " << node.width << " " << node.constValue << "\n";
        break;
      case OpKind::Wire:
        os << "wire " << node.name << " " << g.node(node.operands[0]).name << " "
           << node.shift << "\n";
        break;
      case OpKind::Output:
        os << "output " << node.name << " " << g.node(node.operands[0]).name << "\n";
        break;
      default: {
        os << "node " << opName(node.kind) << " " << node.name << " " << node.width;
        for (const NodeId op : node.operands) os << " " << g.node(op).name;
        os << "\n";
      }
    }
  }
  for (NodeId n = 0; n < g.size(); ++n)
    for (const NodeId succ : g.controlSuccessors(n))
      os << "ctrl " << g.node(n).name << " " << g.node(succ).name << "\n";
  return os.str();
}

inline Graph loadGraphTextReference(std::string_view text) {
  using reference_detail::kindFromName;
  Graph g;
  std::map<std::string, NodeId, std::less<>> byName;

  auto resolve = [&](const std::string& name, SourceLoc loc) {
    const auto it = byName.find(name);
    if (it == byName.end()) throw ParseError(loc, "unknown node '" + name + "'");
    return it->second;
  };
  auto define = [&](const std::string& name, NodeId id, SourceLoc loc) {
    if (!byName.emplace(name, id).second)
      throw ParseError(loc, "duplicate node name '" + name + "'");
  };

  std::size_t lineNo = 0;
  std::istringstream stream{std::string(text)};
  std::string line;
  bool sawGraph = false;
  while (std::getline(stream, line)) {
    ++lineNo;
    const SourceLoc loc{lineNo, 1};
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;

    std::istringstream fields{std::string(trimmed)};
    std::string keyword;
    fields >> keyword;
    auto want = [&](auto& value, const char* what) {
      if (!(fields >> value))
        throw ParseError(loc, std::string("expected ") + what + " after '" + keyword + "'");
    };

    fault::point("parse-stmt");
    try {
    if (keyword == "graph") {
      std::string name;
      want(name, "graph name");
      g.setName(name);
      sawGraph = true;
    } else if (keyword == "input") {
      std::string name;
      int width = 0;
      want(name, "input name");
      want(width, "width");
      define(name, g.addInput(name, width), loc);
    } else if (keyword == "const") {
      std::string name;
      int width = 0;
      std::int64_t value = 0;
      want(name, "const name");
      want(width, "width");
      want(value, "value");
      define(name, g.addConst(value, width, name), loc);
    } else if (keyword == "wire") {
      std::string name, src;
      int shift = 0;
      want(name, "wire name");
      want(src, "source");
      want(shift, "shift");
      define(name, g.addWire(resolve(src, loc), shift, name), loc);
    } else if (keyword == "output") {
      std::string name, src;
      want(name, "output name");
      want(src, "source");
      define(name, g.addOutput(resolve(src, loc), name), loc);
    } else if (keyword == "node") {
      std::string kindName, name;
      int width = 0;
      want(kindName, "operation kind");
      want(name, "node name");
      want(width, "width");
      const OpKind kind = kindFromName(kindName, loc);
      std::vector<NodeId> operands;
      std::string operand;
      while (fields >> operand) operands.push_back(resolve(operand, loc));
      define(name, g.addOp(kind, std::move(operands), name, width), loc);
    } else if (keyword == "ctrl") {
      std::string from, to;
      want(from, "source node");
      want(to, "target node");
      g.addControlEdge(resolve(from, loc), resolve(to, loc));
    } else {
      throw ParseError(loc, "unknown statement '" + keyword + "'");
    }
    } catch (const ParseError&) {
      throw;
    } catch (const SynthesisError& e) {
      throw ParseError(loc, e.what());
    }
  }
  if (!sawGraph) throw ParseError(SourceLoc{1, 1}, "missing 'graph NAME' header");
  try {
    g.validate();
  } catch (const SynthesisError& e) {
    throw ParseError(SourceLoc{0, 0}, std::string("invalid graph: ") + e.what());
  }
  return g;
}

inline CanonicalForm canonicalizeGraphReference(const Graph& g) {
  using reference_detail::baseSignature;
  using reference_detail::fnv1a;
  using reference_detail::mix;
  const std::size_t n = g.size();
  const std::span<const NodeId> topo = g.topoOrderView();

  std::vector<std::uint64_t> up(n, 0);
  std::vector<std::uint64_t> scratch;
  for (const NodeId id : topo) {
    std::uint64_t h = baseSignature(g.node(id));
    std::size_t slot = 0;
    for (const NodeId p : g.fanins(id)) h = mix(h, mix(up[p], 0x10 + slot++));
    scratch.clear();
    for (const NodeId p : g.controlPredecessors(id)) scratch.push_back(up[p]);
    std::sort(scratch.begin(), scratch.end());
    for (const std::uint64_t v : scratch) h = mix(h, v ^ 0xc0117Ead5ULL);
    up[id] = h;
  }

  std::vector<std::uint64_t> down(n, 0);
  std::vector<std::vector<std::uint64_t>> incoming(n);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    std::vector<std::uint64_t>& contrib = incoming[id];
    std::sort(contrib.begin(), contrib.end());
    std::uint64_t h = mix(up[id], 0xd0d0ULL);
    for (const std::uint64_t v : contrib) h = mix(h, v);
    down[id] = h;
    std::size_t slot = 0;
    for (const NodeId p : g.fanins(id)) incoming[p].push_back(mix(down[id], 0x20 + slot++));
    for (const NodeId p : g.controlPredecessors(id))
      incoming[p].push_back(mix(down[id], 0xc791ULL));
  }

  std::vector<std::uint64_t> sig(n);
  for (std::size_t i = 0; i < n; ++i) sig[i] = mix(up[i], down[i]);

  std::vector<std::uint32_t> missing(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    missing[id] = static_cast<std::uint32_t>(g.fanins(id).size() +
                                             g.controlPredecessors(id).size());
  }

  CanonicalForm form;
  form.order.reserve(n);
  form.indexOf.assign(n, 0);

  std::vector<std::uint32_t> ctrlIdx;
  auto readyPriority = [&](NodeId id) {
    std::uint64_t h = sig[id];
    std::size_t slot = 0;
    for (const NodeId p : g.fanins(id))
      h = mix(h, mix(form.indexOf[p] + 1, 0x40 + slot++));
    ctrlIdx.clear();
    for (const NodeId p : g.controlPredecessors(id)) ctrlIdx.push_back(form.indexOf[p]);
    std::sort(ctrlIdx.begin(), ctrlIdx.end());
    for (const std::uint32_t v : ctrlIdx) h = mix(h, v ^ 0x51edeULL);
    return h;
  };

  using Entry = std::pair<std::uint64_t, NodeId>;
  auto later = [&](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first > b.first;
    if (sig[a.second] != sig[b.second]) return sig[a.second] > sig[b.second];
    return up[a.second] > up[b.second];
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> ready(later);
  for (NodeId id = 0; id < n; ++id)
    if (missing[id] == 0) ready.push({readyPriority(id), id});

  while (!ready.empty()) {
    const NodeId id = ready.top().second;
    ready.pop();
    form.indexOf[id] = static_cast<std::uint32_t>(form.order.size());
    form.order.push_back(id);
    for (const NodeId s : g.fanoutCsr().row(id))
      if (--missing[s] == 0) ready.push({readyPriority(s), s});
    for (const NodeId s : g.controlSuccessors(id))
      if (--missing[s] == 0) ready.push({readyPriority(s), s});
  }

  std::ostringstream os;
  os << "cform1 " << n << "\n";
  std::vector<std::uint32_t> ctrl;
  for (const NodeId id : form.order) {
    const Node& node = g.node(id);
    os << opName(node.kind) << " w" << node.width;
    if (node.kind == OpKind::Const) os << " c" << node.constValue;
    if (node.kind == OpKind::Wire) os << " s" << node.shift;
    for (const NodeId p : node.operands) os << " " << form.indexOf[p];
    ctrl.clear();
    for (const NodeId p : g.controlPredecessors(id)) ctrl.push_back(form.indexOf[p]);
    std::sort(ctrl.begin(), ctrl.end());
    for (const std::uint32_t p : ctrl) os << " ^" << p;
    os << "\n";
  }
  form.text = os.str();
  form.hash = fnv1a(form.text);
  return form;
}

// ---- JSON strings -----------------------------------------------------------

/// JsonWriter's string escape, without the surrounding quotes.
inline std::string jsonEscapeReference(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// parseJson() restricted to documents holding one string: the same
/// whitespace, validation and error offsets, one byte at a time.
class JsonStringReferenceParser {
 public:
  explicit JsonStringReferenceParser(std::string_view text) : text_(text) {}

  std::string parseDocument() {
    skipWs();
    if (atEnd()) fail("unexpected end of input");
    std::string v = parseString();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(pos_, message);
  }
  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  char take() {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_++];
  }
  void expect(char c) {
    if (atEnd() || text_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void skipWs() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      const unsigned char u = static_cast<unsigned char>(c);
      if (c == '"') break;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': appendEscapedCodepoint(out); break;
          default: fail("invalid escape sequence");
        }
      } else if (u < 0x20) {
        fail("unescaped control character in string");
      } else if (u < 0x80) {
        out += c;
      } else {
        appendUtf8Sequence(out, u);
      }
    }
    return out;
  }

  void appendUtf8Sequence(std::string& out, unsigned char lead) {
    int extra = 0;
    unsigned cp = 0;
    if ((lead & 0xE0) == 0xC0) { extra = 1; cp = lead & 0x1F; }
    else if ((lead & 0xF0) == 0xE0) { extra = 2; cp = lead & 0x0F; }
    else if ((lead & 0xF8) == 0xF0) { extra = 3; cp = lead & 0x07; }
    else fail("invalid UTF-8 byte in string");
    std::string seq(1, static_cast<char>(lead));
    for (int i = 0; i < extra; ++i) {
      const char c = take();
      if ((static_cast<unsigned char>(c) & 0xC0) != 0x80)
        fail("truncated UTF-8 sequence in string");
      cp = (cp << 6) | (static_cast<unsigned char>(c) & 0x3F);
      seq += c;
    }
    static constexpr unsigned kMinForLen[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < kMinForLen[extra] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
      fail("invalid UTF-8 codepoint in string");
    out += seq;
  }

  unsigned parseHex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return v;
  }

  void appendEscapedCodepoint(std::string& out) {
    unsigned cp = parseHex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (atEnd() || take() != '\\' || take() != 'u') fail("unpaired high surrogate");
      const unsigned lo = parseHex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace pmsched
