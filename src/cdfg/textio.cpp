#include "cdfg/textio.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <system_error>

#include "cdfg/name_table.hpp"
#include "support/fault_injector.hpp"
#include "support/strings.hpp"

namespace pmsched {

namespace {

OpKind kindFromName(std::string_view name, SourceLoc loc) {
  for (const OpKind kind :
       {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::CmpGt, OpKind::CmpGe, OpKind::CmpLt,
        OpKind::CmpLe, OpKind::CmpEq, OpKind::CmpNe, OpKind::Mux, OpKind::And, OpKind::Or,
        OpKind::Xor, OpKind::Not, OpKind::Shl, OpKind::Shr}) {
    if (opName(kind) == name) return kind;
  }
  throw ParseError(loc, "unknown operation kind '" + std::string(name) + "'");
}

/// The whitespace set of the "C" locale: space, \t, \n, \v, \f, \r.
constexpr bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// Field cursor over one statement (the line with its comment cut off).
/// Reads exactly what `std::istream >>` would: a string field is the next
/// maximal run of non-space characters; an integer field skips spaces, then
/// takes [+-]?[0-9]+ and leaves the cursor right after the last digit, so
/// `8abc` reads as 8 followed by the field `abc`.
class Fields {
 public:
  explicit Fields(std::string_view line) : p_(line.data()), end_(line.data() + line.size()) {}

  /// Next field; empty when the statement has none left.
  std::string_view token() {
    skipSpace();
    const char* start = p_;
    while (p_ != end_ && !isSpace(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// False on a missing field, a sign with no digit after it, or a value
  /// outside `Int` (the cursor is then unspecified; callers throw).
  template <typename Int>
  bool integer(Int& out) {
    skipSpace();
    const char* p = p_;
    if (p != end_ && *p == '+') {
      ++p;
      if (p == end_ || !isDigit(*p)) return false;  // from_chars would take "+-5"
    }
    const auto [next, ec] = std::from_chars(p, end_, out);
    if (ec != std::errc()) return false;
    p_ = next;
    return true;
  }

 private:
  void skipSpace() {
    while (p_ != end_ && isSpace(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

std::string saveGraphText(const Graph& g) {
  std::string out;
  out.reserve(16 + g.name().size() + 40 * g.size() + 24 * g.controlEdgeCount());
  auto field = [&out](std::string_view s) {
    out += ' ';
    out += s;
  };
  out += "graph ";
  out += g.name();
  out += '\n';
  for (NodeId n = 0; n < g.size(); ++n) {
    const Node& node = g.node(n);
    switch (node.kind) {
      case OpKind::Input:
        out += "input";
        field(node.name);
        out += ' ';
        appendInt(out, node.width);
        break;
      case OpKind::Const:
        out += "const";
        field(node.name);
        out += ' ';
        appendInt(out, node.width);
        out += ' ';
        appendInt(out, node.constValue);
        break;
      case OpKind::Wire:
        out += "wire";
        field(node.name);
        field(g.node(node.operands[0]).name);
        out += ' ';
        appendInt(out, node.shift);
        break;
      case OpKind::Output:
        out += "output";
        field(node.name);
        field(g.node(node.operands[0]).name);
        break;
      default:
        out += "node";
        field(opName(node.kind));
        field(node.name);
        out += ' ';
        appendInt(out, node.width);
        for (const NodeId op : node.operands) field(g.node(op).name);
    }
    out += '\n';
  }
  for (NodeId n = 0; n < g.size(); ++n) {
    for (const NodeId succ : g.controlSuccessors(n)) {
      out += "ctrl";
      field(g.node(n).name);
      field(g.node(succ).name);
      out += '\n';
    }
  }
  return out;
}

Graph loadGraphText(std::string_view text) {
  // Every node has its own line of at least 9 bytes ("input a 8"), so
  // this bounds the node count without letting blank or comment lines
  // inflate the tables.
  const std::size_t maxNodes =
      std::min(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1,
               text.size() / 9 + 1);
  Graph g;
  g.reserve(maxNodes);
  NameTable byName(g, maxNodes);
  std::vector<NodeId> operands;

  auto resolve = [&](std::string_view name, SourceLoc loc) {
    const NodeId id = byName.find(name);
    if (id == kInvalidNode) throw ParseError(loc, "unknown node '" + std::string(name) + "'");
    return id;
  };
  // Catch duplicates at the defining line: silently rebinding the name
  // would leave the earlier node unreachable by name and surface much
  // later as a confusing validate() failure with no line information.
  auto define = [&](std::string_view name, NodeId id, SourceLoc loc) {
    if (!byName.insert(name, id))
      throw ParseError(loc, "duplicate node name '" + std::string(name) + "'");
  };

  std::size_t lineNo = 0;
  bool sawGraph = false;
  const char* const textEnd = text.data() + text.size();
  for (const char* lineStart = text.data(); lineStart != textEnd;) {
    const char* newline =
        static_cast<const char*>(std::memchr(lineStart, '\n', textEnd - lineStart));
    const char* lineEnd = newline != nullptr ? newline : textEnd;
    std::string_view line(lineStart, static_cast<std::size_t>(lineEnd - lineStart));
    lineStart = newline != nullptr ? newline + 1 : textEnd;
    ++lineNo;
    const SourceLoc loc{lineNo, 1};
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);

    Fields fields(line);
    const std::string_view keyword = fields.token();
    if (keyword.empty()) continue;
    auto name = [&](const char* what) {
      const std::string_view field = fields.token();
      if (field.empty())
        throw ParseError(loc, std::string("expected ") + what + " after '" +
                                  std::string(keyword) + "'");
      return field;
    };
    auto number = [&](auto& value, const char* what) {
      if (!fields.integer(value))
        throw ParseError(loc, std::string("expected ") + what + " after '" +
                                  std::string(keyword) + "'");
    };

    // Outside the rewrap below: an injected fault must surface as itself
    // (the matrix asserts the internal-error path), not as a parse error.
    fault::point("parse-stmt");
    try {
    if (keyword == "node") {
      const std::string_view kindName = name("operation kind");
      const std::string_view nodeName = name("node name");
      int width = 0;
      number(width, "width");
      const OpKind kind = kindFromName(kindName, loc);
      operands.clear();
      for (std::string_view operand = fields.token(); !operand.empty();
           operand = fields.token())
        operands.push_back(resolve(operand, loc));
      define(nodeName,
             g.addOp(kind, operands, std::string(nodeName), width),
             loc);
    } else if (keyword == "ctrl") {
      const std::string_view from = name("source node");
      const std::string_view to = name("target node");
      g.addControlEdge(resolve(from, loc), resolve(to, loc));
    } else if (keyword == "input") {
      const std::string_view inputName = name("input name");
      int width = 0;
      number(width, "width");
      define(inputName, g.addInput(std::string(inputName), width), loc);
    } else if (keyword == "output") {
      const std::string_view outputName = name("output name");
      const std::string_view src = name("source");
      define(outputName, g.addOutput(resolve(src, loc), std::string(outputName)), loc);
    } else if (keyword == "const") {
      const std::string_view constName = name("const name");
      int width = 0;
      std::int64_t value = 0;
      number(width, "width");
      number(value, "value");
      define(constName, g.addConst(value, width, std::string(constName)), loc);
    } else if (keyword == "wire") {
      const std::string_view wireName = name("wire name");
      const std::string_view src = name("source");
      int shift = 0;
      number(shift, "shift");
      define(wireName, g.addWire(resolve(src, loc), shift, std::string(wireName)), loc);
    } else if (keyword == "graph") {
      g.setName(std::string(name("graph name")));
      sawGraph = true;
    } else {
      throw ParseError(loc, "unknown statement '" + std::string(keyword) + "'");
    }
    } catch (const ParseError&) {
      throw;
    } catch (const SynthesisError& e) {
      // Structural rejections from the Graph builders (mux arity, width
      // mismatch, self-edge, ...) happen while THIS statement is being
      // applied — surface them as parse errors with its location.
      throw ParseError(loc, e.what());
    }
  }
  if (!sawGraph) throw ParseError(SourceLoc{1, 1}, "missing 'graph NAME' header");
  try {
    g.validate();
  } catch (const SynthesisError& e) {
    // Whole-graph problems (cycles, dangling outputs) have no single line;
    // report them as a parse error at an unknown location so every rejection
    // of malformed text is one exception family.
    throw ParseError(SourceLoc{0, 0}, std::string("invalid graph: ") + e.what());
  }
  return g;
}

}  // namespace pmsched
