// Differential suite for the text front end: loadGraphText, saveGraphText
// and canonicalizeGraph against the stream-based references kept in
// text_front_end_reference.hpp, and the JSON string writer and parser
// against theirs.
//
// For every input the reader must produce the same graph (saveGraphText
// text plus control predecessor order) or throw the same exception type
// with the same what(). Inputs: the paper and HLS circuits, tests/corpus, a
// random ladder from 2x2 to 1024x16, transformed designs (so the text has
// ctrl lines), all of them renamed and reordered, and a seeded
// statement-mutation fuzzer aimed at the lexical corners.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "circuits/circuits.hpp"
#include "graph_permute.hpp"
#include "sched/power_transform.hpp"
#include "support/json.hpp"
#include "support/random_dfg.hpp"
#include "text_front_end_reference.hpp"

#ifndef PMSCHED_CORPUS_DIR
#error "PMSCHED_CORPUS_DIR must point at tests/corpus (set by CMakeLists.txt)"
#endif

namespace pmsched {
namespace {

/// What one reader made of one text: the graph written back by the
/// reference writer plus its control predecessor lists, or the exception.
struct ParseOutcome {
  std::string graphText;
  std::string ctrlPreds;
  std::string error;

  friend bool operator==(const ParseOutcome&, const ParseOutcome&) = default;
};

std::string describe(const ParseOutcome& o) {
  return o.error.empty() ? "graph:\n" + o.graphText : "error: " + o.error;
}

template <typename Loader>
ParseOutcome parseWith(Loader load, std::string_view text) {
  try {
    const Graph g = load(text);
    ParseOutcome out;
    out.graphText = saveGraphTextReference(g);
    for (NodeId n = 0; n < g.size(); ++n) {
      out.ctrlPreds += std::to_string(n) + ':';
      for (const NodeId p : g.controlPredecessors(n)) out.ctrlPreds += ' ' + std::to_string(p);
      out.ctrlPreds += '\n';
    }
    return out;
  } catch (const ParseError& e) {
    return {{}, {}, "ParseError " + e.loc().toString() + " | " + e.what()};
  } catch (const SynthesisError& e) {
    return {{}, {}, std::string("SynthesisError | ") + e.what()};
  } catch (const std::exception& e) {
    return {{}, {}, std::string("std::exception | ") + e.what()};
  }
}

/// Empty when both readers agree on `text`, else a report of the split.
std::string parseMismatch(std::string_view text) {
  const ParseOutcome want = parseWith(loadGraphTextReference, text);
  const ParseOutcome got = parseWith(loadGraphText, text);
  if (got == want) return {};
  return "input:\n" + std::string(text) + "\nreference " + describe(want) + "\nloadGraphText " +
         describe(got);
}

void expectSameForm(const Graph& g, const std::string& label) {
  const CanonicalForm want = canonicalizeGraphReference(g);
  const CanonicalForm got = canonicalizeGraph(g);
  EXPECT_EQ(got.text, want.text) << label;
  EXPECT_EQ(got.hash, want.hash) << label;
  EXPECT_EQ(got.order, want.order) << label;
  EXPECT_EQ(got.indexOf, want.indexOf) << label;
}

/// Writer, canonical form and reader of `g` all agree with the references.
void expectFrontEndAgrees(const Graph& g, const std::string& label) {
  const std::string text = saveGraphTextReference(g);
  EXPECT_EQ(saveGraphText(g), text) << label;
  expectSameForm(g, label);
  const std::string mismatch = parseMismatch(text);
  EXPECT_TRUE(mismatch.empty()) << label << "\n" << mismatch;
}

/// `g`, a renamed copy in the same order, and a renamed producers-first
/// reordering.
void expectAgreesOnIsomorphs(const Graph& g, const std::string& label, std::uint64_t seed) {
  expectFrontEndAgrees(g, label);
  expectFrontEndAgrees(rebuildInOrder(g, g.allNodes(), "r"), label + " renamed");
  std::mt19937_64 rng(seed);
  expectFrontEndAgrees(rebuildInOrder(g, randomTopoOrder(g, rng), "q"), label + " reordered");
}

Graph transformed(const Graph& g) {
  return applyPowerManagement(g, criticalPathLength(g) + 2).graph;
}

TEST(TextFrontEnd, CircuitsMatchTheReference) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& circuit : circuits::paperCircuits()) graphs.emplace_back(circuit.name, circuit.build());
  graphs.emplace_back("diffeq", circuits::diffeq());
  graphs.emplace_back("fir8", circuits::fir8());
  graphs.emplace_back("arf", circuits::arf());
  graphs.emplace_back("ewf", circuits::ewf());
  std::uint64_t seed = 1;
  for (const auto& [name, g] : graphs) {
    expectAgreesOnIsomorphs(g, name, seed++);
    const Graph design = transformed(g);
    expectAgreesOnIsomorphs(design, name + " transformed", seed++);
  }
}

TEST(TextFrontEnd, TransformedDesignsCarryCtrlLines) {
  const Graph design = transformed(circuits::dealer());
  ASSERT_GT(design.controlEdgeCount(), 0u);
  EXPECT_NE(saveGraphText(design).find("\nctrl "), std::string::npos);
}

TEST(TextFrontEnd, RandomLadderMatchesTheReference) {
  const std::vector<std::pair<int, int>> ladder = {{2, 2},    {4, 4},    {8, 4},   {16, 8},
                                                   {32, 8},   {64, 16},  {128, 16}, {256, 16},
                                                   {512, 16}, {1024, 16}};
  std::uint64_t seed = 11;
  for (const auto& [layers, perLayer] : ladder) {
    const std::string label = std::to_string(layers) + "x" + std::to_string(perLayer);
    const Graph g = randomLayeredDfg(layers, perLayer, seed);
    expectAgreesOnIsomorphs(g, label, seed++);
    expectAgreesOnIsomorphs(transformed(g), label + " transformed", seed++);
  }
}

TEST(TextFrontEnd, CorpusMatchesTheReference) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(PMSCHED_CORPUS_DIR)) {
    if (entry.path().extension() != ".cdfg") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::string mismatch = parseMismatch(text);
    EXPECT_TRUE(mismatch.empty()) << entry.path().filename() << "\n" << mismatch;
    if (mismatch.empty() && parseWith(loadGraphText, text).error.empty())
      expectFrontEndAgrees(loadGraphText(text), entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 22u);
}

// One statement each, on top of a valid prefix; pins what the lenient
// integer reading accepts so a later tightening is a visible decision.
TEST(TextFrontEnd, LexicalCornersMatchTheReference) {
  const std::string prefix = "graph g\ninput a 8\ninput b 8\n";
  const std::vector<std::string> statements = {
      "input c 8abc",        "input c +8",           "input c -0",
      "input c 007",         "input c 0x10",         "input c 99999999999",
      "input c +",           "input c -",            "input c +-8",
      "input c 2147483647",  "input c 2147483648",   "input c -2147483649",
      "const k 8 9223372036854775807", "const k 8 -9223372036854775808",
      "const k 8 9223372036854775808", "const k 8 +7x",
      "node add s 8abc a b", "node add s 8 a b extra",
      "node\tadd\vs\f8\ra b", "node add s 8 a b # c d",
      "node add s 8 a#b",    "output o a trailing fields",
      "wire w a +3",         "wire w a 3.5",          "ctrl a a",
      "\v\f\r",              "#",                     "node add s 8 a \x80" "b",
      std::string("input n\0ul 8", 12),
  };
  for (const std::string& stmt : statements) {
    for (const char* tail : {"\n", "", "\r\n"}) {
      const std::string text = prefix + stmt + tail;
      const std::string mismatch = parseMismatch(text);
      EXPECT_TRUE(mismatch.empty()) << mismatch;
    }
  }
  // The lenient reading, spelled out.
  const Graph g = loadGraphText(prefix + "input c 8abc\n");
  EXPECT_EQ(g.node(*g.findByName("c")).width, 8);
  try {
    (void)loadGraphText(prefix + "node add s 8abc a b\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "4:1: unknown node 'abc'");
  }
}

// ---- statement-mutation fuzzer ---------------------------------------------

const char* const kBaseTexts[] = {
    "# every statement kind\n"
    "graph kinds\n"
    "input a 8\n"
    "input b 8\n"
    "const k 8 -3\n"
    "wire w a 2\n"
    "node gt c 1 a b\n"
    "node add s 8 w k\n"
    "node sub d 8 b k\n"
    "node mux m 8 c s d\n"
    "node not n 8 m\n"
    "output out n\n"
    "ctrl c s\n"
    "ctrl c d\n",
};

std::vector<std::string> baseTexts() {
  std::vector<std::string> texts(std::begin(kBaseTexts), std::end(kBaseTexts));
  texts.push_back(saveGraphText(transformed(circuits::absdiff())));
  texts.push_back(saveGraphText(transformed(circuits::dealer())));
  texts.push_back(saveGraphText(randomLayeredDfg(3, 3, 5)));
  return texts;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> splitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string t; in >> t;) tokens.push_back(t);
  return tokens;
}

std::string joinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) out += (i == 0 ? "" : " ") + tokens[i];
  return out;
}

/// One seeded mutant of `text`: one to three edits of lines, tokens,
/// separators, comments and line endings.
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  static const std::vector<std::string> kNumbers = {
      "8abc", "+8", "-0", "99999999999", "+", "-", "+-8", "0x10", "007", "1e3", "8.5",
      "2147483648", "-2147483649", "9223372036854775808", "-9223372036854775809", "1"};
  static const std::vector<std::string> kSeparators = {"\t", "\r", "\v", "\f", "  ", " \t\r "};
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };

  std::vector<std::string> lines = splitLines(text);
  const int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    const std::size_t li = pick(lines.size());
    std::string& line = lines[li];
    std::vector<std::string> tokens = splitTokens(line);
    switch (pick(12)) {
      case 0: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(li)); break;
      case 1: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(li), line); break;
      case 2: std::swap(line, lines[pick(lines.size())]); break;
      case 3:
        if (!tokens.empty()) tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick(tokens.size())));
        line = joinTokens(tokens);
        break;
      case 4:
        if (!tokens.empty()) {
          const std::size_t t = pick(tokens.size());
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t), tokens[t]);
        }
        line = joinTokens(tokens);
        break;
      case 5:
        if (tokens.size() >= 2) std::swap(tokens[pick(tokens.size())], tokens[pick(tokens.size())]);
        line = joinTokens(tokens);
        break;
      case 6:  // replace a field with a number-shaped corner
        if (!tokens.empty()) tokens[pick(tokens.size())] = kNumbers[pick(kNumbers.size())];
        line = joinTokens(tokens);
        break;
      case 7:  // glue a suffix onto a field
        if (!tokens.empty()) tokens[pick(tokens.size())] += kNumbers[pick(kNumbers.size())];
        line = joinTokens(tokens);
        break;
      case 8: {  // exotic separators
        std::string spaced;
        for (const char c : line)
          spaced += c == ' ' && pick(2) == 0 ? kSeparators[pick(kSeparators.size())]
                                             : std::string(1, c);
        line = spaced;
        break;
      }
      case 9: line.insert(pick(line.size() + 1), "#"); break;
      case 10: line += kSeparators[pick(kSeparators.size())]; break;
      case 11: line.insert(pick(line.size() + 1), std::string(1, static_cast<char>(pick(256)))); break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + (pick(8) == 0 ? "\r\n" : "\n");
  if (!out.empty() && pick(3) == 0) out.pop_back();  // no final newline
  return out;
}

TEST(TextFrontEnd, StatementMutationFuzzMatchesTheReference) {
  const std::vector<std::string> bases = baseTexts();
  std::mt19937_64 rng(0x16F0220ULL);
  std::size_t mismatches = 0, accepted = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(bases[static_cast<std::size_t>(i) % bases.size()], rng);
    const std::string mismatch = parseMismatch(text);
    if (!mismatch.empty() && ++mismatches <= 3) ADD_FAILURE() << "mutant " << i << "\n" << mismatch;
    if (mismatch.empty() && parseWith(loadGraphText, text).error.empty()) ++accepted;
  }
  EXPECT_EQ(mismatches, 0u);
  // The fuzzer must reach both sides of the reader, not only its errors.
  EXPECT_GT(accepted, static_cast<std::size_t>(kMutants / 10));
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutants * 9 / 10));
}

// ---- JSON strings ------------------------------------------------------------

/// A random byte string biased toward the bytes the escape and UTF-8 paths
/// care about.
std::string randomJsonishString(std::mt19937_64& rng) {
  static const std::vector<std::string> kPieces = {
      "a", "Z", " ", "/", "\"", "\\", "\n", "\t", "\r", "\b", "\f", std::string(1, '\0'),
      "\x01", "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "\x80", "\xc0\x80",
      "\xed\xa0\x80", "\xf5\x80\x80\x80", "\xe2\x82", "\xff", "plain text run "};
  std::string s;
  const std::size_t pieces = rng() % 24;
  for (std::size_t i = 0; i < pieces; ++i) s += kPieces[rng() % kPieces.size()];
  return s;
}

/// parseJson of a one-string document, or the JsonParseError text.
template <typename Parse>
std::string parseStringDoc(Parse parse, std::string_view doc) {
  try {
    return "ok:" + parse(doc);
  } catch (const JsonParseError& e) {
    return std::string("JsonParseError:") + e.what();
  } catch (const std::exception& e) {
    return std::string("std::exception:") + e.what();
  }
}

std::string parseShipped(std::string_view doc) {
  const JsonValue v = parseJson(doc);
  if (!v.isString()) throw std::logic_error("not a string");
  return v.asString();
}

std::string parseReference(std::string_view doc) {
  return JsonStringReferenceParser(doc).parseDocument();
}

/// `s` as the reference escape writes it, quoted.
std::string quotedReference(const std::string& s) {
  std::string out(1, '"');
  out += jsonEscapeReference(s);
  out += '"';
  return out;
}

TEST(JsonFrontEnd, EscapeAndRoundTripMatchTheReference) {
  std::mt19937_64 rng(0x150A);
  for (int i = 0; i < 4000; ++i) {
    const std::string s = randomJsonishString(rng);
    JsonWriter w;
    w.value(s);
    const std::string doc = w.str();
    ASSERT_EQ(doc, quotedReference(s)) << i;
    // Keys go through the same escape.
    JsonWriter o;
    o.beginObject().key(s).value(1).endObject();
    ASSERT_EQ(o.str(), '{' + quotedReference(s) + ":1}") << i;
    const std::string got = parseStringDoc(parseShipped, doc);
    ASSERT_EQ(got, parseStringDoc(parseReference, doc)) << i;
    if (got.rfind("ok:", 0) == 0) {
      EXPECT_EQ(got.substr(3), s) << i;
    }
  }
}

TEST(JsonFrontEnd, StringParseFuzzMatchesTheReference) {
  static const std::vector<std::string> kPieces = {
      "abc", " ", "\\n", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\r", "\\t", "\\u00e9",
      "\\u20AC", "\\ud83d\\ude00", "\\ud83d", "\\udc00", "\\ud83dx", "\\x", "\\u12g4", "\\u",
      "\t", std::string(1, '\0'), "\x1f", "\xc3\xa9", "\xf0\x9f\x98\x80", "\x80", "\xc0\xaf",
      "\xed\xa0\x80", "\xe2\x82", "\xff", "\"", "\\"};
  std::mt19937_64 rng(0xF022);
  std::size_t ok = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string doc = rng() % 4 == 0 ? " \r\n\t" : "";
    doc += '"';
    const std::size_t pieces = rng() % 12;
    for (std::size_t k = 0; k < pieces; ++k) doc += kPieces[rng() % kPieces.size()];
    if (rng() % 8 != 0) doc += '"';
    if (rng() % 6 == 0) doc += rng() % 2 == 0 ? " \n" : " x";
    const std::string got = parseStringDoc(parseShipped, doc);
    ASSERT_EQ(got, parseStringDoc(parseReference, doc)) << "doc #" << i;
    if (got.rfind("ok:", 0) == 0) ++ok;
  }
  EXPECT_GT(ok, 300u);
}

TEST(JsonFrontEnd, NumbersMatchStreamFormatting) {
  std::mt19937_64 rng(12);
  std::vector<double> doubles = {0.0, -0.0, 1.0, -1.5, 0.1, 1e-7, 123456789012.0, 1234567890123.0,
                                 1e21, 3.14159265358979, 2.5e-300, 1.7976931348623157e308};
  for (int i = 0; i < 2000; ++i) {
    const double mag = std::ldexp(static_cast<double>(rng() % 1000003) / 1000003.0,
                                  static_cast<int>(rng() % 200) - 100);
    doubles.push_back(rng() % 2 == 0 ? mag : -mag);
  }
  for (const double d : doubles) {
    std::ostringstream want;
    want.precision(12);
    want << d;
    JsonWriter w;
    w.value(d);
    ASSERT_EQ(w.str(), want.str()) << d;
  }
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
                               INT64_MIN, INT64_MAX}) {
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), std::to_string(v));
  }
}

}  // namespace
}  // namespace pmsched
