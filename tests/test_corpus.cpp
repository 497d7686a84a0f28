// Deterministic malformed-input corpus replay: every tests/corpus/*.bad.cdfg
// must be rejected with a ParseError (one exception family, a usable
// location, a nonempty message — never an abort or a stray exception type),
// and every *.ok.cdfg must load and validate. The same files run through
// the pmsched CLI in tools/run_corpus.sh, which additionally pins the exit
// codes and the structured stderr diagnostic.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdfg/textio.hpp"

#ifndef PMSCHED_CORPUS_DIR
#error "PMSCHED_CORPUS_DIR must point at tests/corpus (set by CMakeLists.txt)"
#endif

namespace pmsched {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<fs::path> corpusFiles(const std::string& suffix) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(PMSCHED_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Corpus, EveryMalformedFileIsRejectedWithAStructuredParseError) {
  const std::vector<fs::path> bad = corpusFiles(".bad.cdfg");
  ASSERT_GE(bad.size(), 17u) << "corpus went missing from " << PMSCHED_CORPUS_DIR;
  for (const fs::path& path : bad) {
    const std::string text = slurp(path);
    try {
      (void)loadGraphText(text);
      ADD_FAILURE() << path.filename() << ": expected ParseError, parsed fine";
    } catch (const ParseError& e) {
      EXPECT_FALSE(std::string(e.what()).empty()) << path.filename();
      // loc line 0 is the documented "whole-graph problem" marker; any
      // other value must point into the file.
      const std::size_t lines =
          static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
      EXPECT_LE(e.loc().line, lines) << path.filename();
    } catch (const std::exception& e) {
      ADD_FAILURE() << path.filename() << ": wrong exception family: " << e.what();
    }
  }
}

TEST(Corpus, EveryValidFileLoadsAndValidates) {
  const std::vector<fs::path> ok = corpusFiles(".ok.cdfg");
  ASSERT_GE(ok.size(), 5u) << "corpus went missing from " << PMSCHED_CORPUS_DIR;
  for (const fs::path& path : ok) {
    const Graph g = loadGraphText(slurp(path));
    EXPECT_GT(g.size(), 0u) << path.filename();
    EXPECT_NO_THROW(g.validate()) << path.filename();
  }
}

// Lexical corners of the text format, pinned by file: line endings and
// field separators the reader must take, and integer fields it must refuse
// with the same message the stream-based reader gave.
TEST(Corpus, LexicalEdgeCasesArePinned) {
  const fs::path dir(PMSCHED_CORPUS_DIR);
  const Graph crlf = loadGraphText(slurp(dir / "crlf.ok.cdfg"));
  EXPECT_EQ(crlf.name(), "crlf");
  EXPECT_EQ(crlf.size(), 7u);
  const Graph tabs = loadGraphText(slurp(dir / "tabs-no-final-newline.ok.cdfg"));
  EXPECT_EQ(tabs.name(), "tabs");
  ASSERT_TRUE(tabs.findByName("out").has_value());
  EXPECT_EQ(tabs.size(), 5u);
  for (const char* file : {"width-overflow.bad.cdfg", "bare-sign.bad.cdfg"}) {
    try {
      (void)loadGraphText(slurp(dir / file));
      ADD_FAILURE() << file << ": expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "2:1: expected width after 'input'") << file;
    }
  }
}

}  // namespace
}  // namespace pmsched
