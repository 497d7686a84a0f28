// Cache persistence: the record format (CRC framing, round-trip,
// corrupt-tail tolerance), snapshot + journal replay, the two fault sites,
// and the DesignCache integration — a restart with the same path must come
// up warm with exactly the durably-written prefix.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "server/cache_persist.hpp"
#include "server/design_cache.hpp"
#include "server/service.hpp"
#include "support/fault_injector.hpp"

namespace pmsched {
namespace {

namespace fs = std::filesystem;

/// Fresh snapshot path in a per-test temp dir, removed on destruction.
struct TempStore {
  TempStore() {
    dir = fs::temp_directory_path() /
          ("pmsched_persist_" + std::to_string(::getpid()) + "_" +
           std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::create_directories(dir);
    path = (dir / "design.cache").string();
  }
  ~TempStore() {
    fault::arm("");
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  fs::path dir;
  std::string path;
};

PersistRecord sampleRecord(int steps = 6) {
  PersistRecord r;
  r.hash = 0x0123456789abcdefULL;
  r.canonicalText = "canonical-text-" + std::to_string(steps);
  r.options.steps = steps;
  r.options.ordering = MuxOrdering::BySavings;
  r.options.optimal = true;
  r.options.shared = false;
  r.value.summary.ops = 12;
  r.value.summary.criticalPath = 4;
  r.value.summary.steps = steps;
  r.value.summary.managed = 3;
  r.value.summary.sharedGated = 1;
  r.value.summary.units = "add:2 mul:1";
  r.value.summary.reductionPercent = "17.50";
  r.value.ctrlEdges = {{0, 3}, {2, 5}, {7, 1}};
  r.order = {2, 0, 1, 3, 7, 5, 4, 6};
  return r;
}

void expectEqual(const PersistRecord& a, const PersistRecord& b) {
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.canonicalText, b.canonicalText);
  EXPECT_EQ(a.options, b.options);
  EXPECT_EQ(a.value.summary.ops, b.value.summary.ops);
  EXPECT_EQ(a.value.summary.criticalPath, b.value.summary.criticalPath);
  EXPECT_EQ(a.value.summary.steps, b.value.summary.steps);
  EXPECT_EQ(a.value.summary.managed, b.value.summary.managed);
  EXPECT_EQ(a.value.summary.sharedGated, b.value.summary.sharedGated);
  EXPECT_EQ(a.value.summary.units, b.value.summary.units);
  EXPECT_EQ(a.value.summary.reductionPercent, b.value.summary.reductionPercent);
  EXPECT_FALSE(b.value.summary.degraded) << "restored entries are never degraded";
  EXPECT_EQ(a.value.ctrlEdges, b.value.ctrlEdges);
  EXPECT_EQ(a.order, b.order);
}

void appendBytes(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CachePersist, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 test vector; pins polynomial, reflection and init.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(CachePersist, RecordRoundTripsThroughTheWireFormat) {
  const PersistRecord original = sampleRecord();
  const std::string wire = encodePersistRecord(original);
  std::size_t offset = 0;
  const auto decoded = decodePersistRecord(wire, offset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(offset, wire.size()) << "decode must consume the whole frame";
  expectEqual(original, *decoded);
}

TEST(CachePersist, DecodeStopsAtTruncatedAndCorruptTails) {
  const std::string r1 = encodePersistRecord(sampleRecord(4));
  const std::string r2 = encodePersistRecord(sampleRecord(8));

  // Truncation anywhere in the second frame: first record still decodes,
  // the tail is rejected without advancing the offset.
  std::string truncated = r1 + r2.substr(0, r2.size() - 3);
  std::size_t offset = 0;
  ASSERT_TRUE(decodePersistRecord(truncated, offset).has_value());
  EXPECT_EQ(offset, r1.size());
  EXPECT_FALSE(decodePersistRecord(truncated, offset).has_value());
  EXPECT_EQ(offset, r1.size());

  // A flipped payload byte fails the CRC.
  std::string corrupt = r2;
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x5a);
  offset = 0;
  EXPECT_FALSE(decodePersistRecord(corrupt, offset).has_value());

  // A length field pointing past any sane payload is rejected, not used to
  // size an allocation.
  std::string hugeLen(8, '\0');
  hugeLen[0] = hugeLen[1] = hugeLen[2] = hugeLen[3] = static_cast<char>(0xff);
  offset = 0;
  EXPECT_FALSE(decodePersistRecord(hugeLen, offset).has_value());
}

TEST(CachePersist, LoadReplaysSnapshotThenJournalAndDropsTheBadTail) {
  TempStore store;
  CachePersistence persist(store.path);
  ASSERT_TRUE(persist.writeSnapshot({sampleRecord(2)}));
  ASSERT_TRUE(persist.append(sampleRecord(3)));
  ASSERT_TRUE(persist.append(sampleRecord(4)));
  // kill -9 mid-append: the journal ends in half a record.
  appendBytes(persist.journalPath(), encodePersistRecord(sampleRecord(5)).substr(0, 7));

  CachePersistence reopened(store.path);
  const auto loaded = reopened.load();
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.replayed, 3u);
  EXPECT_EQ(loaded.skipped, 1u);
  expectEqual(sampleRecord(2), loaded.records[0]);
  expectEqual(sampleRecord(3), loaded.records[1]);
  expectEqual(sampleRecord(4), loaded.records[2]);
}

TEST(CachePersist, CorruptSnapshotHeaderStillReplaysTheJournal) {
  TempStore store;
  CachePersistence persist(store.path);
  ASSERT_TRUE(persist.writeSnapshot({sampleRecord(2)}));
  ASSERT_TRUE(persist.append(sampleRecord(3)));
  // Stomp the snapshot magic: the snapshot is lost, the journal is not.
  {
    std::ofstream out(store.path, std::ios::binary);
    out << "NOTMAGIC";
  }
  const auto loaded = CachePersistence(store.path).load();
  ASSERT_EQ(loaded.records.size(), 1u);
  expectEqual(sampleRecord(3), loaded.records[0]);
  EXPECT_GE(loaded.skipped, 1u);
}

TEST(CachePersist, SnapshotLoadFaultDegradesToAColdStart) {
  TempStore store;
  CachePersistence persist(store.path);
  ASSERT_TRUE(persist.writeSnapshot({sampleRecord(2)}));
  fault::arm("cache-snapshot-load:1");
  const auto loaded = CachePersistence(store.path).load();
  fault::arm("");
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.replayed, 0u);
  EXPECT_GE(loaded.skipped, 1u);
  // The files themselves are untouched: the next load is warm again.
  EXPECT_EQ(CachePersistence(store.path).load().replayed, 1u);
}

TEST(CachePersist, JournalWriteFaultLosesOnlyThatAppend) {
  TempStore store;
  CachePersistence persist(store.path);
  fault::arm("cache-journal-write:1");
  EXPECT_FALSE(persist.append(sampleRecord(3)));
  fault::arm("");
  EXPECT_TRUE(persist.append(sampleRecord(4)));
  const auto loaded = CachePersistence(store.path).load();
  ASSERT_EQ(loaded.records.size(), 1u);
  expectEqual(sampleRecord(4), loaded.records[0]);
}

/// `record` framed as format version 1 wrote it: the same payload without
/// the trailing order permutation.
std::string versionOneFrame(const PersistRecord& record) {
  const std::string frame = encodePersistRecord(record);
  std::string payload = frame.substr(8);
  payload.resize(payload.size() - 4 * (record.order.size() + 1));
  std::string out;
  for (const std::uint32_t v : {static_cast<std::uint32_t>(payload.size()), crc32(payload)})
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  return out + payload;
}

TEST(CachePersist, VersionOneFilesStartColdAndCountTheDrop) {
  TempStore store;
  {
    std::ofstream out(store.path, std::ios::binary);
    out.write("PMSCACHE", 8);
    out.write("\x01\x00\x00\x00", 4);
    const std::string frame = versionOneFrame(sampleRecord(2));
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  appendBytes(store.path + ".journal", versionOneFrame(sampleRecord(3)));

  const auto loaded = CachePersistence(store.path).load();
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.replayed, 0u);
  EXPECT_EQ(loaded.skipped, 2u) << "one for the snapshot, one for the journal";

  DesignCache cache(8);
  cache.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().journalSkipped, 2u);
}

// ---- DesignCache integration ----------------------------------------------

constexpr const char* kGraphText =
    "graph g\n"
    "input a 8\n"
    "input b 8\n"
    "input c 8\n"
    "node add s 8 a b\n"
    "node mul p 8 s c\n"
    "output o p\n";

struct RealEntry {
  CanonicalForm form;
  DesignCacheOptions options;
  DesignOutcome outcome;
};

RealEntry makeRealEntry(int steps) {
  DesignJob dj;
  dj.graph = loadGraphText(kGraphText);
  dj.steps = steps;
  RealEntry e;
  e.form = canonicalizeGraph(dj.graph);
  e.options = DesignCacheOptions{dj.steps, dj.ordering, dj.optimal, dj.shared};
  e.outcome = runDesignJob(dj);
  return e;
}

TEST(CachePersist, DesignCacheRestartsWarmAndToleratesAGarbageTail) {
  TempStore store;
  const RealEntry a = makeRealEntry(4);
  const RealEntry b = makeRealEntry(5);
  {
    DesignCache cache(8);
    cache.enablePersistence(std::make_unique<CachePersistence>(store.path));
    cache.insert(a.form, a.options, a.outcome);
    cache.insert(b.form, b.options, b.outcome);
    EXPECT_EQ(cache.stats().inserts, 2u);
  }  // no flush: the journal alone must carry both entries
  appendBytes(store.path + ".journal", "GARBAGE-TAIL");

  DesignCache restarted(8);
  restarted.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_EQ(restarted.stats().journalReplayed, 2u);
  EXPECT_EQ(restarted.stats().journalSkipped, 1u);
  EXPECT_EQ(restarted.size(), 2u);

  const auto hit = restarted.lookup(a.form, a.options);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->summary.managed, a.outcome.summary.managed);
  EXPECT_EQ(hit->summary.units, a.outcome.summary.units);
  EXPECT_EQ(hit->ctrlEdges, DesignCache::encodeCtrlEdges(a.form, a.outcome.design.graph));
  // The replayed design is byte-identical to the original serialization.
  const Graph replayed =
      DesignCache::replayDesignGraph(*hit, a.form, loadGraphText(kGraphText));
  EXPECT_EQ(saveGraphText(replayed), saveGraphText(a.outcome.design.graph));
}

TEST(CachePersist, CompactionSnapshotsAndTruncatesTheJournal) {
  TempStore store;
  const RealEntry a = makeRealEntry(4);
  const RealEntry b = makeRealEntry(5);
  const RealEntry c = makeRealEntry(6);
  DesignCache cache(8);
  cache.enablePersistence(
      std::make_unique<CachePersistence>(store.path, /*compactEvery=*/2));
  cache.insert(a.form, a.options, a.outcome);
  EXPECT_FALSE(fs::exists(store.path)) << "no snapshot before the threshold";
  cache.insert(b.form, b.options, b.outcome);  // 2nd append triggers compaction
  EXPECT_TRUE(fs::exists(store.path));
  EXPECT_EQ(fs::file_size(store.path + ".journal"), 0u);
  cache.insert(c.form, c.options, c.outcome);  // lands in the fresh journal
  EXPECT_GT(fs::file_size(store.path + ".journal"), 0u);

  DesignCache restarted(8);
  restarted.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_EQ(restarted.stats().journalReplayed, 3u);
  EXPECT_EQ(restarted.stats().journalSkipped, 0u);
  EXPECT_TRUE(restarted.lookup(a.form, a.options).has_value());
  EXPECT_TRUE(restarted.lookup(b.form, b.options).has_value());
  EXPECT_TRUE(restarted.lookup(c.form, c.options).has_value());
}

TEST(CachePersist, FlushSnapshotMakesTheDrainStateDurable) {
  TempStore store;
  const RealEntry a = makeRealEntry(4);
  {
    DesignCache cache(8);
    cache.enablePersistence(std::make_unique<CachePersistence>(store.path));
    cache.insert(a.form, a.options, a.outcome);
    EXPECT_TRUE(cache.flushSnapshot());  // what ServerCore::drain() runs
  }
  EXPECT_TRUE(fs::exists(store.path));
  EXPECT_EQ(fs::file_size(store.path + ".journal"), 0u);
  DesignCache restarted(8);
  restarted.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_EQ(restarted.stats().journalReplayed, 1u);
  EXPECT_TRUE(restarted.lookup(a.form, a.options).has_value());
}

TEST(CachePersist, OrderPermutationIsPartOfTheKeyAcrossARestart) {
  TempStore store;
  const RealEntry a = makeRealEntry(4);
  // The same graph with its statements reordered (c first) and, separately,
  // with every node renamed in the original order.
  const CanonicalForm reordered = canonicalizeGraph(loadGraphText(
      "graph g\ninput c 8\ninput a 8\ninput b 8\nnode add s 8 a b\nnode mul p 8 s c\n"
      "output o p\n"));
  const CanonicalForm renamed = canonicalizeGraph(loadGraphText(
      "graph h\ninput x 8\ninput y 8\ninput z 8\nnode add u 8 x y\nnode mul v 8 u z\n"
      "output w v\n"));
  ASSERT_EQ(reordered.text, a.form.text);
  ASSERT_NE(reordered.order, a.form.order);
  ASSERT_EQ(renamed.order, a.form.order);
  {
    DesignCache cache(8);
    cache.enablePersistence(std::make_unique<CachePersistence>(store.path));
    cache.insert(a.form, a.options, a.outcome);
    EXPECT_FALSE(cache.lookup(reordered, a.options).has_value());
    EXPECT_TRUE(cache.lookup(renamed, a.options).has_value());
  }
  DesignCache restarted(8);
  restarted.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_EQ(restarted.stats().journalReplayed, 1u);
  EXPECT_FALSE(restarted.lookup(reordered, a.options).has_value());
  EXPECT_TRUE(restarted.lookup(renamed, a.options).has_value());
  EXPECT_TRUE(restarted.lookup(a.form, a.options).has_value());
}

TEST(CachePersist, DisabledCacheIgnoresPersistence) {
  TempStore store;
  DesignCache cache(0);
  cache.enablePersistence(std::make_unique<CachePersistence>(store.path));
  EXPECT_TRUE(cache.flushSnapshot());
  EXPECT_FALSE(fs::exists(store.path));
}

}  // namespace
}  // namespace pmsched
