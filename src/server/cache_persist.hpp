#pragma once
// Crash-safe persistence for the canonical-form design cache.
//
// Layout on disk (both files live next to each other):
//   <path>           snapshot: 8-byte magic + u32 version, then records
//   <path>.journal   append-only journal: records only, no header
//
// A record is [u32 payloadLen][u32 crc32(payload)][payload]; the payload is
// one canonical-form cache entry (hash, options, summary, canonical text,
// control edges, order permutation) in a fixed little-endian encoding.
// Version 2 added the permutation. A version-1 snapshot fails its header
// check and a version-1 journal record ends where the permutation should
// start, so either is dropped and counted in `skipped`, and the cache
// starts cold rather than replaying keys without a permutation. The
// exact-request memo is deliberately NOT persisted: it is keyed on raw
// request bytes and rebuilds itself from canonical hits within a few
// requests.
//
// Crash model: the server may die at ANY byte boundary (kill -9 mid-append
// included). Restart replays the snapshot, then the journal, stopping at
// the first record whose length runs past EOF or whose CRC mismatches —
// the valid prefix is replayed, the corrupt tail is counted and dropped,
// and the server starts warm with everything that was durably written.
// Snapshot rewrites are atomic (tmp + rename), and the journal is truncated
// only AFTER the new snapshot is in place, so no crash window loses both.
//
// Fault sites: "cache-snapshot-load" fires at load() entry (degrades to a
// cold start), "cache-journal-write" fires per append (degrades to "entry
// not journaled"); neither may surface past the cache.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/design_cache.hpp"

namespace pmsched {

/// One canonical-form entry as persisted: everything DesignCache needs to
/// re-insert it without re-running the pipeline or re-canonicalizing.
struct PersistRecord {
  std::uint64_t hash = 0;  ///< CanonicalForm::hash (FNV-1a of canonicalText)
  std::string canonicalText;
  std::vector<std::uint32_t> order;  ///< CanonicalForm::order
  DesignCacheOptions options;
  CachedDesign value;
};

/// CRC32 (IEEE, reflected 0xEDB88320) over `data` — the per-record checksum.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Frame one record: [len][crc][payload]. Exposed for the format tests.
[[nodiscard]] std::string encodePersistRecord(const PersistRecord& record);

/// Decode the record starting at `offset`; advances `offset` past it on
/// success. Returns nullopt on a truncated frame, CRC mismatch, or a
/// malformed payload — the caller stops there (corrupt-tail tolerance).
[[nodiscard]] std::optional<PersistRecord> decodePersistRecord(std::string_view data,
                                                               std::size_t& offset);

class CachePersistence {
 public:
  /// `path` is the snapshot file; the journal lives at `path + ".journal"`.
  /// Every `compactEvery` journal appends, the owning cache rewrites the
  /// snapshot and truncates the journal (see DesignCache::insert).
  explicit CachePersistence(std::string path, std::size_t compactEvery = 1024);

  struct LoadResult {
    std::vector<PersistRecord> records;  ///< snapshot prefix, then journal prefix
    std::uint64_t replayed = 0;          ///< records recovered (snapshot + journal)
    std::uint64_t skipped = 0;           ///< corrupt/truncated tails dropped
  };

  /// Read snapshot + journal. Never throws: unreadable or corrupt files
  /// degrade to fewer (or zero) records. Fires "cache-snapshot-load" first;
  /// an injected fault degrades to a cold start.
  [[nodiscard]] LoadResult load();

  /// Append one record to the journal and flush it. Fires
  /// "cache-journal-write" first; a fault (or an I/O error) returns false —
  /// the entry is simply not durable, nothing else degrades.
  bool append(const PersistRecord& record);

  /// Atomically replace the snapshot with `records` (tmp + rename), then
  /// truncate the journal. Returns false on I/O failure (the old snapshot
  /// and journal are left intact in that case).
  bool writeSnapshot(const std::vector<PersistRecord>& records);

  /// Journal appends since the last successful snapshot write (or load).
  [[nodiscard]] std::size_t appendsSinceSnapshot() const { return appendsSinceSnapshot_; }
  [[nodiscard]] std::size_t compactEvery() const { return compactEvery_; }
  [[nodiscard]] const std::string& snapshotPath() const { return path_; }
  [[nodiscard]] const std::string& journalPath() const { return journalPath_; }

 private:
  std::string path_;
  std::string journalPath_;
  std::size_t compactEvery_;
  std::size_t appendsSinceSnapshot_ = 0;
};

}  // namespace pmsched
