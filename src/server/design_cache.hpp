#pragma once
// Canonical-form design cache — the server's warm request path.
//
// Key: the canonical form of the request graph (cdfg/analysis.hpp —
// identity modulo node naming / insertion order) together with its `order`
// permutation, plus every option that steers the pipeline (steps,
// ordering, optimal, shared). The pipeline breaks ties by node id, so a
// statement reordering of the same graph can yield a different design; the
// permutation makes such a request miss instead of replaying another
// ordering's design, while a renamed isomorph in the same statement order
// still hits. Value: the
// name-free parts of the finished design — the summary numbers and the
// inserted control edges encoded as canonical-index pairs, in exactly the
// order saveGraphText() walks them. A hit replays those edges onto the
// CURRENT request's graph through its own canonical mapping, so the reply
// carries the caller's node names even when the warm entry was produced by
// a differently-named isomorph.
//
// Collision safety: the 64-bit hash only routes to a bucket; every hit
// compares the full canonical text and permutation before replaying. A hash
// coincidence between different graphs therefore costs a miss, never a
// wrong design.
//
// Degraded results (budget exhaustion mid-pipeline) are never inserted:
// they depend on wall-clock, so replaying one would break the
// response-equals-one-shot-CLI guarantee. Requests carrying a budget bypass
// the cache entirely for the same reason (see server.cpp).
//
// Thread-safety: all public calls lock one internal mutex; replay work
// (graph cloning, edge insertion) happens outside the cache on the worker.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "server/service.hpp"

namespace pmsched {

class CachePersistence;  // server/cache_persist.hpp
struct PersistRecord;

/// Pipeline-steering options folded into the cache key.
struct DesignCacheOptions {
  int steps = 0;
  MuxOrdering ordering = MuxOrdering::OutputFirst;
  bool optimal = false;
  bool shared = true;

  friend bool operator==(const DesignCacheOptions&, const DesignCacheOptions&) = default;
};

/// One replayable warm result.
struct CachedDesign {
  DesignSummary summary;
  /// Control edges of the finished design as (from, to) canonical indices,
  /// in saveGraphText order (source ascending, per-source insertion order).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ctrlEdges;
};

struct DesignCacheStats {
  std::uint64_t hits = 0;       ///< exact-memo hits + canonical hits
  std::uint64_t exactHits = 0;  ///< subset of hits served by the exact memo
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejectedDegraded = 0;  ///< insert() refused a degraded result
  std::uint64_t insertFailures = 0;    ///< cache-insert fault site fired
  // Persistence (zero unless enablePersistence() was called):
  std::uint64_t journalReplayed = 0;        ///< records restored at startup
  std::uint64_t journalSkipped = 0;         ///< corrupt/truncated tails dropped
  std::uint64_t journalAppendFailures = 0;  ///< appends lost to fault/IO error
};

class DesignCache {
 public:
  /// `maxEntries` bounds the resident set; 0 disables caching entirely
  /// (every lookup is a miss, every insert a no-op).
  explicit DesignCache(std::size_t maxEntries = 256);

  /// Warm lookup: canonical text, order permutation and options must all
  /// match exactly.
  [[nodiscard]] std::optional<CachedDesign> lookup(const CanonicalForm& form,
                                                   const DesignCacheOptions& options);

  /// Exact-request memo, the level in FRONT of the canonical cache: keyed
  /// on the raw request bytes (graph text + every response-steering option),
  /// valued with the finished result JSON. A hit costs one string hash — no
  /// graph parse, no canonicalization — which is what makes byte-identical
  /// repeats an order of magnitude cheaper than recompute. A miss here says
  /// nothing (renamed isomorphs land in the canonical layer), so it is not
  /// counted; only lookup() decides hits vs misses for the stats.
  [[nodiscard]] std::optional<std::string> lookupExact(const std::string& key);

  /// Memoize a finished result under its raw request key. Fires the same
  /// "cache-insert" fault point as insert(): a fault degrades to "not
  /// memoized", never to a lost response. Callers must not pass degraded
  /// results.
  void insertExact(const std::string& key, const std::string& resultJson);

  /// Store a finished, non-degraded result (degraded ones are counted and
  /// dropped). Fires the "cache-insert" fault point BEFORE mutating, so an
  /// injected fault degrades to "entry not cached" with the cache intact.
  void insert(const CanonicalForm& form, const DesignCacheOptions& options,
              const DesignOutcome& outcome);

  /// Encode the outcome's control edges for insert(); exposed so tests can
  /// assert the replay representation directly.
  [[nodiscard]] static std::vector<std::pair<std::uint32_t, std::uint32_t>> encodeCtrlEdges(
      const CanonicalForm& form, const Graph& designGraph);

  /// Replay a hit onto `requestGraph` (must canonicalize to the hit's
  /// form): clone + insert the mapped control edges that are not already
  /// present, preserving the stored order.
  [[nodiscard]] static Graph replayDesignGraph(const CachedDesign& hit,
                                               const CanonicalForm& form,
                                               const Graph& requestGraph);

  /// Attach a persistence backend: replay its snapshot + journal into the
  /// cache (coldest-first, so LRU recency survives a restart), then journal
  /// every subsequent insert() and compact periodically. A no-op when the
  /// cache is disabled (maxEntries == 0). Call once, before serving starts.
  void enablePersistence(std::unique_ptr<CachePersistence> persist);

  /// Rewrite the snapshot from the current canonical entries and truncate
  /// the journal (the drain path calls this). True when not persistent or
  /// the write succeeded.
  bool flushSnapshot();

  [[nodiscard]] DesignCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t formHash = 0;  ///< CanonicalForm::hash (persisted verbatim)
    std::string canonicalText;
    std::vector<std::uint32_t> order;  ///< CanonicalForm::order
    DesignCacheOptions options;
    CachedDesign value;
    std::list<std::uint64_t>::iterator lruIt;  ///< position in lru_
  };

  [[nodiscard]] static std::uint64_t keyHash(std::uint64_t formHash,
                                             const std::vector<std::uint32_t>& order,
                                             const DesignCacheOptions& options);
  [[nodiscard]] static bool sameKey(const Entry& e, const std::string& canonicalText,
                                    const std::vector<std::uint32_t>& order,
                                    const DesignCacheOptions& options);
  void insertRestoredLocked(PersistRecord&& record);
  void evictToCapacityLocked();
  [[nodiscard]] std::vector<PersistRecord> exportRecordsLocked() const;

  struct ExactEntry {
    std::string resultJson;
    std::list<std::string>::iterator lruIt;  ///< position in exactLru_
  };

  mutable std::mutex mutex_;
  std::size_t maxEntries_;
  /// Bucketed by combined hash; the rare coincidence shares a bucket.
  std::unordered_multimap<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< least-recently-used order, front = coldest
  /// Exact-request memo (front level), bounded by the same maxEntries_.
  std::unordered_map<std::string, ExactEntry> exact_;
  std::list<std::string> exactLru_;
  /// Snapshot + journal backend; null when the cache is memory-only. Guarded
  /// by mutex_ (journal appends serialize with the insert that caused them).
  std::unique_ptr<CachePersistence> persist_;
  DesignCacheStats stats_;
};

}  // namespace pmsched
