#include "server/design_cache.hpp"

#include <algorithm>
#include <set>

#include "server/cache_persist.hpp"
#include "support/fault_injector.hpp"

namespace pmsched {

namespace {

// splitmix64 finalizer — same avalanche the canonicalizer uses; good enough
// to fold the small option fields into the graph hash.
std::uint64_t avalanche(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

DesignCache::DesignCache(std::size_t maxEntries) : maxEntries_(maxEntries) {}

std::uint64_t DesignCache::keyHash(std::uint64_t formHash, const std::vector<std::uint32_t>& order,
                                   const DesignCacheOptions& options) {
  std::uint64_t h = formHash;
  for (const std::uint32_t id : order) h = avalanche(h ^ id);
  h = avalanche(h ^ static_cast<std::uint64_t>(options.steps));
  h = avalanche(h ^ (static_cast<std::uint64_t>(options.ordering) << 8));
  h = avalanche(h ^ (options.optimal ? 0x11ULL : 0x22ULL));
  h = avalanche(h ^ (options.shared ? 0x44ULL : 0x88ULL));
  return h;
}

bool DesignCache::sameKey(const Entry& e, const std::string& canonicalText,
                          const std::vector<std::uint32_t>& order,
                          const DesignCacheOptions& options) {
  return e.options == options && e.order == order && e.canonicalText == canonicalText;
}

std::optional<CachedDesign> DesignCache::lookup(const CanonicalForm& form,
                                                const DesignCacheOptions& options) {
  if (maxEntries_ == 0) return std::nullopt;
  const std::uint64_t key = keyHash(form.hash, form.order, options);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = entries_.equal_range(key);
  for (; it != end; ++it) {
    Entry& e = it->second;
    // Full comparison: the hash only routes here, it never decides.
    if (sameKey(e, form.text, form.order, options)) {
      ++stats_.hits;
      lru_.splice(lru_.end(), lru_, e.lruIt);  // mark most-recently-used
      return e.value;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<std::string> DesignCache::lookupExact(const std::string& key) {
  if (maxEntries_ == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = exact_.find(key);
  if (it == exact_.end()) return std::nullopt;
  ++stats_.hits;
  ++stats_.exactHits;
  exactLru_.splice(exactLru_.end(), exactLru_, it->second.lruIt);
  return it->second.resultJson;
}

void DesignCache::insertExact(const std::string& key, const std::string& resultJson) {
  if (maxEntries_ == 0) return;
  try {
    fault::point("cache-insert");
  } catch (const FaultInjectedError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertFailures;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (exact_.find(key) != exact_.end()) return;  // insert race — keep the first
  exactLru_.push_back(key);
  exact_.emplace(key, ExactEntry{resultJson, std::prev(exactLru_.end())});
  while (exact_.size() > maxEntries_ && !exactLru_.empty()) {
    exact_.erase(exactLru_.front());
    exactLru_.pop_front();
    ++stats_.evictions;
  }
}

void DesignCache::insert(const CanonicalForm& form, const DesignCacheOptions& options,
                         const DesignOutcome& outcome) {
  if (maxEntries_ == 0) return;
  if (outcome.summary.degraded) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejectedDegraded;
    return;
  }
  try {
    fault::point("cache-insert");
  } catch (const FaultInjectedError&) {
    // Clean degradation: the result is still served to the requester, it
    // just isn't warmed. Nothing in the cache was touched yet.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertFailures;
    return;
  }

  Entry entry;
  entry.formHash = form.hash;
  entry.canonicalText = form.text;
  entry.order = form.order;
  entry.options = options;
  entry.value.summary = outcome.summary;
  entry.value.ctrlEdges = encodeCtrlEdges(form, outcome.design.graph);

  const std::uint64_t key = keyHash(form.hash, form.order, options);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = entries_.equal_range(key);
  for (; it != end; ++it) {
    if (sameKey(it->second, form.text, form.order, options))
      return;  // lost an insert race for the same design — keep the first
  }
  lru_.push_back(key);
  entry.lruIt = std::prev(lru_.end());

  if (persist_) {
    // Journal under the cache lock: an insert is already a miss (the slow
    // path), and serializing with the emplace keeps journal order == cache
    // order. A failed append only costs durability, never the live entry.
    PersistRecord record;
    record.hash = entry.formHash;
    record.canonicalText = entry.canonicalText;
    record.order = entry.order;
    record.options = entry.options;
    record.value = entry.value;
    if (!persist_->append(record)) {
      ++stats_.journalAppendFailures;
    } else if (persist_->appendsSinceSnapshot() >= persist_->compactEvery()) {
      entries_.emplace(key, std::move(entry));
      ++stats_.inserts;
      if (!persist_->writeSnapshot(exportRecordsLocked())) ++stats_.journalAppendFailures;
      evictToCapacityLocked();
      return;
    }
  }

  entries_.emplace(key, std::move(entry));
  ++stats_.inserts;
  evictToCapacityLocked();
}

void DesignCache::evictToCapacityLocked() {
  while (entries_.size() > maxEntries_ && !lru_.empty()) {
    const std::uint64_t coldest = lru_.front();
    auto [eit, eend] = entries_.equal_range(coldest);
    for (; eit != eend; ++eit) {
      if (eit->second.lruIt == lru_.begin()) {
        entries_.erase(eit);
        break;
      }
    }
    lru_.pop_front();
    ++stats_.evictions;
  }
}

void DesignCache::insertRestoredLocked(PersistRecord&& record) {
  // Restores skip the "cache-insert" fault site and the journal: they came
  // FROM the journal, and re-appending them would double the file per boot.
  const std::uint64_t key = keyHash(record.hash, record.order, record.options);
  auto [it, end] = entries_.equal_range(key);
  for (; it != end; ++it) {
    if (sameKey(it->second, record.canonicalText, record.order, record.options))
      return;  // snapshot + journal overlap after a mid-compaction crash
  }
  Entry entry;
  entry.formHash = record.hash;
  entry.canonicalText = std::move(record.canonicalText);
  entry.order = std::move(record.order);
  entry.options = record.options;
  entry.value = std::move(record.value);
  lru_.push_back(key);
  entry.lruIt = std::prev(lru_.end());
  entries_.emplace(key, std::move(entry));
  evictToCapacityLocked();
}

std::vector<PersistRecord> DesignCache::exportRecordsLocked() const {
  // Coldest-first (lru_ front) so replaying the snapshot in file order
  // rebuilds the same recency ranking the cache had when it was written.
  // Same-bucket coincidences make the key ambiguous, so match entries to
  // LRU positions by iterator identity; n is bounded by maxEntries_, and
  // compaction/drain are off the request path, so O(n^2) is fine here.
  std::vector<PersistRecord> records;
  records.reserve(entries_.size());
  for (auto lruIt = lru_.begin(); lruIt != lru_.end(); ++lruIt) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.lruIt == lruIt) {
        PersistRecord record;
        record.hash = it->second.formHash;
        record.canonicalText = it->second.canonicalText;
        record.order = it->second.order;
        record.options = it->second.options;
        record.value = it->second.value;
        records.push_back(std::move(record));
        break;
      }
    }
  }
  return records;
}

void DesignCache::enablePersistence(std::unique_ptr<CachePersistence> persist) {
  if (maxEntries_ == 0 || !persist) return;
  CachePersistence::LoadResult loaded = persist->load();
  std::lock_guard<std::mutex> lock(mutex_);
  persist_ = std::move(persist);
  for (PersistRecord& record : loaded.records) insertRestoredLocked(std::move(record));
  stats_.journalReplayed += loaded.replayed;
  stats_.journalSkipped += loaded.skipped;
}

bool DesignCache::flushSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!persist_) return true;
  return persist_->writeSnapshot(exportRecordsLocked());
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> DesignCache::encodeCtrlEdges(
    const CanonicalForm& form, const Graph& designGraph) {
  // Walk exactly as saveGraphText does — source id ascending, per-source
  // insertion order — so replaying this sequence reproduces the design
  // text byte-for-byte.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (NodeId n = 0; n < designGraph.size(); ++n) {
    for (NodeId succ : designGraph.controlSuccessors(n))
      edges.emplace_back(form.indexOf[n], form.indexOf[succ]);
  }
  return edges;
}

Graph DesignCache::replayDesignGraph(const CachedDesign& hit, const CanonicalForm& form,
                                     const Graph& requestGraph) {
  Graph out = requestGraph;
  // Requests may arrive with control edges already present (re-submitted
  // designs); the cached sequence includes them, so skip duplicates while
  // keeping the stored relative order for the new ones — addControlEdge
  // appends, which lands each per-source list in the original order.
  std::set<std::pair<NodeId, NodeId>> present;
  for (NodeId n = 0; n < out.size(); ++n)
    for (NodeId succ : out.controlSuccessors(n)) present.emplace(n, succ);
  for (const auto& [fromIdx, toIdx] : hit.ctrlEdges) {
    const NodeId from = form.order[fromIdx];
    const NodeId to = form.order[toIdx];
    if (present.emplace(from, to).second) out.addControlEdge(from, to);
  }
  return out;
}

DesignCacheStats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t DesignCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace pmsched
