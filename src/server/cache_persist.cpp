#include "server/cache_persist.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/fault_injector.hpp"

namespace pmsched {

namespace {

constexpr char kMagic[8] = {'P', 'M', 'S', 'C', 'A', 'C', 'H', 'E'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);

/// Frames larger than this are rejected on decode: no legitimate record
/// approaches it, and it stops a corrupt length field from asking for
/// gigabytes before the CRC gets a chance to veto.
constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

// --- little-endian primitive codec ---------------------------------------

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void putStr(std::string& out, std::string_view s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

bool getU32(std::string_view data, std::size_t& off, std::uint32_t& v) {
  if (data.size() - off < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[off + i])) << (8 * i);
  off += 4;
  return true;
}

bool getU64(std::string_view data, std::size_t& off, std::uint64_t& v) {
  if (data.size() - off < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[off + i])) << (8 * i);
  off += 8;
  return true;
}

bool getI32(std::string_view data, std::size_t& off, int& v) {
  std::uint32_t u = 0;
  if (!getU32(data, off, u)) return false;
  v = static_cast<int>(u);
  return true;
}

bool getU8(std::string_view data, std::size_t& off, std::uint8_t& v) {
  if (off >= data.size()) return false;
  v = static_cast<std::uint8_t>(data[off++]);
  return true;
}

bool getStr(std::string_view data, std::size_t& off, std::string& s) {
  std::uint32_t len = 0;
  if (!getU32(data, off, len)) return false;
  if (data.size() - off < len) return false;
  s.assign(data.substr(off, len));
  off += len;
  return true;
}

// --- payload codec --------------------------------------------------------

std::string encodePayload(const PersistRecord& r) {
  std::string p;
  putU64(p, r.hash);
  putU32(p, static_cast<std::uint32_t>(r.options.steps));
  p.push_back(static_cast<char>(r.options.ordering));
  p.push_back(r.options.optimal ? 1 : 0);
  p.push_back(r.options.shared ? 1 : 0);
  const DesignSummary& s = r.value.summary;
  putU32(p, static_cast<std::uint32_t>(s.ops));
  putU32(p, static_cast<std::uint32_t>(s.criticalPath));
  putU32(p, static_cast<std::uint32_t>(s.steps));
  putU32(p, static_cast<std::uint32_t>(s.managed));
  putU32(p, static_cast<std::uint32_t>(s.sharedGated));
  putStr(p, s.units);
  putStr(p, s.reductionPercent);
  putStr(p, r.canonicalText);
  putU32(p, static_cast<std::uint32_t>(r.value.ctrlEdges.size()));
  for (const auto& [from, to] : r.value.ctrlEdges) {
    putU32(p, from);
    putU32(p, to);
  }
  putU32(p, static_cast<std::uint32_t>(r.order.size()));
  for (const std::uint32_t id : r.order) putU32(p, id);
  return p;
}

std::optional<PersistRecord> decodePayload(std::string_view p) {
  PersistRecord r;
  std::size_t off = 0;
  std::uint8_t ordering = 0, optimal = 0, shared = 0;
  if (!getU64(p, off, r.hash) || !getI32(p, off, r.options.steps) ||
      !getU8(p, off, ordering) || !getU8(p, off, optimal) || !getU8(p, off, shared))
    return std::nullopt;
  if (ordering > static_cast<std::uint8_t>(MuxOrdering::BySavings)) return std::nullopt;
  r.options.ordering = static_cast<MuxOrdering>(ordering);
  r.options.optimal = optimal != 0;
  r.options.shared = shared != 0;
  DesignSummary& s = r.value.summary;
  if (!getI32(p, off, s.ops) || !getI32(p, off, s.criticalPath) || !getI32(p, off, s.steps) ||
      !getI32(p, off, s.managed) || !getI32(p, off, s.sharedGated) ||
      !getStr(p, off, s.units) || !getStr(p, off, s.reductionPercent) ||
      !getStr(p, off, r.canonicalText))
    return std::nullopt;
  std::uint32_t edgeCount = 0;
  if (!getU32(p, off, edgeCount)) return std::nullopt;
  if (static_cast<std::size_t>(edgeCount) * 8 > p.size() - off) return std::nullopt;
  r.value.ctrlEdges.reserve(edgeCount);
  for (std::uint32_t i = 0; i < edgeCount; ++i) {
    std::uint32_t from = 0, to = 0;
    if (!getU32(p, off, from) || !getU32(p, off, to)) return std::nullopt;
    r.value.ctrlEdges.emplace_back(from, to);
  }
  // The permutation fills the rest of the payload exactly.
  std::uint32_t orderCount = 0;
  if (!getU32(p, off, orderCount)) return std::nullopt;
  if (static_cast<std::size_t>(orderCount) * 4 != p.size() - off) return std::nullopt;
  r.order.resize(orderCount);
  for (std::uint32_t& id : r.order)
    if (!getU32(p, off, id)) return std::nullopt;
  // Only persisted-as-finished entries are valid; degraded results are
  // never written, so a decoded record is always replayable.
  s.degraded = false;
  s.degradeReason.clear();
  return r;
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

/// Decode records from `data[off..]` into `out`, stopping at the first
/// truncated/corrupt frame. Returns true when the whole region decoded.
bool decodeRegion(std::string_view data, std::size_t off, std::vector<PersistRecord>& out) {
  while (off < data.size()) {
    std::size_t next = off;
    std::optional<PersistRecord> record = decodePersistRecord(data, next);
    if (!record) return false;
    out.push_back(std::move(*record));
    off = next;
  }
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  // IEEE CRC-32 (reflected polynomial 0xEDB88320), table built on first use.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encodePersistRecord(const PersistRecord& record) {
  const std::string payload = encodePayload(record);
  std::string frame;
  frame.reserve(8 + payload.size());
  putU32(frame, static_cast<std::uint32_t>(payload.size()));
  putU32(frame, crc32(payload));
  frame.append(payload);
  return frame;
}

std::optional<PersistRecord> decodePersistRecord(std::string_view data, std::size_t& offset) {
  std::size_t off = offset;
  std::uint32_t len = 0, crc = 0;
  if (!getU32(data, off, len) || !getU32(data, off, crc)) return std::nullopt;
  if (len > kMaxPayloadBytes || data.size() - off < len) return std::nullopt;
  const std::string_view payload = data.substr(off, len);
  if (crc32(payload) != crc) return std::nullopt;
  std::optional<PersistRecord> record = decodePayload(payload);
  if (!record) return std::nullopt;
  offset = off + len;
  return record;
}

CachePersistence::CachePersistence(std::string path, std::size_t compactEvery)
    : path_(std::move(path)),
      journalPath_(path_ + ".journal"),
      compactEvery_(compactEvery == 0 ? 1 : compactEvery) {}

CachePersistence::LoadResult CachePersistence::load() {
  LoadResult result;
  appendsSinceSnapshot_ = 0;
  try {
    fault::point("cache-snapshot-load");
  } catch (const FaultInjectedError&) {
    // Clean degradation: a load failure is only a cold start. The files are
    // left alone; the next compaction rewrites them from live state.
    ++result.skipped;
    return result;
  }

  std::string data;
  if (readFile(path_, data) && !data.empty()) {
    const bool headerOk = data.size() >= kHeaderSize &&
                          std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
    std::uint32_t version = 0;
    std::size_t off = sizeof(kMagic);
    if (headerOk && getU32(data, off, version) && version == kVersion) {
      if (!decodeRegion(data, kHeaderSize, result.records)) ++result.skipped;
    } else {
      ++result.skipped;  // unusable snapshot — the journal may still help
    }
  }
  if (readFile(journalPath_, data) && !data.empty()) {
    if (!decodeRegion(data, 0, result.records)) ++result.skipped;
  }
  result.replayed = result.records.size();
  return result;
}

bool CachePersistence::append(const PersistRecord& record) {
  try {
    fault::point("cache-journal-write");
  } catch (const FaultInjectedError&) {
    return false;  // entry not durable; the live cache is unaffected
  }
  std::ofstream out(journalPath_, std::ios::binary | std::ios::app);
  if (!out) return false;
  const std::string frame = encodePersistRecord(record);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) return false;
  ++appendsSinceSnapshot_;
  return true;
}

bool CachePersistence::writeSnapshot(const std::vector<PersistRecord>& records) {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(kMagic, sizeof(kMagic));
    std::string header;
    putU32(header, kVersion);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    for (const PersistRecord& r : records) {
      const std::string frame = encodePersistRecord(r);
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  // Truncate the journal only now that the snapshot holds its contents — a
  // crash between the two steps merely replays duplicates, loses nothing.
  std::ofstream(journalPath_, std::ios::binary | std::ios::trunc);
  appendsSinceSnapshot_ = 0;
  return true;
}

}  // namespace pmsched
