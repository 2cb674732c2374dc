#include "cache/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace tabby::cache {

namespace {

namespace fs = std::filesystem;

using util::ByteReader;
using util::ByteWriter;
using util::Error;
using util::Result;

Result<std::vector<std::byte>> read_file_bytes(const fs::path& path) {
  return util::read_file(path);
}

/// One write+rename attempt. The `cache.publish.rename` failpoint models a
/// transient publish fault (NFS rename hiccup, AV scanner holding the
/// target) — exactly what the retry loop below exists to absorb.
///
/// Every attempt writes its own `<entry>.<pid>.<seq>.tmp`: two writers of
/// the same entry (a daemon and a CLI sharing one cache directory, two
/// threads of one process) never truncate or interleave one inode, so the
/// rename only ever publishes a file one writer wrote whole.
util::Status write_file_atomic_once(const fs::path& path, const std::vector<std::byte>& bytes) {
  static std::atomic<std::uint64_t> next_seq{0};
  fs::path tmp = path;
  tmp += "." + std::to_string(::getpid()) + "." +
         std::to_string(next_seq.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Error{"cannot open for write: " + tmp.string()};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return Error{"write failed: " + tmp.string()};
  }
  std::error_code ec;
  if (util::failpoint::poll("cache.publish.rename")) {
    fs::remove(tmp, ec);
    return Error{"failpoint: injected publish failure: " + path.string()};
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Error{"cannot publish cache entry: " + path.string()};
  }
  return util::Status::ok_status();
}

/// Atomic publish with bounded retry: a half-written cache entry must never
/// be observable, so concurrent runs either see a whole entry or none.
/// Transient IO faults are retried up to 3 attempts total with jittered
/// backoff (~1ms, ~2ms); a still-failing publish returns the last error,
/// which every caller downgrades (snapshot or frame: a warning; verdict:
/// silently re-verified next run) — cache publication is never a run failure.
util::Status write_file_atomic(const fs::path& path, const std::vector<std::byte>& bytes) {
  constexpr int kAttempts = 3;
  util::Status status = util::Status::ok_status();
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    status = write_file_atomic_once(path, bytes);
    if (status.ok()) return status;
    if (attempt == kAttempts) break;
    obs::counter_add("cache.publish_retries");
    std::this_thread::sleep_for(publish_backoff(path.string(), attempt));
  }
  return status;
}

/// Shared entry framing: magic + version + body + digest_bytes checksum. The
/// same fail-closed discipline as the graph store, except a bad entry is a
/// cache miss, not an error.
std::vector<std::byte> frame_entry(std::uint32_t magic, std::uint16_t version,
                                   const ByteWriter& body) {
  ByteWriter out;
  out.u32(magic);
  out.u16(version);
  for (std::byte b : body.data()) out.u8(static_cast<std::uint8_t>(b));
  out.u64(util::digest_bytes(out.data()));
  return std::vector<std::byte>(out.data());
}

/// Validates the frame and returns the body span, or nullopt (miss).
std::optional<std::span<const std::byte>> open_entry(std::span<const std::byte> data,
                                                     std::uint32_t magic,
                                                     std::uint16_t version) {
  constexpr std::size_t kFrameOverhead = 4 + 2 + 8;
  if (data.size() < kFrameOverhead) return std::nullopt;
  ByteReader head(data);
  auto m = head.u32();
  auto v = head.u16();
  if (!m.ok() || !v.ok() || m.value() != magic || v.value() != version) return std::nullopt;
  ByteReader tail(data.subspan(data.size() - 8));
  auto stored = tail.u64();
  if (!stored.ok()) return std::nullopt;
  if (stored.value() != util::digest_bytes(data.first(data.size() - 8))) return std::nullopt;
  return data.subspan(4 + 2, data.size() - kFrameOverhead);
}

/// Decodes a verdict frame; nullopt on any structural problem or a stored
/// key that does not match the caller's — every such case is a self-healing
/// miss, never an error.
std::optional<CachedVerdict> decode_verdict_entry(std::span<const std::byte> data,
                                                  std::uint64_t expected_key) {
  auto body = open_entry(data, kVerdictMagic, kVerdictVersion);
  if (!body) return std::nullopt;
  ByteReader in(*body);
  auto stored_key = in.u64();
  if (!stored_key.ok() || stored_key.value() != expected_key) return std::nullopt;
  auto verdict = in.u8();
  auto reason = in.u8();
  if (!verdict.ok() || !reason.ok() || verdict.value() > 2 || reason.value() > 4) {
    return std::nullopt;
  }
  auto steps = in.uvarint();
  if (!steps.ok()) return std::nullopt;
  auto detail = in.bytes();
  if (!detail.ok() || !in.at_end()) return std::nullopt;
  CachedVerdict out;
  out.verdict = verdict.value();
  out.reason = reason.value();
  out.steps = steps.value();
  out.detail = std::move(detail.value());
  return out;
}

void write_stats(ByteWriter& out, const cpg::CpgStats& stats) {
  out.uvarint(stats.class_nodes);
  out.uvarint(stats.method_nodes);
  out.uvarint(stats.relationship_edges);
  out.uvarint(stats.call_edges);
  out.uvarint(stats.alias_edges);
  out.uvarint(stats.pruned_call_sites);
  out.uvarint(stats.source_methods);
  out.uvarint(stats.sink_methods);
}

std::optional<cpg::CpgStats> read_stats(ByteReader& in) {
  cpg::CpgStats stats;
  std::size_t* fields[] = {&stats.class_nodes,       &stats.method_nodes,
                           &stats.relationship_edges, &stats.call_edges,
                           &stats.alias_edges,        &stats.pruned_call_sites,
                           &stats.source_methods,     &stats.sink_methods};
  for (std::size_t* field : fields) {
    auto v = in.uvarint();
    if (!v.ok()) return std::nullopt;
    *field = static_cast<std::size_t>(v.value());
  }
  return stats;
}

}  // namespace

std::string CacheStats::to_line() const {
  std::string line = "cache: ";
  if (snapshot_checked) {
    line += std::string("snapshot ") + (snapshot_hit ? "hit" : "miss") + " (key " +
            util::digest_hex(snapshot_key) + ")";
  } else {
    line += "snapshot not consulted";
  }
  return line;
}

Result<AnalysisCache> AnalysisCache::open(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir / "snapshots", ec);
  if (ec) return Error{"cannot create cache directory: " + (dir / "snapshots").string()};
  fs::create_directories(dir / "verdicts", ec);
  if (ec) return Error{"cannot create cache directory: " + (dir / "verdicts").string()};
  return AnalysisCache(dir);
}

Result<std::uint64_t> AnalysisCache::digest_file(const fs::path& file) {
  obs::counter_add("cache.archives_digested");
  auto bytes = read_file_bytes(file);
  if (!bytes.ok()) return bytes.error();
  return util::digest_bytes(bytes.value());
}

std::uint64_t AnalysisCache::snapshot_key(std::uint64_t options_fp,
                                          const std::vector<std::uint64_t>& archive_digests) {
  util::Fnv1a h;
  h.update("tabby-snapshot-key-v2");
  h.update_u64(graph::kGraphStoreVersion);
  h.update_u64(options_fp);
  h.update_u64(archive_digests.size());
  for (std::uint64_t digest : archive_digests) h.update_u64(digest);
  return h.digest();
}

fs::path AnalysisCache::snapshot_path(std::uint64_t key) const {
  return dir_ / "snapshots" / (util::digest_hex(key) + ".tsnp");
}

fs::path AnalysisCache::frozen_path(std::uint64_t key) const {
  return dir_ / "snapshots" / (util::digest_hex(key) + ".tfzn");
}

fs::path AnalysisCache::verdict_path(std::uint64_t key) const {
  return dir_ / "verdicts" / (util::digest_hex(key) + ".tvdt");
}

std::optional<CachedCpg> AnalysisCache::load_snapshot(std::uint64_t key, bool need_db) {
  obs::Span span("cache.load_snapshot");
  if (span.active()) span.attr("key", util::digest_hex(key));
  stats_.snapshot_checked = true;
  stats_.snapshot_key = key;
  stats_.snapshot_hit = false;

  // Every early return below is a miss; count it on the way out so the
  // hit/miss counters stay in lockstep with stats_.
  struct MissCounter {
    bool hit = false;
    ~MissCounter() { obs::counter_add(hit ? "cache.snapshot_hits" : "cache.snapshot_misses"); }
  } outcome;

  auto bytes = read_file_bytes(snapshot_path(key));
  if (!bytes.ok()) return std::nullopt;
  // Account the snapshot file buffer for as long as this function pins it;
  // on success ownership (and the byte liability) passes to the caller.
  util::ScopedCharge buffer_charge(memory_, bytes.value().size());

  // Snapshot layout differs from the shared frame: the checksum covers only
  // the header (magic .. blob length), because the graph blob that follows
  // is a complete self-checksummed graph store — deserialize() rejects any
  // corruption in it, so hashing those megabytes twice buys nothing.
  ByteReader in(bytes.value());
  auto magic = in.u32();
  auto version = in.u16();
  if (!magic.ok() || !version.ok() || magic.value() != kSnapshotMagic ||
      version.value() != kSnapshotVersion) {
    return std::nullopt;
  }
  auto stored_key = in.u64();
  if (!stored_key.ok() || stored_key.value() != key) return std::nullopt;
  auto stats = read_stats(in);
  if (!stats) return std::nullopt;
  auto len = in.count("snapshot graph blob");
  if (!len.ok()) return std::nullopt;
  std::uint64_t header_sum =
      util::digest_bytes(std::span<const std::byte>(bytes.value()).first(in.position()));
  auto stored_sum = in.u64();
  if (!stored_sum.ok() || stored_sum.value() != header_sum) return std::nullopt;
  if (len.value() != in.remaining()) return std::nullopt;

  CachedCpg cached;
  cached.stats = *stats;
  // Reuse the file buffer instead of copying the multi-megabyte blob: shear
  // off the header so what remains is exactly the embedded graph store.
  std::size_t blob_offset = in.position();
  cached.graph_bytes = std::move(bytes.value());
  cached.graph_bytes.erase(cached.graph_bytes.begin(),
                           cached.graph_bytes.begin() + static_cast<std::ptrdiff_t>(blob_offset));
  if (need_db) {
    auto db = graph::deserialize(cached.graph_bytes);
    if (!db.ok()) return std::nullopt;
    cached.db = std::move(db.value());
  } else {
    // A frozen warm start already carries the graph, so skip the expensive
    // node/edge decode — but keep the integrity contract: verify the store
    // blob's own frame (magic, version, trailing checksum) so a bit-flipped
    // snapshot is a miss on this path exactly as it is on the decode path.
    std::span<const std::byte> blob(cached.graph_bytes);
    constexpr std::size_t kStoreOverhead = 4 + 2 + 8;
    if (blob.size() < kStoreOverhead) return std::nullopt;
    ByteReader head(blob);
    auto blob_magic = head.u32();
    auto blob_version = head.u16();
    if (!blob_magic.ok() || !blob_version.ok() || blob_magic.value() != graph::kGraphStoreMagic ||
        blob_version.value() != graph::kGraphStoreVersion) {
      return std::nullopt;
    }
    ByteReader blob_tail(blob.subspan(blob.size() - 8));
    auto blob_sum = blob_tail.u64();
    if (!blob_sum.ok() || blob_sum.value() != util::digest_bytes(blob.first(blob.size() - 8))) {
      return std::nullopt;
    }
  }
  stats_.snapshot_hit = true;
  outcome.hit = true;
  return cached;
}

util::Status AnalysisCache::store_snapshot(std::uint64_t key, const cpg::CpgStats& stats,
                                           const std::vector<std::byte>& graph_bytes) {
  obs::Span span("cache.store_snapshot");
  if (span.active()) span.attr("key", util::digest_hex(key));
  span.attr("bytes", static_cast<std::uint64_t>(graph_bytes.size()));
  obs::counter_add("cache.snapshots_published");
  ByteWriter header;
  header.u32(kSnapshotMagic);
  header.u16(kSnapshotVersion);
  header.u64(key);
  write_stats(header, stats);
  header.uvarint(graph_bytes.size());
  header.u64(util::digest_bytes(header.data()));
  std::vector<std::byte> file = header.take();
  file.insert(file.end(), graph_bytes.begin(), graph_bytes.end());
  util::ScopedCharge buffer_charge(memory_, file.size());
  if (util::failpoint::poll("cache.snapshot.publish")) {
    return util::Error{"failpoint: injected snapshot publish failure"};
  }
  return write_file_atomic(snapshot_path(key), file);
}

std::optional<graph::FrozenGraph> AnalysisCache::load_frozen(std::uint64_t key,
                                                             std::string* corrupt_reason) {
  obs::Span span("cache.load_frozen");
  if (span.active()) span.attr("key", util::digest_hex(key));
  if (corrupt_reason) corrupt_reason->clear();
  struct MissCounter {
    bool hit = false;
    ~MissCounter() { obs::counter_add(hit ? "cache.frozen_hits" : "cache.frozen_misses"); }
  } outcome;

  fs::path path = frozen_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;  // plain miss, not corruption
  auto frozen = graph::FrozenGraph::map_file(path, /*frame_offset=*/0, memory_);
  if (!frozen.ok()) {
    if (corrupt_reason) *corrupt_reason = frozen.error().message;
    return std::nullopt;
  }
  if (frozen.value().content_key() != key) {
    if (corrupt_reason) *corrupt_reason = "frozen graph: content key does not match file name";
    return std::nullopt;
  }
  span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
  outcome.hit = true;
  return std::move(frozen.value());
}

util::Status AnalysisCache::store_frozen(std::uint64_t key, const graph::FrozenGraph& frozen) {
  obs::Span span("cache.store_frozen");
  if (span.active()) span.attr("key", util::digest_hex(key));
  span.attr("bytes", static_cast<std::uint64_t>(frozen.frame().size()));
  if (frozen.content_key() != key) {
    return util::Error{"frozen frame content key does not match snapshot key " +
                       util::digest_hex(key)};
  }
  obs::counter_add("cache.frozen_published");
  std::vector<std::byte> file(frozen.frame().begin(), frozen.frame().end());
  util::ScopedCharge buffer_charge(memory_, file.size());
  return write_file_atomic(frozen_path(key), file);
}

std::optional<CachedVerdict> AnalysisCache::load_verdict(std::uint64_t key) {
  auto bytes = read_file_bytes(verdict_path(key));
  if (!bytes.ok()) return std::nullopt;
  auto verdict = decode_verdict_entry(bytes.value(), key);
  obs::counter_add(verdict ? "cache.verdict_hits" : "cache.verdict_misses");
  return verdict;
}

util::Status AnalysisCache::store_verdict(std::uint64_t key, const CachedVerdict& verdict) {
  ByteWriter body;
  body.u64(key);
  body.u8(verdict.verdict);
  body.u8(verdict.reason);
  body.uvarint(verdict.steps);
  body.bytes(verdict.detail);
  obs::counter_add("cache.verdicts_published");
  return write_file_atomic(verdict_path(key), frame_entry(kVerdictMagic, kVerdictVersion, body));
}

// --- Offline audit ---------------------------------------------------------

namespace {

/// Reverse of util::digest_hex: exactly 16 lowercase hex digits.
std::optional<std::uint64_t> parse_digest_hex(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return std::nullopt;
  }
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

/// Full snapshot validation mirroring load_snapshot, including deserializing
/// the embedded graph store (its own checksum is what catches blob flips).
std::string validate_snapshot(std::span<const std::byte> data, std::uint64_t expected_key) {
  ByteReader in(data);
  auto magic = in.u32();
  auto version = in.u16();
  if (!magic.ok() || !version.ok() || magic.value() != kSnapshotMagic ||
      version.value() != kSnapshotVersion) {
    return "bad header (magic or version mismatch)";
  }
  auto stored_key = in.u64();
  if (!stored_key.ok()) return "truncated header";
  if (stored_key.value() != expected_key) return "snapshot key does not match file name";
  if (!read_stats(in)) return "bad stats block";
  auto len = in.count("snapshot graph blob");
  if (!len.ok()) return "bad graph blob length";
  std::uint64_t header_sum = util::digest_bytes(data.first(in.position()));
  auto stored_sum = in.u64();
  if (!stored_sum.ok() || stored_sum.value() != header_sum) return "header checksum mismatch";
  if (len.value() != in.remaining()) return "graph blob length mismatch";
  auto db = graph::deserialize(data.subspan(in.position()));
  if (!db.ok()) return "graph store does not deserialize: " + db.error().message;
  return {};
}

}  // namespace

std::string CacheAuditReport::to_string() const {
  std::string out = "cache audit: " + std::to_string(snapshots_checked) + " snapshot(s), " +
                    std::to_string(frozen_checked) + " frozen frame(s), " +
                    (verdicts_checked > 0 ? std::to_string(verdicts_checked) + " verdict(s), "
                                          : std::string()) +
                    std::to_string(corrupt) + " corrupt, " + std::to_string(orphaned) +
                    " orphaned, " + std::to_string(reclaimable_bytes) + " byte(s) reclaimable";
  for (const CacheAuditEntry& entry : entries) {
    if (entry.state == CacheAuditEntry::State::Intact) continue;
    const char* state = entry.state == CacheAuditEntry::State::Corrupt ? "corrupt" : "orphaned";
    std::string name =
        (entry.path.parent_path().filename() / entry.path.filename()).generic_string();
    out += "\n  " + std::string(state) + ": " + name + " (" + std::to_string(entry.bytes) +
           " bytes): " + entry.detail;
    if (entry.pruned) out += " [pruned]";
  }
  if (reclaimed_bytes > 0) {
    out += "\n  reclaimed " + std::to_string(reclaimed_bytes) + " byte(s)";
  }
  out += "\n";
  return out;
}

util::Result<CacheAuditReport> audit_cache(const fs::path& dir, bool prune) {
  obs::Span span("cache.audit");
  std::error_code ec;
  fs::path snapshots_dir = dir / "snapshots";
  if (!fs::is_directory(snapshots_dir, ec)) {
    return Error{"not a cache directory (no snapshots/): " + dir.string()};
  }

  CacheAuditReport report;

  // Sorted file listing (directory iteration order is filesystem-dependent;
  // the report must not be).
  auto list_files = [&](const fs::path& sub) {
    std::vector<fs::path> files;
    if (!fs::is_directory(sub, ec)) return files;
    for (const fs::directory_entry& e : fs::directory_iterator(sub, ec)) {
      if (e.is_regular_file(ec)) files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  };

  // Shared accounting + prune for one examined file.
  auto finalize = [&](CacheAuditEntry entry) {
    if (entry.state != CacheAuditEntry::State::Intact) {
      if (entry.state == CacheAuditEntry::State::Corrupt) ++report.corrupt;
      if (entry.state == CacheAuditEntry::State::Orphaned) ++report.orphaned;
      report.reclaimable_bytes += entry.bytes;
      if (prune) {
        std::error_code rm;
        if (fs::remove(entry.path, rm) && !rm) {
          entry.pruned = true;
          report.reclaimed_bytes += entry.bytes;
          obs::counter_add("cache.entries_pruned");
        }
      }
    }
    report.entries.push_back(std::move(entry));
  };

  auto make_entry = [&](const fs::path& file) {
    CacheAuditEntry entry;
    entry.path = file;
    entry.bytes = fs::file_size(file, ec);
    if (ec) entry.bytes = 0;
    return entry;
  };

  auto orphan_detail = [](const fs::path& file) {
    return file.extension() == ".tmp" ? "leftover temp file from interrupted publish"
                                      : "file name is not a cache entry";
  };

  // An older build kept per-archive fragments here; nothing reads them now,
  // so every file under fragments/ is an orphan the prune reclaims.
  for (const fs::path& file : list_files(dir / "fragments")) {
    CacheAuditEntry entry = make_entry(file);
    entry.kind = CacheAuditEntry::Kind::Orphan;
    entry.state = CacheAuditEntry::State::Orphaned;
    entry.detail = file.extension() == ".tmp" ? orphan_detail(file)
                                              : "fragment from an older build (never read)";
    finalize(std::move(entry));
  }
  if (prune) fs::remove(dir / "fragments", ec);  // only succeeds once empty

  // Snapshots: .tsnp entries and their .tfzn frozen companions share the
  // directory. Pass 1 validates every .tsnp (recording which keys are
  // intact); pass 2 judges .tfzn frames, whose verdict depends on that map —
  // the hot path only trusts a frozen frame next to an intact snapshot, so a
  // companion-less .tfzn is an orphan even when structurally perfect.
  std::vector<fs::path> snapshot_files = list_files(snapshots_dir);
  std::map<fs::path, std::string> tsnp_reason;  // path -> "" (intact) or why
  std::set<std::uint64_t> intact_keys;
  for (const fs::path& file : snapshot_files) {
    if (file.extension() != ".tsnp") continue;
    auto id = parse_digest_hex(file.stem().string());
    if (!id) continue;  // judged an orphan in the main loop below
    auto bytes = read_file_bytes(file);
    std::string why = bytes.ok() ? validate_snapshot(std::span<const std::byte>(bytes.value()), *id)
                                 : "unreadable: " + bytes.error().message;
    if (why.empty()) intact_keys.insert(*id);
    tsnp_reason.emplace(file, std::move(why));
  }
  for (const fs::path& file : snapshot_files) {
    CacheAuditEntry entry = make_entry(file);
    std::optional<std::uint64_t> id = parse_digest_hex(file.stem().string());
    if (id && file.extension() == ".tsnp") {
      entry.kind = CacheAuditEntry::Kind::Snapshot;
      ++report.snapshots_checked;
      const std::string& why = tsnp_reason.at(file);
      if (why.empty()) {
        entry.state = CacheAuditEntry::State::Intact;
      } else {
        entry.state = CacheAuditEntry::State::Corrupt;
        entry.detail = why;
      }
    } else if (id && file.extension() == ".tfzn") {
      entry.kind = CacheAuditEntry::Kind::FrozenSnapshot;
      ++report.frozen_checked;
      auto bytes = read_file_bytes(file);
      std::string why;
      if (!bytes.ok()) {
        why = "unreadable: " + bytes.error().message;
      } else if (auto frozen = graph::FrozenGraph::from_bytes(bytes.value()); !frozen.ok()) {
        why = frozen.error().message;
      } else if (frozen.value().content_key() != *id) {
        why = "frozen graph: content key does not match file name";
      }
      if (!why.empty()) {
        entry.state = CacheAuditEntry::State::Corrupt;
        entry.detail = std::move(why);
      } else if (!intact_keys.count(*id)) {
        entry.state = CacheAuditEntry::State::Orphaned;
        entry.detail =
            "no intact companion snapshot (" + util::digest_hex(*id) + ".tsnp)";
      } else {
        entry.state = CacheAuditEntry::State::Intact;
      }
    } else {
      entry.kind = CacheAuditEntry::Kind::Orphan;
      entry.state = CacheAuditEntry::State::Orphaned;
      entry.detail = orphan_detail(file);
    }
    finalize(std::move(entry));
  }

  // Verdicts: one entry kind, one pass. The key is both the
  // file name and an interior field, so a renamed verdict is caught the same
  // way the hot path's load_verdict would treat it: as not-this-chain's.
  for (const fs::path& file : list_files(dir / "verdicts")) {
    CacheAuditEntry entry = make_entry(file);
    std::optional<std::uint64_t> id;
    if (file.extension() == ".tvdt") id = parse_digest_hex(file.stem().string());
    if (!id) {
      entry.kind = CacheAuditEntry::Kind::Orphan;
      entry.state = CacheAuditEntry::State::Orphaned;
      entry.detail = orphan_detail(file);
    } else {
      entry.kind = CacheAuditEntry::Kind::Verdict;
      ++report.verdicts_checked;
      auto bytes = read_file_bytes(file);
      std::string why;
      if (!bytes.ok()) {
        why = "unreadable: " + bytes.error().message;
      } else if (!decode_verdict_entry(std::span<const std::byte>(bytes.value()), *id)) {
        why = "bad verdict frame (checksum, structure or key mismatch)";
      }
      if (why.empty()) {
        entry.state = CacheAuditEntry::State::Intact;
      } else {
        entry.state = CacheAuditEntry::State::Corrupt;
        entry.detail = std::move(why);
      }
    }
    finalize(std::move(entry));
  }

  obs::counter_add("cache.entries_audited", report.entries.size());
  return report;
}

std::chrono::microseconds publish_backoff(std::string_view path, int attempt) {
  // Exponential base: ~1ms, ~2ms, ... for attempts 1, 2, ...
  int exponent = std::clamp(attempt - 1, 0, 20);
  std::uint64_t base = 1000ull << exponent;
  // Jitter decorrelates concurrent runs retrying the same entry. Seeded
  // from the path and the attempt — never the clock — so a chaos run
  // replays with byte-identical sleeps while different entries (and
  // successive attempts) still spread out.
  util::Rng jitter(0x7ab1cac4eULL ^ util::digest_bytes(path) ^
                   (static_cast<std::uint64_t>(static_cast<unsigned>(attempt)) << 48));
  return std::chrono::microseconds(base + jitter.next_below(500));
}

}  // namespace tabby::cache
