// Incremental analysis cache (the ROADMAP's "not doing the work at all"
// multiplier). Real deployments re-scan near-identical classpaths; the
// paper's Neo4j store exists precisely so a graph built once can be
// re-queried. This module persists its artifacts under a cache directory,
// each keyed by content digests (util/digest.hpp):
//
//   snapshots/<key>.tsnp       whole-classpath CPG snapshot: CpgStats plus
//                              the graph::serialize (version-3, checksummed)
//                              bytes, embedded verbatim so a warm
//                              `analyze --store` reproduces the cold store
//                              byte for byte. Keyed by snapshot_key(): the
//                              cpg::options_fingerprint folded with every
//                              archive digest in classpath order (order
//                              matters — the linker's first-wins rule).
//   snapshots/<key>.tfzn       frozen CSR companion: a raw graph::FrozenGraph
//                              frame (see docs/GRAPH.md) whose embedded
//                              content key is the snapshot key. The graph a
//                              warm run serves: it mmaps the frame zero-copy
//                              and skips the store decode entirely. A .tfzn
//                              without an intact sibling .tsnp is an orphan:
//                              the cache never reads it (the .tsnp is the
//                              source of truth the audit trusts); a missing
//                              or corrupt frame is re-frozen from the
//                              snapshot's store and republished.
//   verdicts/<key>.tvdt        one chain-verification verdict (the `--verify`
//                              post-pass, docs/ROBUSTNESS.md "Runtime
//                              re-validation"): warm verify runs skip
//                              re-executing chains whose verdict is already
//                              known. Keyed by the chain digest folded with
//                              the classpath and verify-options fingerprints.
//
// Invalidation is purely structural: there are no timestamps and no
// in-place updates. A changed input or option produces a different key and
// therefore a different file; stale entries are never read again. Corrupt,
// truncated or version-skewed cache entries are detected via the same
// magic/version/checksum discipline as the graph store and are treated as
// misses (the cache self-heals by recomputing and overwriting), never as
// errors and never as data. Verdicts carry a whole-entry checksum; a
// snapshot checksums only its header and lets the embedded graph store's
// own checksum cover the blob, so the warm path hashes the megabytes once.
//
// There is no per-archive entry: a snapshot miss decodes the classpath with
// the same parallel pipeline::load_program the cache-less path uses. A
// `fragments/` directory left by an older build is never read; the audit
// reports its files as orphans and `--prune` reclaims them.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "util/memory_budget.hpp"
#include "util/result.hpp"

namespace tabby::cache {

// Entry versions. Version 2 of each entry (and of the snapshot-key salt)
// came with the switch from FNV-1a to util::digest_bytes for every content
// digest and checksum: a cache directory written before it is a clean
// version (or key) miss that republishes, never a checksum error. Snapshot
// version 3 dropped the build's wall time from the stats block, so two cold
// runs publish byte-identical snapshots.
inline constexpr std::uint32_t kSnapshotMagic = 0x54534E50;  // "TSNP"
inline constexpr std::uint16_t kSnapshotVersion = 3;
inline constexpr std::uint32_t kVerdictMagic = 0x54564454;  // "TVDT"
inline constexpr std::uint16_t kVerdictVersion = 2;

/// Hit/miss telemetry for one pipeline run, rendered as the CLI's
/// "cache:" stats line.
struct CacheStats {
  bool snapshot_checked = false;
  bool snapshot_hit = false;
  std::uint64_t snapshot_key = 0;

  std::string to_line() const;
};

/// One cached chain-verification verdict (see src/finder/verify.hpp; the
/// cache stores the taxonomy as raw codes so it does not depend on the
/// finder's types). Keyed by (chain digest × verify-options fingerprint ×
/// classpath fingerprint) — computed by the pipeline, opaque here.
struct CachedVerdict {
  std::uint8_t verdict = 0;
  std::uint8_t reason = 0;
  std::uint64_t steps = 0;
  std::string detail;
};

/// A warm-started CPG: the deserialized graph plus the cold run's stats and
/// the exact store bytes the snapshot embeds. When load_snapshot() was asked
/// to skip the decode (`need_db = false`), `db` is empty — graph_bytes still
/// holds the verified store blob.
struct CachedCpg {
  cpg::CpgStats stats;
  graph::GraphDb db;
  std::vector<std::byte> graph_bytes;
};

class AnalysisCache {
 public:
  /// Opens the cache rooted at `dir`, creating the directory layout on
  /// first use. Fails only when the directories cannot be created.
  static util::Result<AnalysisCache> open(const std::filesystem::path& dir);

  /// Digest of a .tjar on disk (reads the file; no decode).
  static util::Result<std::uint64_t> digest_file(const std::filesystem::path& file);

  /// Combined snapshot key for a classpath: `options_fp` (see
  /// cpg::options_fingerprint) folded with the archive digests in classpath
  /// order. Pure function — stable across job counts and process restarts.
  static std::uint64_t snapshot_key(std::uint64_t options_fp,
                                    const std::vector<std::uint64_t>& archive_digests);

  /// Warm-start lookup. nullopt on miss (absent, corrupt, truncated or
  /// version-skewed snapshot). Updates stats(). With `need_db = false` the
  /// embedded graph store is NOT deserialized (a frozen warm start already
  /// has the graph); its trailing checksum is still verified so a corrupt
  /// blob stays a miss either way.
  std::optional<CachedCpg> load_snapshot(std::uint64_t key, bool need_db = true);

  /// Persists a snapshot: `graph_bytes` must be graph::serialize(db) of the
  /// CPG the stats describe. Written atomically (temp file + rename).
  util::Status store_snapshot(std::uint64_t key, const cpg::CpgStats& stats,
                              const std::vector<std::byte>& graph_bytes);

  /// Frozen warm-start lookup: mmaps snapshots/<key>.tfzn (zero-copy) and
  /// validates the whole frame plus the embedded content key. nullopt on any
  /// miss; when the file exists but fails validation, `corrupt_reason` (if
  /// non-null) receives the structural reason — the caller's cue to emit a
  /// degradation warning before falling back to the store decode. Absent
  /// files leave it empty. Counters: cache.frozen_hits / cache.frozen_misses.
  std::optional<graph::FrozenGraph> load_frozen(std::uint64_t key,
                                                std::string* corrupt_reason = nullptr);

  /// Publishes a frozen frame next to its snapshot. `frozen` must have been
  /// built with content key == `key` (enforced; a mismatch is an error, not
  /// a silent bad entry). Written atomically like every other cache file.
  util::Status store_frozen(std::uint64_t key, const graph::FrozenGraph& frozen);

  /// Verdict warm-start lookup: verdicts/<key>.tvdt. nullopt on miss
  /// (absent, corrupt, version-skewed, or key mismatch — all self-healing).
  std::optional<CachedVerdict> load_verdict(std::uint64_t key);

  /// Persists one verdict atomically (temp file + rename), like every other
  /// cache artifact. Best-effort: a failed publish is not an error the
  /// verify stage surfaces.
  util::Status store_verdict(std::uint64_t key, const CachedVerdict& verdict);

  CacheStats& stats() { return stats_; }
  const std::filesystem::path& dir() const { return dir_; }

  /// Optional byte ledger for the transient snapshot file buffers (the
  /// multi-megabyte read/assemble spans in load_snapshot/store_snapshot).
  /// Telemetry only; never consulted for decisions. Borrowed, may be null.
  void set_memory(util::MemoryBudget* memory) { memory_ = memory; }

 private:
  explicit AnalysisCache(std::filesystem::path dir) : dir_(std::move(dir)) {}

  std::filesystem::path snapshot_path(std::uint64_t key) const;
  std::filesystem::path frozen_path(std::uint64_t key) const;
  std::filesystem::path verdict_path(std::uint64_t key) const;

  std::filesystem::path dir_;
  CacheStats stats_;
  util::MemoryBudget* memory_ = nullptr;
};

// --- Offline audit (the `tabby cache` subcommand) --------------------------
//
// Lazy self-healing only repairs entries a run happens to touch; a cache
// directory accumulates corrupt and orphaned files it never reads again.
// audit_cache() walks the whole directory eagerly, re-validating every entry
// with the exact discipline the hot path applies (header checksum + embedded
// graph store deserialization for snapshots; full structural attach +
// content-key binding for frozen frames; frame checksum + key binding for
// verdicts) and flagging what the hot path would treat as a miss — plus
// files the cache would never consult at all (orphans: stray names, leftover
// .tmp files from interrupted publishes, anything under an older build's
// fragments/ directory, and frozen frames whose sibling .tsnp is missing or
// corrupt — the hot path only trusts a .tfzn alongside an intact snapshot).

/// One file examined by audit_cache(), in deterministic (sorted) walk order.
struct CacheAuditEntry {
  enum class Kind : std::uint8_t { Snapshot, FrozenSnapshot, Verdict, Orphan };
  enum class State : std::uint8_t { Intact, Corrupt, Orphaned };

  std::filesystem::path path;
  Kind kind = Kind::Orphan;
  State state = State::Orphaned;
  std::uintmax_t bytes = 0;
  bool pruned = false;        // removed by this audit (prune mode only)
  std::string detail;         // human-readable reason for non-intact states
};

struct CacheAuditReport {
  std::vector<CacheAuditEntry> entries;
  std::size_t snapshots_checked = 0;
  std::size_t frozen_checked = 0;
  std::size_t verdicts_checked = 0;
  std::size_t corrupt = 0;
  std::size_t orphaned = 0;
  /// Bytes held by corrupt + orphaned entries (what prune mode reclaims).
  std::uintmax_t reclaimable_bytes = 0;
  /// Bytes actually deleted (0 unless prune mode).
  std::uintmax_t reclaimed_bytes = 0;

  bool clean() const { return corrupt == 0 && orphaned == 0; }
  /// Multi-line summary, the `tabby cache` output.
  std::string to_string() const;
};

/// Validates every entry under cache directory `dir`; with `prune`, deletes
/// the corrupt and orphaned ones (intact entries are never touched). Fails
/// only when `dir` is not a cache directory at all.
util::Result<CacheAuditReport> audit_cache(const std::filesystem::path& dir, bool prune);

/// The atomic-publish retry delay before attempt `attempt + 1` (attempt is
/// the 1-based try that just failed): exponential base (~1ms, ~2ms) plus
/// jitter seeded from the target path and the attempt number — DETERMINISTIC,
/// so chaos runs replay with identical sleeps, while concurrent runs
/// retrying different entries still decorrelate. Exposed for failpoint_test.
std::chrono::microseconds publish_backoff(std::string_view path, int attempt);

}  // namespace tabby::cache
