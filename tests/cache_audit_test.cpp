// Tests for cache self-repair: cache::audit_cache and the `tabby cache`
// subcommand. A bit-flipped snapshot or verdict must be detected against its
// checksum, reported with reclaimable bytes, prunable, and — the payoff —
// the next analysis run rebuilds ONLY the pruned entry, warm-starting every
// other classpath from its surviving snapshot. Also covers the atomic
// publish under concurrent writers and the upgrade of an older cache
// directory (leftover per-archive fragments, an older snapshot version).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

void flip_byte(const fs::path& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x5a));
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The files directly under `dir`; only those with `extension` when given.
std::vector<fs::path> files_in(const fs::path& dir, const std::string& extension = "") {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (extension.empty() || entry.path().extension() == extension) files.push_back(entry.path());
  }
  return files;
}

class CacheAuditFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_cache_audit_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar1_ = (dir_ / "one.tjar").string();
    jar2_ = (dir_ / "two.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar1_).ok());
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, jar2_).ok());
    cache_ = (dir_ / "cache").string();
    // Warm the cache: one whole-classpath snapshot and its frozen frame.
    CliRun cold = run({"analyze", jar1_, jar2_, "--cache", cache_});
    ASSERT_EQ(cold.code, 0) << cold.err;
    ASSERT_EQ(files_in(fs::path(cache_) / "snapshots").size(), 2u);
    snapshots_ = files_in(fs::path(cache_) / "snapshots", ".tsnp");
    frames_ = files_in(fs::path(cache_) / "snapshots", ".tfzn");
    ASSERT_EQ(snapshots_.size(), 1u);
    ASSERT_EQ(frames_.size(), 1u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string jar1_, jar2_, cache_;
  std::vector<fs::path> snapshots_;
  std::vector<fs::path> frames_;
};

TEST_F(CacheAuditFixture, CleanStoreAuditsClean) {
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().snapshots_checked, 1u);
  EXPECT_EQ(report.value().frozen_checked, 1u);
  EXPECT_EQ(report.value().entries.size(), 2u);
  EXPECT_EQ(report.value().reclaimable_bytes, 0u);

  CliRun cli = run({"cache", cache_});
  EXPECT_EQ(cli.code, 0) << cli.out;
}

TEST_F(CacheAuditFixture, MissingDirectoryIsAnError) {
  auto report = cache::audit_cache(dir_ / "nonexistent", false);
  EXPECT_FALSE(report.ok());
  CliRun cli = run({"cache", (dir_ / "nonexistent").string()});
  EXPECT_EQ(cli.code, 1);
}

TEST_F(CacheAuditFixture, BitFlipIsDetectedWithReclaimableBytes) {
  flip_byte(snapshots_[0], fs::file_size(snapshots_[0]) / 2);
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_FALSE(report.value().clean());
  EXPECT_EQ(report.value().corrupt, 1u);
  // The frame lost its intact companion snapshot: an orphan.
  EXPECT_EQ(report.value().orphaned, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes,
            fs::file_size(snapshots_[0]) + fs::file_size(frames_[0]));
  // Audit without --prune is read-only.
  EXPECT_EQ(report.value().reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::exists(snapshots_[0]));

  CliRun cli = run({"cache", cache_});
  EXPECT_EQ(cli.code, 3);
  EXPECT_NE(cli.out.find("corrupt"), std::string::npos) << cli.out;
  EXPECT_NE(cli.out.find("reclaimable"), std::string::npos) << cli.out;
}

TEST_F(CacheAuditFixture, OrphanedTempFilesAreFlagged) {
  std::ofstream(fs::path(cache_) / "verdicts" / "orphan.tmp") << "leftover";
  std::ofstream(fs::path(cache_) / "snapshots" / "junk.bin") << "noise";
  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
}

TEST_F(CacheAuditFixture, PruneHealsAndOnlyThePrunedSnapshotRebuilds) {
  // A second classpath gets its own snapshot; corrupt only the first.
  CliRun other = run({"analyze", jar1_, "--cache", cache_});
  ASSERT_EQ(other.code, 0) << other.err;
  std::vector<fs::path> both = files_in(fs::path(cache_) / "snapshots", ".tsnp");
  ASSERT_EQ(both.size(), 2u);
  const fs::path intact = both[0] == snapshots_[0] ? both[1] : both[0];
  const std::string intact_bytes = read_bytes(intact);
  flip_byte(snapshots_[0], fs::file_size(snapshots_[0]) - 8);

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;  // healed store = success
  EXPECT_NE(pruned.out.find("[pruned]"), std::string::npos) << pruned.out;
  EXPECT_NE(pruned.out.find("reclaimed"), std::string::npos) << pruned.out;
  EXPECT_FALSE(fs::exists(snapshots_[0]));
  EXPECT_EQ(read_bytes(intact), intact_bytes) << "prune touched an intact entry";

  // The next runs self-heal: only the pruned classpath is recomputed (and
  // republished byte for byte); the other still warm-starts.
  CliRun rebuilt = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(rebuilt.code, 0) << rebuilt.err;
  EXPECT_NE(rebuilt.out.find("snapshot miss"), std::string::npos) << rebuilt.out;
  CliRun warm = run({"analyze", jar1_, "--cache", cache_});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean()) << report.value().to_string();
  EXPECT_EQ(report.value().snapshots_checked, 2u);
}

// A cache directory from before the fragment layer was removed: its
// fragments/ files are never read, the audit reports each as an orphan, and
// --prune reclaims them (and the emptied directory).
TEST_F(CacheAuditFixture, LeftoverFragmentsAreOrphansThatPruneReclaims) {
  fs::path fragments = fs::path(cache_) / "fragments";
  fs::create_directories(fragments);
  std::ofstream(fragments / "0123456789abcdef.tfrag") << "an old per-archive fragment";
  std::ofstream(fragments / "0123456789abcdef.tfrag.tmp") << "half";

  CliRun warm = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
  EXPECT_NE(report.value().to_string().find("fragment from an older build"), std::string::npos)
      << report.value().to_string();

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;
  EXPECT_FALSE(fs::exists(fragments));
  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean()) << healed.value().to_string();
}

// A snapshot from before version 3 (its stats block still carried the build
// time) is a clean version miss: no warning, and the republished entry is
// the current format.
TEST_F(CacheAuditFixture, OlderSnapshotVersionIsACleanMiss) {
  const std::string current = read_bytes(snapshots_[0]);
  {
    std::fstream file(snapshots_[0], std::ios::binary | std::ios::in | std::ios::out);
    const std::uint16_t older = cache::kSnapshotVersion - 1;
    char bytes[sizeof older];
    std::memcpy(bytes, &older, sizeof older);
    file.seekp(4);
    file.write(bytes, sizeof bytes);
  }
  CliRun rerun = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(rerun.code, 0) << rerun.err;
  EXPECT_NE(rerun.out.find("snapshot miss"), std::string::npos) << rerun.out;
  EXPECT_EQ(rerun.err.find("warning:"), std::string::npos) << rerun.err;
  EXPECT_EQ(read_bytes(snapshots_[0]), current);
}

// Writers publishing the same entry at once (a daemon and a CLI sharing one
// --cache directory) each write their own temp file, so every publish
// lands on its first attempt and a reader sees one writer's whole entry —
// never a torn mix (which the checksum would turn into a miss) and never a
// rename that lost its temp file to the other writer.
TEST_F(CacheAuditFixture, ConcurrentSameKeyVerdictPublishesNeverTear) {
  constexpr std::uint64_t kKey = 0x5eed;
  auto verdict_for = [](int writer) {
    cache::CachedVerdict v;
    v.verdict = static_cast<std::uint8_t>(writer);
    v.steps = 1000 + static_cast<std::uint64_t>(writer);
    v.detail = std::string((64 << 10) * (1 + writer), static_cast<char>('a' + writer));
    return v;
  };
  std::atomic<int> failed{0}, missed{0}, torn{0};
  auto writer = [&](int id) {
    auto opened = cache::AnalysisCache::open(cache_);
    if (!opened.ok()) {
      ++failed;
      return;
    }
    const cache::CachedVerdict mine = verdict_for(id);
    for (int i = 0; i < 300; ++i) {
      if (!opened.value().store_verdict(kKey, mine).ok()) ++failed;
      auto loaded = opened.value().load_verdict(kKey);
      if (!loaded.has_value()) {
        ++missed;
        continue;
      }
      bool whole = false;
      for (int w : {0, 1}) {
        const cache::CachedVerdict want = verdict_for(w);
        whole |= loaded->verdict == want.verdict && loaded->steps == want.steps &&
                 loaded->detail == want.detail;
      }
      if (!whole) ++torn;
    }
  };
  obs::Tracer::instance().enable();
  // Four threads, two per verdict: with one shared temp name this loses
  // renames (retries, failed publishes) and serves torn entries (misses).
  std::vector<std::thread> writers;
  for (int id : {0, 1, 0, 1}) writers.emplace_back(writer, id);
  for (std::thread& t : writers) t.join();
  obs::TraceReport report = obs::Tracer::instance().flush();
  obs::Tracer::instance().disable();
  EXPECT_EQ(report.counter("cache.publish_retries"), 0u);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(missed.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  // Every temp file was renamed or removed: the audit finds no leftovers.
  auto audit = cache::audit_cache(cache_, false);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit.value().clean()) << audit.value().to_string();
}

TEST_F(CacheAuditFixture, VerdictFramesRoundTripAndRejectKeyMismatches) {
  auto opened = cache::AnalysisCache::open(cache_);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  cache::AnalysisCache& store = opened.value();

  cache::CachedVerdict verdict;
  verdict.verdict = 1;  // REFUTED
  verdict.reason = 0;
  verdict.steps = 42;
  verdict.detail = "guard not taken";
  ASSERT_TRUE(store.store_verdict(0xabc123, verdict).ok());

  auto loaded = store.load_verdict(0xabc123);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->verdict, verdict.verdict);
  EXPECT_EQ(loaded->reason, verdict.reason);
  EXPECT_EQ(loaded->steps, verdict.steps);
  EXPECT_EQ(loaded->detail, verdict.detail);
  EXPECT_FALSE(store.load_verdict(0xdef456).has_value());

  // A frame copied to another key's slot (collision, tampering) misses: the
  // embedded key must match the requested one.
  fs::path verdicts = fs::path(cache_) / "verdicts";
  fs::copy_file(verdicts / (util::digest_hex(0xabc123) + ".tvdt"),
                verdicts / (util::digest_hex(0xdef456) + ".tvdt"));
  EXPECT_FALSE(store.load_verdict(0xdef456).has_value());
}

TEST_F(CacheAuditFixture, CorruptVerdictFrameIsDetectedAndPruned) {
  {
    auto opened = cache::AnalysisCache::open(cache_);
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    cache::CachedVerdict verdict;
    verdict.verdict = 0;
    verdict.steps = 7;
    ASSERT_TRUE(opened.value().store_verdict(0x77, verdict).ok());
  }

  auto clean = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.value().clean());
  EXPECT_EQ(clean.value().verdicts_checked, 1u);
  EXPECT_NE(clean.value().to_string().find("1 verdict(s)"), std::string::npos)
      << clean.value().to_string();

  std::vector<fs::path> frames = files_in(fs::path(cache_) / "verdicts");
  ASSERT_EQ(frames.size(), 1u);
  flip_byte(frames[0], fs::file_size(frames[0]) / 2);

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().corrupt, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes, fs::file_size(frames[0]));

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;
  EXPECT_FALSE(fs::exists(frames[0]));
  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean());
  EXPECT_EQ(healed.value().verdicts_checked, 0u);
}

TEST_F(CacheAuditFixture, CacheFlagFormAndUsageErrors) {
  CliRun flagged = run({"cache", "--cache", cache_});
  EXPECT_EQ(flagged.code, 0) << flagged.out;
  CliRun missing = run({"cache"});
  EXPECT_EQ(missing.code, 2);
  CliRun extra = run({"cache", cache_, cache_});
  EXPECT_EQ(extra.code, 2);
}

}  // namespace
}  // namespace tabby
