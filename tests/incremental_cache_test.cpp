// Differential correctness harness for the incremental analysis cache
// (src/cache). For every Table IX component model and every Table X dev
// scene, the same classpath is analyzed three ways —
//
//   cold                  fresh cache directory, everything recomputed
//   warm                  same cache, nothing changed: snapshot hit
//   warm-after-mutation   one archive mutated: a new key, snapshot miss,
//                         the classpath is decoded and built again
//
// — asserting byte-identical `--store` exports and identical `find` chain
// lists across all three paths, across `--jobs` counts, and against the
// cache-less pipeline, and that cold runs at any `--jobs` leave
// byte-identical cache directories. This is the proof obligation that makes
// the cache a pure accelerator: it may never change a single output byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "corpus/scenes.hpp"
#include "jar/archive.hpp"

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

/// Drops the lines that legitimately differ between cold and warm runs: the
/// cache stats line (and the store file name the test varies). Everything
/// else must match.
std::string filter_volatile(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("cache:", 0) == 0) continue;
    if (line.rfind("graph store written to", 0) == 0) continue;  // file names differ
    out += line;
    out += '\n';
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every file under a cache directory, by relative path, with its bytes.
std::map<std::string, std::string> cache_tree(const fs::path& dir) {
  std::map<std::string, std::string> tree;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      tree[fs::relative(entry.path(), dir).generic_string()] = read_file(entry.path());
    }
  }
  return tree;
}

/// The key of a run's "cache: snapshot hit|miss (key K)" line.
std::string cache_key(const std::string& out) {
  std::size_t at = out.find("(key ");
  return at == std::string::npos ? std::string() : out.substr(at + 5, 16);
}

/// One classpath under test: the generated .tjar files plus whether the
/// built-in JDK model should be prefixed by the CLI (component archives) or
/// is already part of the generated set (scene archives).
struct Target {
  std::vector<std::string> jars;
  bool with_jdk = true;
};

class IncrementalCache : public ::testing::TestWithParam<std::string> {
 public:
  static std::string sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
  }

 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tabby_inc_cache_" + std::to_string(::getpid()) + "_" + sanitize(GetParam()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }

  /// Generates the target named by GetParam() ("component:X" / "scene:X").
  Target generate() {
    std::string kind = GetParam().substr(0, GetParam().find(':'));
    std::string name = GetParam().substr(GetParam().find(':') + 1);
    fs::path jar_dir = dir_ / "jars";
    CliRun gen = run({"gen", name, "--out", jar_dir.string()});
    EXPECT_EQ(gen.code, 0) << gen.err;
    Target target;
    for (const auto& entry : fs::directory_iterator(jar_dir)) {
      if (entry.path().extension() == ".tjar") target.jars.push_back(entry.path().string());
    }
    std::sort(target.jars.begin(), target.jars.end());
    if (kind == "component") {
      // gen also wrote jdk-base.tjar; the CLI prefixes the JDK itself.
      std::erase_if(target.jars, [](const std::string& p) {
        return p.find("jdk-base") != std::string::npos;
      });
      target.with_jdk = true;
    } else {
      // Scene classpaths already include the jdk base archive.
      target.with_jdk = false;
    }
    return target;
  }

  std::vector<std::string> with_flags(std::string cmd, const Target& target,
                                      std::vector<std::string> extra) {
    std::vector<std::string> args{std::move(cmd)};
    args.insert(args.end(), target.jars.begin(), target.jars.end());
    if (!target.with_jdk) args.push_back("--no-jdk");
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  }

  /// Mutates the last archive of the classpath: drops its last class (a real
  /// semantic change) or, for single-class archives, edits the version
  /// metadata (a pure content change).
  void mutate_last_archive(const Target& target, bool* dropped_class) {
    auto archive = jar::read_archive_file(target.jars.back());
    ASSERT_TRUE(archive.ok()) << archive.error().to_string();
    if (archive.value().classes.size() > 1) {
      archive.value().classes.pop_back();
      *dropped_class = true;
    } else {
      archive.value().meta.version += "-mutated";
      *dropped_class = false;
    }
    auto written = jar::write_archive_file(archive.value(), target.jars.back());
    ASSERT_TRUE(written.ok()) << written.error().to_string();
  }

  fs::path dir_;
};

TEST_P(IncrementalCache, ColdWarmAndMutationAreDifferentiallyIdentical) {
  Target target = generate();
  ASSERT_FALSE(target.jars.empty());

  // --- cold: fresh cache, snapshot miss ----------------------------------
  CliRun cold = run(with_flags("analyze", target,
                               {"--cache", path("cache"), "--store", path("cold.tgdb"),
                                "--jobs", "1"}));
  ASSERT_EQ(cold.code, 0) << cold.err;
  const std::string key = cache_key(cold.out);
  EXPECT_EQ(cold.out.rfind("cache: snapshot miss (key " + key + ")\n", 0), 0u) << cold.out;
  // The cold run publishes exactly the one snapshot and its frozen frame,
  // and a cold run at another job count publishes the same bytes: the cache
  // holds no clock.
  std::map<std::string, std::string> cold_tree = cache_tree(path("cache"));
  ASSERT_EQ(cold_tree.size(), 2u);
  EXPECT_EQ(cold_tree.begin()->first, "snapshots/" + key + ".tfzn");
  EXPECT_EQ(cold_tree.rbegin()->first, "snapshots/" + key + ".tsnp");
  CliRun cold_j4 = run(with_flags("analyze", target, {"--cache", path("cache_j4"), "--jobs", "4"}));
  ASSERT_EQ(cold_j4.code, 0) << cold_j4.err;
  EXPECT_TRUE(cold_tree == cache_tree(path("cache_j4")))
      << "cold caches differ between --jobs 1 and --jobs 4";

  // Reference runs without any cache, at two job counts.
  CliRun plain = run(with_flags("analyze", target, {"--store", path("plain.tgdb")}));
  ASSERT_EQ(plain.code, 0) << plain.err;
  EXPECT_EQ(read_file(path("cold.tgdb")), read_file(path("plain.tgdb")))
      << "cached cold export differs from the cache-less pipeline";

  // --- warm: same cache, nothing changed, different job count -------------
  CliRun warm = run(with_flags("analyze", target,
                               {"--cache", path("cache"), "--store", path("warm.tgdb"),
                                "--jobs", "3"}));
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
  EXPECT_EQ(read_file(path("cold.tgdb")), read_file(path("warm.tgdb")))
      << "warm export is not byte-identical to the cold export";
  EXPECT_EQ(filter_volatile(cold.out), filter_volatile(warm.out));

  // find: cache-less vs warm cache, across job counts — identical chains.
  CliRun find_plain = run(with_flags("find", target, {"--jobs", "1"}));
  ASSERT_EQ(find_plain.code, 0) << find_plain.err;
  for (const char* jobs : {"1", "4"}) {
    CliRun find_warm = run(with_flags("find", target, {"--cache", path("cache"), "--jobs", jobs}));
    ASSERT_EQ(find_warm.code, 0) << find_warm.err;
    EXPECT_NE(find_warm.out.find("snapshot hit"), std::string::npos);
    EXPECT_EQ(filter_volatile(find_plain.out), filter_volatile(find_warm.out))
        << "warm chain list differs at --jobs " << jobs;
  }

  // --- warm after mutating a single archive -------------------------------
  bool dropped_class = false;
  mutate_last_archive(target, &dropped_class);

  CliRun mutated = run(with_flags("analyze", target,
                                  {"--cache", path("cache"), "--store", path("mut_warm.tgdb"),
                                   "--jobs", "2"}));
  ASSERT_EQ(mutated.code, 0) << mutated.err;
  EXPECT_NE(mutated.out.find("snapshot miss"), std::string::npos)
      << "stale snapshot served for a mutated classpath:\n"
      << mutated.out;
  // The mutation changed the key; the old snapshot stays (structural
  // invalidation never rewrites an entry) and the new one is published.
  const std::string mutated_key = cache_key(mutated.out);
  EXPECT_NE(mutated_key, key);
  EXPECT_TRUE(fs::exists(path("cache") + "/snapshots/" + key + ".tsnp"));
  EXPECT_TRUE(fs::exists(path("cache") + "/snapshots/" + mutated_key + ".tsnp"));
  if (dropped_class) {
    EXPECT_NE(read_file(path("mut_warm.tgdb")), read_file(path("cold.tgdb")))
        << "dropping a class did not change the exported CPG";
  }

  // The mutated warm run must match a fresh cold run on the mutated inputs.
  CliRun mutated_cold = run(with_flags("analyze", target,
                                       {"--cache", path("cache2"), "--store",
                                        path("mut_cold.tgdb"), "--jobs", "1"}));
  ASSERT_EQ(mutated_cold.code, 0) << mutated_cold.err;
  EXPECT_EQ(read_file(path("mut_warm.tgdb")), read_file(path("mut_cold.tgdb")));
  EXPECT_EQ(filter_volatile(mutated.out), filter_volatile(mutated_cold.out));

  CliRun find_mut_plain = run(with_flags("find", target, {}));
  CliRun find_mut_warm = run(with_flags("find", target, {"--cache", path("cache")}));
  ASSERT_EQ(find_mut_plain.code, 0) << find_mut_plain.err;
  ASSERT_EQ(find_mut_warm.code, 0) << find_mut_warm.err;
  EXPECT_EQ(filter_volatile(find_mut_plain.out), filter_volatile(find_mut_warm.out));
}

std::vector<std::string> all_targets() {
  std::vector<std::string> targets;
  for (const std::string& name : corpus::component_names()) targets.push_back("component:" + name);
  for (const std::string& name : corpus::scene_names()) targets.push_back("scene:" + name);
  return targets;
}

INSTANTIATE_TEST_SUITE_P(Corpus, IncrementalCache, ::testing::ValuesIn(all_targets()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return IncrementalCache::sanitize(info.param);
                         });

}  // namespace
}  // namespace tabby
