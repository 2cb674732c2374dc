// Tests for the `tabby` CLI: argument handling, every subcommand, and the
// full disk round trip (gen -> analyze -> find -> query, including the
// persistent graph-store path).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "cli/cli.hpp"
#include "support/json_lite.hpp"

namespace tabby::cli {
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
  result.code = run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

class CliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }
  fs::path dir_;
};

TEST(Cli, NoArgsShowsUsage) {
  CliRun r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  CliRun r = run({"list", "--bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails) {
  CliRun r = run({"gen", "C3P0", "--out"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ListShowsComponentsAndScenes) {
  CliRun r = run({"list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("commons-collections(3.2.1)"), std::string::npos);
  EXPECT_NE(r.out.find("Spring"), std::string::npos);
}

TEST_F(CliFixture, GenUnknownNameFails) {
  CliRun r = run({"gen", "NoSuchThing", "--out", dir_.string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown component or scene"), std::string::npos);
}

TEST_F(CliFixture, GenAnalyzeFindQueryRoundTrip) {
  // gen
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;
  ASSERT_TRUE(fs::exists(path("BeanShell1.tjar")));
  ASSERT_TRUE(fs::exists(path("jdk-base.tjar")));

  // analyze with a persistent store
  CliRun analyze =
      run({"analyze", path("BeanShell1.tjar"), "--store", path("cpg.tgdb")});
  ASSERT_EQ(analyze.code, 0) << analyze.err;
  EXPECT_NE(analyze.out.find("sinks:"), std::string::npos);
  EXPECT_TRUE(fs::exists(path("cpg.tgdb")));

  // find with auto-verification: BeanShell1 = 1 real + 2 guarded fakes.
  CliRun find = run({"find", path("BeanShell1.tjar"), "--verify"});
  ASSERT_EQ(find.code, 0) << find.err;
  EXPECT_NE(find.out.find("3 gadget chain(s)"), std::string::npos);
  EXPECT_NE(find.out.find("1/3 chains confirmed effective"), std::string::npos);

  // query against the stored graph
  CliRun query = run({"query", "--store", path("cpg.tgdb"),
                      "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE"});
  ASSERT_EQ(query.code, 0) << query.err;
  EXPECT_NE(query.out.find("row(s)"), std::string::npos);

  // query building the CPG from jars directly
  CliRun query2 = run({"query", path("BeanShell1.tjar"),
                       "MATCH (m:Method {IS_SOURCE: true}) RETURN m.SIGNATURE LIMIT 3"});
  ASSERT_EQ(query2.code, 0) << query2.err;
  EXPECT_NE(query2.out.find("readObject"), std::string::npos);
}

TEST_F(CliFixture, FindDepthFlagLimitsSearch) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0);
  CliRun shallow = run({"find", path("BeanShell1.tjar"), "--depth", "1"});
  ASSERT_EQ(shallow.code, 0);
  EXPECT_NE(shallow.out.find("0 gadget chain(s)"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeMissingJarFails) {
  CliRun r = run({"analyze", path("ghost.tjar")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

// A directory opens but cannot be read as a file: it is an unreadable
// archive like any other, never an allocation failure.
TEST_F(CliFixture, DirectoryOnTheClasspathIsAnUnreadableArchive) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;
  fs::create_directories(path("somedir.tjar"));
  const std::string expected = "degraded: [fs-read] " + path("somedir.tjar") + ": ";
  for (bool cached : {false, true}) {
    std::vector<std::string> args = {"find", path("BeanShell1.tjar"), path("somedir.tjar")};
    if (cached) args.insert(args.end(), {"--cache", path("cache")});
    CliRun r = run(args);
    EXPECT_EQ(r.code, 3) << r.err;
    EXPECT_NE(r.err.find(expected), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("bad_alloc"), std::string::npos) << r.err;
    EXPECT_NE(r.out.find("3 gadget chain(s)"), std::string::npos) << r.out;

    args.push_back("--strict");
    CliRun strict = run(args);
    EXPECT_EQ(strict.code, 1) << strict.err;
    EXPECT_NE(strict.err.find("error: " + path("somedir.tjar")), std::string::npos)
        << strict.err;
  }
}

TEST_F(CliFixture, QueryParseErrorReported) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0);
  CliRun r = run({"query", path("BeanShell1.tjar"), "NONSENSE"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("query error"), std::string::npos);
}

TEST_F(CliFixture, BadDepthRejected) {
  CliRun r = run({"find", "x.tjar", "--depth", "zero"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, PartialIntegerTokenRejectedAndNamed) {
  // "12abc" must not silently truncate to 12; the error names the token.
  CliRun r = run({"find", "x.tjar", "--depth", "12abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--depth"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("12abc"), std::string::npos) << r.err;
}

TEST(Cli, NonPositiveCountsRejected) {
  CliRun depth = run({"find", "x.tjar", "--depth", "0"});
  EXPECT_EQ(depth.code, 2);
  EXPECT_NE(depth.err.find("bad --depth value: 0"), std::string::npos) << depth.err;
  CliRun jobs = run({"analyze", "x.tjar", "--jobs", "-2"});
  EXPECT_EQ(jobs.code, 2);
  EXPECT_NE(jobs.err.find("bad --jobs value: -2"), std::string::npos) << jobs.err;
}

TEST(Cli, MissingTraceValueFails) {
  CliRun r = run({"list", "--trace"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing value for --trace"), std::string::npos) << r.err;
}

TEST(Cli, CacheFlagMissingValueFails) {
  CliRun r = run({"analyze", "x.tjar", "--cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing value for --cache"), std::string::npos);
}

TEST_F(CliFixture, CacheDirCreationFailureReported) {
  // A path below a regular file cannot be created as a directory.
  { std::ofstream block(path("blocker")); }
  CliRun r = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(r.code, 0);
  CliRun bad = run({"analyze", path("BeanShell1.tjar"), "--cache", path("blocker/cache")});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("cache"), std::string::npos) << bad.err;
}

TEST_F(CliFixture, CacheStatsLineReportsMissThenHit) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  CliRun cold = run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache")});
  ASSERT_EQ(cold.code, 0) << cold.err;
  const std::string cold_line = cold.out.substr(0, cold.out.find('\n'));
  EXPECT_EQ(cold_line.rfind("cache: snapshot miss (key ", 0), 0u) << cold.out;
  // The cold run published one whole-classpath snapshot and its frozen
  // frame, and nothing per archive.
  std::set<std::string> published;
  for (const auto& entry : fs::recursive_directory_iterator(path("cache"))) {
    if (entry.is_regular_file()) published.insert(entry.path().filename().string());
  }
  ASSERT_EQ(published.size(), 2u);
  const std::string stem = fs::path(*published.begin()).stem().string();
  EXPECT_EQ(published, (std::set<std::string>{stem + ".tfzn", stem + ".tsnp"}));
  EXPECT_FALSE(fs::exists(path("cache") + "/fragments"));

  CliRun warm = run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache")});
  ASSERT_EQ(warm.code, 0) << warm.err;
  const std::string warm_line = warm.out.substr(0, warm.out.find('\n'));
  // Same key, now a hit; the line carries nothing else.
  std::string expected_warm = cold_line;
  expected_warm.replace(expected_warm.find("miss"), 4, "hit");
  EXPECT_EQ(warm_line, expected_warm) << warm.out;
  // Warm stats are the cold run's stats, byte for byte.
  EXPECT_EQ(cold.out.substr(cold.out.find("classes:")), warm.out.substr(warm.out.find("classes:")));
}

TEST_F(CliFixture, CachedAnalyzeStoreQueryRoundTrip) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  // Cold analyze populates the cache and writes a store.
  CliRun cold = run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache"), "--store",
                     path("cold.tgdb")});
  ASSERT_EQ(cold.code, 0) << cold.err;

  // Warm analyze writes a byte-identical store.
  CliRun warm = run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache"), "--store",
                     path("warm.tgdb")});
  ASSERT_EQ(warm.code, 0) << warm.err;
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(path("cold.tgdb")), slurp(path("warm.tgdb")));

  // Both stores answer queries; the warm-cached direct query matches too.
  CliRun via_store = run({"query", "--store", path("warm.tgdb"),
                          "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE"});
  ASSERT_EQ(via_store.code, 0) << via_store.err;
  CliRun via_cache = run({"query", path("BeanShell1.tjar"), "--cache", path("cache"),
                          "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE"});
  ASSERT_EQ(via_cache.code, 0) << via_cache.err;
  EXPECT_NE(via_cache.out.find("cache: snapshot hit"), std::string::npos) << via_cache.out;
  // Identical rows once the cache line is stripped.
  std::string cached_rows = via_cache.out.substr(via_cache.out.find('\n') + 1);
  EXPECT_EQ(via_store.out, cached_rows);

  // find --verify on a warm cache still auto-verifies (needs the program).
  CliRun verify = run({"find", path("BeanShell1.tjar"), "--cache", path("cache"), "--verify"});
  ASSERT_EQ(verify.code, 0) << verify.err;
  EXPECT_NE(verify.out.find("cache: snapshot hit"), std::string::npos) << verify.out;
  EXPECT_NE(verify.out.find("1/3 chains confirmed effective"), std::string::npos) << verify.out;
}

std::string slurp_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(CliFixture, TraceFileIsWellFormedChromeJsonWithNestedSpans) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  CliRun find = run({"find", path("BeanShell1.tjar"), "--jobs", "4", "--trace", path("trace.json")});
  ASSERT_EQ(find.code, 0) << find.err;
  ASSERT_TRUE(fs::exists(path("trace.json")));

  auto doc = testsupport::parse_json(slurp_file(path("trace.json")));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_FALSE(doc->array.empty());

  // Collect the complete ("X") events per track and the named tracks.
  std::map<double, std::vector<const testsupport::JsonValue*>> by_tid;
  std::vector<std::string> track_names;
  std::vector<std::string> span_names;
  for (const auto& event : doc->array) {
    ASSERT_TRUE(event.is_object());
    ASSERT_TRUE(event.has("ph"));
    if (event.at("ph").string == "M" && event.at("name").string == "thread_name") {
      track_names.push_back(event.at("args").at("name").string);
    }
    if (event.at("ph").string != "X") continue;
    ASSERT_TRUE(event.has("ts"));
    ASSERT_TRUE(event.has("dur"));
    by_tid[event.at("tid").number].push_back(&event);
    span_names.push_back(event.at("name").string);
  }

  // One track per ThreadPool worker plus the main thread.
  EXPECT_NE(std::find(track_names.begin(), track_names.end(), "main"), track_names.end());
  int workers = 0;
  for (const std::string& name : track_names) {
    if (name.rfind("worker-", 0) == 0) ++workers;
  }
  EXPECT_GE(workers, 4);

  // Every pipeline stage shows up: decode, analysis, CPG phases, finder.
  for (const char* expected : {"pipeline.run", "pipeline.load_program", "jar.decode", "jar.link",
                               "analysis.precompute", "cpg.build", "cpg.pcg", "finder.find_all",
                               "finder.sink", "cli.command"}) {
    EXPECT_NE(std::find(span_names.begin(), span_names.end(), expected), span_names.end())
        << "missing span: " << expected;
  }

  // Per track, spans obey stack discipline: sorted by start, each span either
  // nests inside the enclosing open span or starts after it ended.
  for (const auto& [tid, events] : by_tid) {
    std::vector<std::pair<double, double>> stack;  // (start, end)
    double last_start = -1;
    for (const auto* event : events) {
      double start = event->at("ts").number;
      double end = start + event->at("dur").number;
      EXPECT_GE(start, last_start) << "events not sorted on tid " << tid;
      last_start = start;
      while (!stack.empty() && start >= stack.back().second) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(end, stack.back().second)
            << "span overlaps its parent on tid " << tid << ": " << event->at("name").string;
      }
      stack.emplace_back(start, end);
    }
  }
}

// Cold runs at any --jobs publish byte-identical cache entries (snapshot,
// frozen frame and verdicts): no entry carries a clock or a schedule.
TEST_F(CliFixture, ColdCacheDirectoriesAreIdenticalAcrossJobCounts) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;
  auto tree = [](const fs::path& root) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      files[fs::relative(entry.path(), root).generic_string()] = slurp_file(entry.path());
    }
    return files;
  };
  CliRun serial = run({"find", path("BeanShell1.tjar"), "--verify", "--cache", path("c1"),
                       "--jobs", "1"});
  CliRun parallel = run({"find", path("BeanShell1.tjar"), "--verify", "--cache", path("c4"),
                         "--jobs", "4"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(parallel.code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);
  auto serial_tree = tree(path("c1"));
  std::set<std::string> kinds;
  for (const auto& [name, bytes] : serial_tree) kinds.insert(fs::path(name).extension().string());
  EXPECT_EQ(kinds, (std::set<std::string>{".tfzn", ".tsnp", ".tvdt"}));
  EXPECT_TRUE(serial_tree == tree(path("c4"))) << "cold caches differ across --jobs";
}

TEST_F(CliFixture, TracingAndMetricsDoNotPerturbOutputs) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  CliRun plain = run({"analyze", path("BeanShell1.tjar"), "--store", path("plain.tgdb")});
  ASSERT_EQ(plain.code, 0) << plain.err;
  CliRun traced = run({"analyze", path("BeanShell1.tjar"), "--store", path("traced.tgdb"),
                       "--trace", path("trace.json"), "--metrics"});
  ASSERT_EQ(traced.code, 0) << traced.err;

  // stdout and the persistent store are byte-identical; the only differences
  // are the metrics summary on stderr, the trace file on disk, and the store
  // filename the test itself varies.
  auto stable_lines = [](const std::string& text) {
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
      if (line.rfind("graph store written to", 0) == 0) continue;
      out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(stable_lines(plain.out), stable_lines(traced.out));
  EXPECT_FALSE(stable_lines(plain.out).empty());
  EXPECT_EQ(slurp_file(path("plain.tgdb")), slurp_file(path("traced.tgdb")));
  EXPECT_NE(traced.err.find("metrics: span "), std::string::npos) << traced.err;
  EXPECT_NE(traced.err.find("metrics: counter "), std::string::npos) << traced.err;

  // find output (the chains) is byte-identical too: it carries no timing.
  CliRun find_plain = run({"find", path("BeanShell1.tjar")});
  CliRun find_traced = run({"find", path("BeanShell1.tjar"), "--trace", path("trace2.json")});
  ASSERT_EQ(find_plain.code, 0);
  ASSERT_EQ(find_traced.code, 0);
  EXPECT_EQ(find_plain.out, find_traced.out);
}

TEST_F(CliFixture, MetricsCountersReportCacheTraffic) {
  CliRun gen = run({"gen", "BeanShell1", "--out", dir_.string()});
  ASSERT_EQ(gen.code, 0) << gen.err;

  CliRun cold =
      run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache"), "--metrics"});
  ASSERT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("metrics: counter cache.snapshot_misses = 1"), std::string::npos)
      << cold.err;
  EXPECT_NE(cold.err.find("metrics: counter cache.snapshots_published = 1"), std::string::npos)
      << cold.err;

  CliRun warm =
      run({"analyze", path("BeanShell1.tjar"), "--cache", path("cache"), "--metrics"});
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.err.find("metrics: counter cache.snapshot_hits = 1"), std::string::npos)
      << warm.err;
}

TEST_F(CliFixture, UnwritableTraceFileReported) {
  CliRun r = run({"list", "--trace", (dir_ / "no" / "such" / "dir" / "t.json").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot write trace file"), std::string::npos) << r.err;
}

}  // namespace
}  // namespace tabby::cli
