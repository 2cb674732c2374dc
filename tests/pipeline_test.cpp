// Tests for the pipeline front half behind Engine::open (src/pipeline):
// structured errors, cold builds, cache warm/cold equivalence and the
// in-memory overload — the library-level contract the CLI and the examples
// are thin callers of. Each open runs on a fresh Engine, so nothing is
// resident between calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <vector>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"

namespace tabby::pipeline {
namespace {

namespace fs = std::filesystem;

/// One open of `jars` on a fresh Engine: the one-shot way in.
util::Result<AnalysisPtr> open_once(const std::vector<std::string>& jars,
                                    EngineOptions engine_options = {},
                                    const ExecContext& ctx = {}, const OpenOptions& opts = {}) {
  Engine engine(std::move(engine_options));
  return engine.open(jars, ctx, opts);
}

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_pipeline_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    corpus::Component component = corpus::build_component("BeanShell1");
    jar_path_ = (dir_ / "component.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(component.jar, jar_path_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }
  fs::path dir_;
  std::string jar_path_;
};

TEST(Pipeline, LoadProgramReportsTheOffendingPath) {
  auto result = load_program({"/no/such/archive.tjar"}, /*with_jdk=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("/no/such/archive.tjar"), std::string::npos)
      << result.error().to_string();
}

TEST(Pipeline, RunReportsTheOffendingPathWithAndWithoutCache) {
  auto cold = open_once({"/no/such/archive.tjar"});
  ASSERT_FALSE(cold.ok());
  EXPECT_NE(cold.error().message.find("/no/such/archive.tjar"), std::string::npos);

  EngineOptions cached_options;
  cached_options.cache_dir =
      (fs::temp_directory_path() / "tabby_pipeline_test_cache_err").string();
  auto cached = open_once({"/no/such/archive.tjar"}, cached_options);
  ASSERT_FALSE(cached.ok());
  EXPECT_NE(cached.error().message.find("/no/such/archive.tjar"), std::string::npos);
  fs::remove_all(cached_options.cache_dir);
}

TEST_F(PipelineFixture, LoadProgramLinksTheClasspath) {
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_GT(program.value().class_count(), 0u);
}

TEST_F(PipelineFixture, ColdRunBuildsACpg) {
  auto result = open_once({jar_path_});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const Outcome& outcome = result.value()->outcome();
  EXPECT_FALSE(outcome.warm);
  EXPECT_GT(outcome.stats.class_nodes, 0u);
  EXPECT_GT(outcome.stats.sink_methods, 0u);
  EXPECT_TRUE(outcome.cache_line.empty());
  EXPECT_TRUE(outcome.graph_bytes.empty());  // not requested
  EXPECT_FALSE(outcome.program.has_value());
  ASSERT_TRUE(outcome.frozen.has_value());  // the frame is the graph every run serves
  EXPECT_GT(outcome.frozen->node_count(), 0u);
}

TEST_F(PipelineFixture, GraphBytesAreTheExactStoreSerialization) {
  OpenOptions opts;
  opts.need_graph_bytes = true;
  auto result = open_once({jar_path_}, {}, {}, opts);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_EQ(result.value()->outcome().graph_bytes,
            graph::serialize(cpg::build_cpg(program.value()).db));
}

TEST_F(PipelineFixture, NeedProgramKeepsTheLinkedProgram) {
  OpenOptions opts;
  opts.need_program = true;
  auto result = open_once({jar_path_}, {}, {}, opts);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_TRUE(result.value()->outcome().program.has_value());
  EXPECT_GT(result.value()->outcome().program->class_count(), 0u);
}

TEST_F(PipelineFixture, WarmRunIsByteIdenticalToCold) {
  EngineOptions options;
  options.cache_dir = path("cache");

  auto cold = open_once({jar_path_}, options);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  const Outcome& c = cold.value()->outcome();
  EXPECT_FALSE(c.warm);
  EXPECT_NE(c.cache_line.find("snapshot miss"), std::string::npos);
  ASSERT_FALSE(c.graph_bytes.empty());  // cache runs embed the store

  auto warm = open_once({jar_path_}, options);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  const Outcome& w = warm.value()->outcome();
  EXPECT_TRUE(w.warm);
  EXPECT_NE(w.cache_line.find("snapshot hit"), std::string::npos);
  EXPECT_EQ(c.graph_bytes, w.graph_bytes);
  EXPECT_EQ(c.stats.class_nodes, w.stats.class_nodes);
  EXPECT_EQ(c.stats.relationship_edges, w.stats.relationship_edges);
}

TEST_F(PipelineFixture, WarmRunWithNeedProgramStillLinks) {
  EngineOptions options;
  options.cache_dir = path("cache");
  ASSERT_TRUE(open_once({jar_path_}, options).ok());  // populate

  OpenOptions opts;
  opts.need_program = true;
  auto warm = open_once({jar_path_}, options, {}, opts);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(warm.value()->outcome().warm);
  ASSERT_TRUE(warm.value()->outcome().program.has_value());
  EXPECT_GT(warm.value()->outcome().program->class_count(), 0u);
}

TEST_F(PipelineFixture, InMemoryOverloadMatchesTheArchivePath) {
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok());

  OpenOptions opts;
  opts.need_graph_bytes = true;
  Engine engine;
  auto from_program = engine.open(program.value(), {}, opts);
  auto from_archives = open_once({jar_path_}, {}, {}, opts);
  ASSERT_TRUE(from_program.ok());
  ASSERT_TRUE(from_archives.ok());
  EXPECT_EQ(from_program.value()->outcome().graph_bytes,
            from_archives.value()->outcome().graph_bytes);
  EXPECT_TRUE(std::ranges::equal(from_program.value()->outcome().frozen->frame(),
                                 from_archives.value()->outcome().frozen->frame()));
}

TEST_F(PipelineFixture, MakePoolHonorsTheSerialContract) {
  EXPECT_EQ(make_pool(1), nullptr);
  auto pool = make_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->concurrency(), 3u);
}

TEST_F(PipelineFixture, ParallelRunMatchesSerialByteForByte) {
  OpenOptions opts;
  opts.need_graph_bytes = true;
  EngineOptions parallel;
  parallel.jobs = 4;

  auto a = open_once({jar_path_}, {}, {}, opts);
  auto b = open_once({jar_path_}, parallel, {}, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->outcome().graph_bytes, b.value()->outcome().graph_bytes);
}

TEST(Pipeline, DegradationReportRendersOneLinePerUnit) {
  DegradationReport report;
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.to_string(), "");
  report.add("a.tjar", "fs-read", "cannot open", 0);
  report.add("b.tjar", "archive-decode", "bad magic", 12);
  report.deadline_hit = true;
  report.partial_sinks = 2;
  EXPECT_TRUE(report.degraded());
  std::string text = report.to_string();
  EXPECT_NE(text.find("degraded: [fs-read] a.tjar: cannot open"), std::string::npos);
  EXPECT_NE(text.find("degraded: [archive-decode] b.tjar: bad magic (12 byte(s) skipped)"),
            std::string::npos);
  EXPECT_NE(text.find("deadline exceeded"), std::string::npos);
  EXPECT_NE(text.find("2 sink search(es)"), std::string::npos);
}

TEST_F(PipelineFixture, QuarantineSalvagesWhatStrictRejects) {
  // A truncated sibling of the clean archive on the same classpath.
  std::vector<std::byte> bytes = jar::write_archive(corpus::build_component("BeanShell1").jar);
  bytes.resize(bytes.size() / 2);
  std::string bad = path("truncated.tjar");
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_FALSE(open_once({jar_path_, bad}).ok());  // library default: fail fast

  ExecContext quarantine;
  quarantine.policy = FailurePolicy::kQuarantine;
  auto result = open_once({jar_path_, bad}, {}, quarantine);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const Outcome& outcome = result.value()->outcome();
  EXPECT_TRUE(outcome.degradation.degraded());
  ASSERT_EQ(outcome.degradation.units.size(), 1u);
  EXPECT_NE(outcome.degradation.units[0].unit.find("truncated.tjar"), std::string::npos);
  EXPECT_GT(outcome.stats.class_nodes, 0u);  // the clean archive survived
}

TEST_F(PipelineFixture, ExpiredDeadlineDegradesQuarantineAndFailsStrict) {
  ExecContext quarantine;
  quarantine.policy = FailurePolicy::kQuarantine;
  quarantine.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  OpenOptions opts;
  opts.need_graph_bytes = true;
  auto degraded = open_once({jar_path_}, {}, quarantine, opts);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  const Outcome& outcome = degraded.value()->outcome();
  EXPECT_TRUE(outcome.degradation.deadline_hit);
  EXPECT_TRUE(outcome.degradation.degraded());
  // Cut before the build, the run serves the empty graph, and its store
  // bytes are that graph's serialization (what `analyze --store` writes).
  EXPECT_EQ(outcome.frozen->node_count(), 0u);
  auto stored = graph::deserialize(outcome.graph_bytes);
  ASSERT_TRUE(stored.ok()) << stored.error().to_string();
  EXPECT_EQ(stored.value().node_count(), 0u);

  ExecContext strict;
  strict.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  EXPECT_FALSE(open_once({jar_path_}, {}, strict).ok());
}

TEST_F(PipelineFixture, CancelTokenReadsAsAnExpiredDeadline) {
  util::CancelToken token;
  token.cancel();
  ExecContext ctx;
  ctx.policy = FailurePolicy::kQuarantine;
  ctx.cancel = &token;
  auto result = open_once({jar_path_}, {}, ctx);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(result.value()->outcome().degradation.deadline_hit);
}

TEST_F(PipelineFixture, GenerousDeadlineLeavesOutputByteIdentical) {
  OpenOptions opts;
  opts.need_graph_bytes = true;
  ExecContext bounded;
  bounded.policy = FailurePolicy::kQuarantine;
  bounded.deadline = util::Deadline::after(std::chrono::hours{1});
  auto a = open_once({jar_path_}, {}, {}, opts);
  auto b = open_once({jar_path_}, {}, bounded, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b.value()->outcome().degradation.degraded());
  EXPECT_EQ(a.value()->outcome().graph_bytes, b.value()->outcome().graph_bytes);
}

TEST_F(PipelineFixture, DegradedRunsNeverPublishSnapshots) {
  std::vector<std::byte> bytes = jar::write_archive(corpus::build_component("BeanShell1").jar);
  bytes.resize(bytes.size() * 3 / 4);
  std::string bad = path("truncated2.tjar");
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EngineOptions options;
  options.cache_dir = path("cache_degraded");
  ExecContext ctx;
  ctx.policy = FailurePolicy::kQuarantine;

  auto first = open_once({jar_path_, bad}, options, ctx);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_TRUE(first.value()->outcome().degradation.degraded());
  EXPECT_FALSE(first.value()->outcome().warm);

  // The degraded CPG was not published: the identical second run is another
  // cold build (which re-observes and re-reports the same degradation), so
  // a later repaired classpath can never warm-start from the holes.
  auto second = open_once({jar_path_, bad}, options, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value()->outcome().warm);
  EXPECT_TRUE(second.value()->outcome().degradation.degraded());
  EXPECT_EQ(first.value()->outcome().stats.class_nodes,
            second.value()->outcome().stats.class_nodes);
}

}  // namespace
}  // namespace tabby::pipeline
