// Tests for the public pipeline facade (src/pipeline): structured errors,
// cold builds, cache warm/cold equivalence and the in-memory overload — the
// library-level contract the CLI and the examples are thin callers of.
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
#include "pipeline/pipeline.hpp"

namespace tabby::pipeline {
namespace {

namespace fs = std::filesystem;

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
  Options options;
  auto cold = run({"/no/such/archive.tjar"}, options);
  ASSERT_FALSE(cold.ok());
  EXPECT_NE(cold.error().message.find("/no/such/archive.tjar"), std::string::npos);

  options.cache_dir = (fs::temp_directory_path() / "tabby_pipeline_test_cache_err").string();
  auto cached = run({"/no/such/archive.tjar"}, options);
  ASSERT_FALSE(cached.ok());
  EXPECT_NE(cached.error().message.find("/no/such/archive.tjar"), std::string::npos);
  fs::remove_all(options.cache_dir);
}

TEST_F(PipelineFixture, LoadProgramLinksTheClasspath) {
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_GT(program.value().class_count(), 0u);
}

TEST_F(PipelineFixture, ColdRunBuildsACpg) {
  Options options;
  auto result = run({jar_path_}, options);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const Outcome& outcome = result.value();
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
  Options options;
  options.need_graph_bytes = true;
  auto result = run({jar_path_}, options);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_EQ(result.value().graph_bytes, graph::serialize(cpg::build_cpg(program.value()).db));
}

TEST_F(PipelineFixture, NeedProgramKeepsTheLinkedProgram) {
  Options options;
  options.need_program = true;
  auto result = run({jar_path_}, options);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_TRUE(result.value().program.has_value());
  EXPECT_GT(result.value().program->class_count(), 0u);
}

TEST_F(PipelineFixture, WarmRunIsByteIdenticalToCold) {
  Options options;
  options.cache_dir = path("cache");

  auto cold = run({jar_path_}, options);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_FALSE(cold.value().warm);
  EXPECT_NE(cold.value().cache_line.find("snapshot miss"), std::string::npos);
  ASSERT_FALSE(cold.value().graph_bytes.empty());  // cache runs embed the store

  auto warm = run({jar_path_}, options);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(warm.value().warm);
  EXPECT_NE(warm.value().cache_line.find("snapshot hit"), std::string::npos);
  EXPECT_EQ(cold.value().graph_bytes, warm.value().graph_bytes);
  EXPECT_EQ(cold.value().stats.class_nodes, warm.value().stats.class_nodes);
  EXPECT_EQ(cold.value().stats.relationship_edges, warm.value().stats.relationship_edges);
}

TEST_F(PipelineFixture, WarmRunWithNeedProgramStillLinks) {
  Options options;
  options.cache_dir = path("cache");
  ASSERT_TRUE(run({jar_path_}, options).ok());  // populate

  options.need_program = true;
  auto warm = run({jar_path_}, options);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(warm.value().warm);
  ASSERT_TRUE(warm.value().program.has_value());
  EXPECT_GT(warm.value().program->class_count(), 0u);
}

TEST_F(PipelineFixture, InMemoryOverloadMatchesTheArchivePath) {
  auto program = load_program({jar_path_}, /*with_jdk=*/true);
  ASSERT_TRUE(program.ok());

  Options options;
  options.need_graph_bytes = true;
  auto from_program = run(program.value(), options);
  auto from_archives = run({jar_path_}, options);
  ASSERT_TRUE(from_program.ok());
  ASSERT_TRUE(from_archives.ok());
  EXPECT_EQ(from_program.value().graph_bytes, from_archives.value().graph_bytes);
  EXPECT_TRUE(std::ranges::equal(from_program.value().frozen->frame(),
                                 from_archives.value().frozen->frame()));
}

TEST_F(PipelineFixture, MakePoolHonorsTheSerialContract) {
  EXPECT_EQ(make_pool(1), nullptr);
  auto pool = make_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->concurrency(), 3u);
}

TEST_F(PipelineFixture, ParallelRunMatchesSerialByteForByte) {
  Options serial;
  serial.need_graph_bytes = true;
  auto pool = make_pool(4);
  Options parallel = serial;
  parallel.executor = pool.get();

  auto a = run({jar_path_}, serial);
  auto b = run({jar_path_}, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().graph_bytes, b.value().graph_bytes);
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

  Options strict;
  EXPECT_FALSE(run({jar_path_, bad}, strict).ok());  // library default: fail fast

  Options quarantine;
  quarantine.policy = FailurePolicy::kQuarantine;
  auto result = run({jar_path_, bad}, quarantine);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(result.value().degradation.degraded());
  ASSERT_EQ(result.value().degradation.units.size(), 1u);
  EXPECT_NE(result.value().degradation.units[0].unit.find("truncated.tjar"), std::string::npos);
  EXPECT_GT(result.value().stats.class_nodes, 0u);  // the clean archive survived
}

TEST_F(PipelineFixture, ExpiredDeadlineDegradesQuarantineAndFailsStrict) {
  Options quarantine;
  quarantine.policy = FailurePolicy::kQuarantine;
  quarantine.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  auto degraded = run({jar_path_}, quarantine);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  EXPECT_TRUE(degraded.value().degradation.deadline_hit);
  EXPECT_TRUE(degraded.value().degradation.degraded());

  Options strict;
  strict.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  EXPECT_FALSE(run({jar_path_}, strict).ok());
}

TEST_F(PipelineFixture, CancelTokenReadsAsAnExpiredDeadline) {
  util::CancelToken token;
  token.cancel();
  Options options;
  options.policy = FailurePolicy::kQuarantine;
  options.cancel = &token;
  auto result = run({jar_path_}, options);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(result.value().degradation.deadline_hit);
}

TEST_F(PipelineFixture, GenerousDeadlineLeavesOutputByteIdentical) {
  Options plain;
  plain.need_graph_bytes = true;
  Options bounded = plain;
  bounded.policy = FailurePolicy::kQuarantine;
  bounded.deadline = util::Deadline::after(std::chrono::hours{1});
  auto a = run({jar_path_}, plain);
  auto b = run({jar_path_}, bounded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b.value().degradation.degraded());
  EXPECT_EQ(a.value().graph_bytes, b.value().graph_bytes);
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
  Options options;
  options.policy = FailurePolicy::kQuarantine;
  options.cache_dir = path("cache_degraded");

  auto first = run({jar_path_, bad}, options);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_TRUE(first.value().degradation.degraded());
  EXPECT_FALSE(first.value().warm);

  // The degraded CPG was not published: the identical second run is another
  // cold build (which re-observes and re-reports the same degradation), so
  // a later repaired classpath can never warm-start from the holes.
  auto second = run({jar_path_, bad}, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().warm);
  EXPECT_TRUE(second.value().degradation.degraded());
  EXPECT_EQ(first.value().stats.class_nodes, second.value().stats.class_nodes);
}

}  // namespace
}  // namespace tabby::pipeline
