// Malformed-input corpus: truncated, bit-flipped and garbage-magic .tjar
// files, plus a mid-file corruption inside the class section. Asserts the
// quarantine contract end to end — salvage keeps the clean prefix, the
// degradation report counts what was lost, the CLI maps it to exit 3 (or 1
// under --strict / total loss) — and that the surviving analysis is
// byte-identical at any --jobs count.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "pipeline/pipeline.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli_capture(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

class MalformedCorpusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_malformed_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    clean_bytes_ = jar::write_archive(corpus::build_component("BeanShell1").jar);
    clean_path_ = write("clean.tjar", clean_bytes_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::vector<std::byte>& bytes) {
    fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return p.string();
  }

  std::vector<std::byte> truncated(std::size_t keep) const {
    return {clean_bytes_.begin(), clean_bytes_.begin() + static_cast<std::ptrdiff_t>(keep)};
  }

  /// A copy of the clean archive with one bit flipped, at the first offset
  /// past the middle whose flip actually breaks the strict decode (a flip
  /// that merely alters content would not be quarantined — it is
  /// indistinguishable from a different valid archive).
  std::vector<std::byte> bit_flipped_broken() const {
    for (std::size_t offset = clean_bytes_.size() / 2; offset < clean_bytes_.size(); ++offset) {
      std::vector<std::byte> bytes = clean_bytes_;
      bytes[offset] ^= std::byte{0x40};
      if (!jar::read_archive(bytes).ok()) return bytes;
    }
    ADD_FAILURE() << "no decode-breaking bit flip found";
    return clean_bytes_;
  }

  fs::path dir_;
  std::vector<std::byte> clean_bytes_;
  std::string clean_path_;
};

TEST_F(MalformedCorpusFixture, SalvageOfCleanBytesMatchesStrictDecode) {
  jar::DecodeDegradation degradation;
  jar::Archive salvaged = jar::read_archive_salvage(clean_bytes_, degradation);
  auto strict = jar::read_archive(clean_bytes_);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(degradation.error.has_value());
  EXPECT_EQ(degradation.bytes_skipped, 0u);
  EXPECT_EQ(salvaged.classes.size(), strict.value().classes.size());
  EXPECT_EQ(jar::write_archive(salvaged), clean_bytes_);  // bit-identical round trip
}

TEST_F(MalformedCorpusFixture, TruncatedClassSectionSalvagesThePrefix) {
  // Drop the last 10% of the stream: the envelope (header + string pool)
  // survives, the class section is cut mid-record.
  std::size_t clean_classes = jar::read_archive(clean_bytes_).value().classes.size();
  jar::DecodeDegradation degradation;
  jar::Archive salvaged =
      jar::read_archive_salvage(truncated(clean_bytes_.size() * 9 / 10), degradation);
  EXPECT_FALSE(jar::read_archive(truncated(clean_bytes_.size() * 9 / 10)).ok());
  ASSERT_TRUE(degradation.error.has_value());
  EXPECT_GT(salvaged.classes.size(), 0u);  // ...but a clean prefix was salvaged
  EXPECT_LT(salvaged.classes.size(), clean_classes);
  EXPECT_EQ(degradation.classes_kept, salvaged.classes.size());
  EXPECT_GT(degradation.classes_dropped, 0u);
}

TEST_F(MalformedCorpusFixture, GarbageMagicLosesTheWholeArchive) {
  std::vector<std::byte> garbage(64, std::byte{0xAB});
  jar::DecodeDegradation degradation;
  jar::Archive salvaged = jar::read_archive_salvage(garbage, degradation);
  ASSERT_TRUE(degradation.error.has_value());
  EXPECT_TRUE(salvaged.classes.empty());
  EXPECT_EQ(degradation.classes_kept, 0u);
}

TEST_F(MalformedCorpusFixture, QuarantineLoadKeepsTheSurvivors) {
  std::string bad = write("bad.tjar", truncated(40));
  pipeline::DegradationReport report;
  auto program = pipeline::load_program({clean_path_, bad}, /*with_jdk=*/true, nullptr,
                                        pipeline::FailurePolicy::kQuarantine, &report);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  ASSERT_EQ(report.units.size(), 1u);
  EXPECT_EQ(report.units[0].stage, "archive-decode");
  EXPECT_NE(report.units[0].unit.find("bad.tjar"), std::string::npos);
  EXPECT_GT(program.value().class_count(), 0u);

  // The same classpath fails outright under the strict policy.
  auto strict = pipeline::load_program({clean_path_, bad}, /*with_jdk=*/true, nullptr,
                                       pipeline::FailurePolicy::kStrict);
  EXPECT_FALSE(strict.ok());
}

TEST_F(MalformedCorpusFixture, AllArchivesLostFailsEvenUnderQuarantine) {
  std::string bad = write("bad.tjar", truncated(8));
  pipeline::DegradationReport report;
  auto program = pipeline::load_program({bad}, /*with_jdk=*/true, nullptr,
                                        pipeline::FailurePolicy::kQuarantine, &report);
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.error().message.find("bad.tjar"), std::string::npos);
}

TEST_F(MalformedCorpusFixture, CliExitCodesFollowTheTaxonomy) {
  std::string bad = write("bad.tjar", bit_flipped_broken());

  CliRun clean = run_cli_capture({"analyze", clean_path_});
  EXPECT_EQ(clean.code, 0);
  EXPECT_EQ(clean.err.find("degraded:"), std::string::npos);

  CliRun degraded = run_cli_capture({"analyze", clean_path_, bad});
  EXPECT_EQ(degraded.code, 3);
  EXPECT_NE(degraded.err.find("degraded:"), std::string::npos) << degraded.err;

  CliRun strict = run_cli_capture({"analyze", clean_path_, bad, "--strict"});
  EXPECT_EQ(strict.code, 1);
  EXPECT_NE(strict.err.find("error:"), std::string::npos);

  CliRun all_lost = run_cli_capture({"analyze", write("junk.tjar", truncated(4))});
  EXPECT_EQ(all_lost.code, 1);

  CliRun usage = run_cli_capture({"analyze", clean_path_, "--deadline", "nope"});
  EXPECT_EQ(usage.code, 2);
}

TEST_F(MalformedCorpusFixture, SurvivingChainsAreIdenticalAtAnyJobCount) {
  // A classpath with one bit-flipped and one truncated member: the salvage
  // decision is a pure function of the bytes, so the surviving chains (and
  // every other output byte) must not depend on worker count.
  std::string flipped = write("flipped.tjar", bit_flipped_broken());
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));

  CliRun serial = run_cli_capture({"find", clean_path_, flipped, cut, "--jobs", "1"});
  CliRun parallel = run_cli_capture({"find", clean_path_, flipped, cut, "--jobs", "4"});
  EXPECT_EQ(serial.code, 3);
  EXPECT_EQ(parallel.code, 3);
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_EQ(serial.err, parallel.err);
}

TEST_F(MalformedCorpusFixture, QuarantinedChainsAreASubsetOfCleanChains) {
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));
  CliRun clean = run_cli_capture({"find", clean_path_});
  CliRun degraded = run_cli_capture({"find", clean_path_, cut});
  EXPECT_EQ(clean.code, 0);
  EXPECT_EQ(degraded.code, 3);
  // Dropping input can only remove chains, never invent them: every chain
  // line found on the degraded classpath exists in the clean report.
  std::istringstream lines(degraded.out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find('#') == std::string::npos) continue;  // not a signature line
    EXPECT_NE(clean.out.find(line), std::string::npos) << line;
  }
}

// The cache changes nothing about quarantine: a classpath with a bit-flipped
// and a truncated member degrades to the same lines, the same exit code and
// the same chains with --cache as without it (cold, and again after, since a
// degraded run never publishes a snapshot).
TEST_F(MalformedCorpusFixture, CacheReportsTheSameDegradationAsNoCache) {
  std::string flipped = write("flipped.tjar", bit_flipped_broken());
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));
  std::string cache = (dir_ / "cache").string();
  auto degraded_lines = [](const std::string& err) {
    std::istringstream lines(err);
    std::string line, out;
    while (std::getline(lines, line)) {
      if (line.rfind("degraded:", 0) == 0) out += line + "\n";
    }
    return out;
  };
  auto without_cache_line = [](const std::string& out) {
    return out.rfind("cache:", 0) == 0 ? out.substr(out.find('\n') + 1) : out;
  };

  CliRun plain = run_cli_capture({"find", flipped, clean_path_, cut, "--jobs", "2"});
  ASSERT_EQ(plain.code, 3) << plain.err;
  ASSERT_FALSE(degraded_lines(plain.err).empty());
  for (int pass = 0; pass < 2; ++pass) {
    CliRun cached =
        run_cli_capture({"find", flipped, clean_path_, cut, "--jobs", "2", "--cache", cache});
    EXPECT_EQ(cached.code, plain.code) << cached.err;
    EXPECT_NE(cached.out.find("snapshot miss"), std::string::npos) << cached.out;
    EXPECT_EQ(degraded_lines(cached.err), degraded_lines(plain.err));
    EXPECT_EQ(without_cache_line(cached.out), plain.out);
  }
}

}  // namespace
}  // namespace tabby
