// Chaos harness: sweeps every compiled-in failpoint site (util/failpoint),
// injecting faults into cold and warm cache-backed CLI runs, and asserts the
// fail-soft contract from docs/ROBUSTNESS.md:
//   - the process never crashes: every run returns a structured exit code
//     from the documented taxonomy (0 clean / 1 fatal / 3 degraded);
//   - fatal runs name their error, degraded runs itemize their losses;
//   - any chain reported under injection also exists in the clean report
//     (faults can only remove answers, never invent them).
// Also exercises the cache publish retry-with-backoff satellite through the
// cache.publish.rename site.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "serve/serve.hpp"
#include "util/failpoint.hpp"

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

class ChaosFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    util::failpoint::disarm();
    dir_ = fs::temp_directory_path() / ("tabby_chaos_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_path_ = (dir_ / "component.tjar").string();
    ASSERT_TRUE(
        jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_path_).ok());
    // A second archive so a single-shot fault on one unit leaves survivors
    // (degradation, exit 3) instead of emptying the whole classpath (exit 1).
    jar2_path_ = (dir_ / "component2.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, jar2_path_).ok());
  }
  void TearDown() override {
    util::failpoint::disarm();
    fs::remove_all(dir_);
  }

  std::string fresh_cache(const std::string& tag) {
    return (dir_ / ("cache_" + tag)).string();
  }

  fs::path dir_;
  std::string jar_path_;
  std::string jar2_path_;
};

/// The signature lines (one per chain node) of a find report, in order —
/// the timing- and cache-line-insensitive projection of the output.
std::string chain_lines(const std::string& out) {
  std::istringstream lines(out);
  std::string line, chains;
  while (std::getline(lines, line)) {
    if (line.find('#') == std::string::npos) continue;
    chains += line;
    chains += '\n';
  }
  return chains;
}

/// Every signature line of `run` must exist verbatim in the clean report.
void expect_chains_subset(const CliRun& run, const CliRun& clean, const std::string& label) {
  std::istringstream lines(run.out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find('#') == std::string::npos) continue;
    EXPECT_NE(clean.out.find(line), std::string::npos) << label << ": invented chain line " << line;
  }
}

TEST_F(ChaosFixture, SweepEverySiteNeverCrashesAndStaysStructured) {
  CliRun clean = run_cli_capture({"find", jar_path_, jar2_path_});
  ASSERT_EQ(clean.code, 0) << clean.err;
  ASSERT_NE(clean.out.find("gadget chain"), std::string::npos);

  std::set<std::string> sites_that_fired;
  int tag = 0;
  for (const std::string& site : util::failpoint::catalog()) {
    // times=1: one transient fault, the run should usually recover around
    // it. times=-1: the fault is permanent for the whole run.
    for (int times : {1, -1}) {
      util::failpoint::disarm();
      util::failpoint::arm();
      util::failpoint::activate(site, times);
      std::string cache = fresh_cache(std::to_string(tag++));
      std::string label = site + (times < 0 ? " (always)" : " (once)");

      // Cold then warm, both under injection and with 2 workers so the
      // pool.task site is on the path.
      CliRun cold =
          run_cli_capture({"find", jar_path_, jar2_path_, "--cache", cache, "--jobs", "2"});
      CliRun warm =
          run_cli_capture({"find", jar_path_, jar2_path_, "--cache", cache, "--jobs", "2"});
      if (util::failpoint::fired(site) > 0) sites_that_fired.insert(site);
      util::failpoint::disarm();

      for (const CliRun* run : {&cold, &warm}) {
        EXPECT_TRUE(run->code == 0 || run->code == 1 || run->code == 3)
            << label << ": unstructured exit " << run->code << "\n" << run->err;
        if (run->code == 1) {
          EXPECT_NE(run->err.find("error:"), std::string::npos) << label << "\n" << run->err;
        }
        if (run->code == 3) {
          EXPECT_NE(run->err.find("degraded:"), std::string::npos) << label << "\n" << run->err;
        }
        expect_chains_subset(*run, clean, label);
      }

      // Whatever the injection did to the cache, a clean run afterwards
      // must produce the clean answer again (corrupt or missing cache
      // entries self-heal as misses).
      CliRun recovered =
          run_cli_capture({"find", jar_path_, jar2_path_, "--cache", cache, "--jobs", "2"});
      EXPECT_EQ(recovered.code, 0) << label << ": no recovery\n" << recovered.err;
      EXPECT_EQ(chain_lines(recovered.out), chain_lines(clean.out)) << label;
    }
  }
  // The sweep must have actually exercised the harness: most sites sit on
  // this workload's path (cache publish, fs reads, archive decode, worker
  // tasks, snapshot/graph decode).
  EXPECT_GE(sites_that_fired.size(), 5u) << "sweep barely fired any site";
}

TEST_F(ChaosFixture, QueryWorkloadSweepStaysStructured) {
  // The query workload reaches the two sites the find sweep does not sit on
  // the far side of: cypher.eval (the evaluator entry) and cypher.plan.
  const std::string query = "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE";
  CliRun clean = run_cli_capture({"query", jar_path_, query});
  ASSERT_EQ(clean.code, 0) << clean.err;
  ASSERT_NE(clean.out.find("row(s)"), std::string::npos);

  std::set<std::string> sites_that_fired;
  for (const std::string& site : util::failpoint::catalog()) {
    util::failpoint::disarm();
    util::failpoint::arm();
    util::failpoint::activate(site);  // permanent for the whole run
    CliRun r = run_cli_capture({"query", jar_path_, query, "--jobs", "2"});
    if (util::failpoint::fired(site) > 0) sites_that_fired.insert(site);
    util::failpoint::disarm();

    EXPECT_TRUE(r.code == 0 || r.code == 1 || r.code == 3)
        << site << ": unstructured exit " << r.code << "\n" << r.err;
    if (r.code == 1) {
      EXPECT_TRUE(r.err.find("error:") != std::string::npos ||
                  r.err.find("query error:") != std::string::npos)
          << site << "\n" << r.err;
    }
    if (site == "cypher.plan") {
      // A planner fault is strictly weaker than an evaluator fault: it must
      // degrade to naive evaluation — same rows, clean exit — never an error
      // and never a different answer.
      EXPECT_EQ(r.code, 0) << "cypher.plan fault did not degrade to naive\n" << r.err;
      EXPECT_EQ(r.out, clean.out) << "cypher.plan fault changed the answer";
    }
  }
  EXPECT_TRUE(sites_that_fired.count("cypher.eval") == 1) << "cypher.eval never fired";
  EXPECT_TRUE(sites_that_fired.count("cypher.plan") == 1) << "cypher.plan never fired";

  // Injection over: the same query answers cleanly again.
  CliRun recovered = run_cli_capture({"query", jar_path_, query});
  EXPECT_EQ(recovered.code, 0) << recovered.err;
  EXPECT_EQ(recovered.out, clean.out);
}

TEST_F(ChaosFixture, VerifySweepOverRuntimeSitesStaysStructured) {
  // The verify post-pass adds three sites (runtime.step inside the VM,
  // runtime.verify.crash / runtime.verify.hang around the shards). Under any
  // of them the run must stay structured: exit 0 (absorbed) or 3 (chains
  // demoted to UNCONFIRMED, itemized on stderr) — never a crash, and never
  // an invented or silently dropped chain.
  CliRun clean = run_cli_capture({"find", jar_path_, "--verify"});
  ASSERT_EQ(clean.code, 0) << clean.err;
  ASSERT_NE(clean.out.find("chains confirmed effective"), std::string::npos) << clean.out;

  struct Case {
    const char* site;
    int times;
    const char* workers;  // nullptr = in-process
  };
  // Permanent hang chaos under --verify-workers is excluded on wall-clock
  // grounds only: every dispatch would ride out the full production hang
  // timeout (the absorbed single-hang case below already proves the path).
  const Case cases[] = {
      {"runtime.step", 1, nullptr},          {"runtime.step", -1, nullptr},
      {"runtime.step", 1, "2"},              {"runtime.verify.crash", 1, nullptr},
      {"runtime.verify.crash", -1, nullptr}, {"runtime.verify.crash", 1, "2"},
      {"runtime.verify.crash", -1, "2"},     {"runtime.verify.hang", 1, nullptr},
      {"runtime.verify.hang", -1, nullptr},  {"runtime.verify.hang", 1, "2"},
  };
  for (const Case& c : cases) {
    std::string label = std::string(c.site) + (c.times < 0 ? " (always)" : " (once)") +
                        (c.workers != nullptr ? " workers=2" : "");
    util::failpoint::disarm();
    util::failpoint::arm();
    util::failpoint::activate(c.site, c.times);
    std::vector<std::string> args{"find", jar_path_, "--verify"};
    if (c.workers != nullptr) {
      args.push_back("--verify-workers");
      args.push_back(c.workers);
    }
    CliRun r = run_cli_capture(args);
    // runtime.step under --verify-workers fires inside the forked verifier,
    // where the child's counter is invisible to this process.
    if (c.workers == nullptr || std::string(c.site) != "runtime.step") {
      EXPECT_GT(util::failpoint::fired(c.site), 0u) << label << ": site never fired";
    }
    util::failpoint::disarm();

    EXPECT_TRUE(r.code == 0 || r.code == 3)
        << label << ": unstructured exit " << r.code << "\n" << r.err;
    if (r.code == 3) {
      EXPECT_NE(r.err.find("degraded: [verify-"), std::string::npos) << label << "\n" << r.err;
      EXPECT_NE(r.out.find("unconfirmed"), std::string::npos) << label << "\n" << r.out;
    }
    expect_chains_subset(r, clean, label);
    // UNCONFIRMED demotion keeps the chain: same chain lines as clean.
    EXPECT_EQ(chain_lines(r.out), chain_lines(clean.out)) << label;
  }

  // Injection over: the next run confirms the effective chain again.
  CliRun recovered = run_cli_capture({"find", jar_path_, "--verify"});
  EXPECT_EQ(recovered.code, 0) << recovered.err;
  EXPECT_EQ(chain_lines(recovered.out), chain_lines(clean.out));
  EXPECT_NE(recovered.out.find("chains confirmed effective"), std::string::npos);
}

TEST_F(ChaosFixture, TransientPublishFaultsAreRetriedToSuccess) {
  util::failpoint::arm();
  // Two failed rename attempts out of the three the retry loop allows: the
  // publish must still land, and the cache must warm-start next run.
  util::failpoint::activate("cache.publish.rename", 2);
  std::string cache = fresh_cache("retry");
  CliRun cold = run_cli_capture({"analyze", jar_path_, "--cache", cache});
  EXPECT_EQ(util::failpoint::fired("cache.publish.rename"), 2u);
  util::failpoint::disarm();
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_EQ(cold.err.find("warning:"), std::string::npos) << cold.err;

  CliRun warm = run_cli_capture({"analyze", jar_path_, "--cache", cache});
  EXPECT_EQ(warm.code, 0);
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
}

TEST_F(ChaosFixture, ExhaustedPublishRetriesDegradeToAWarning) {
  util::failpoint::arm();
  util::failpoint::activate("cache.publish.rename");  // every attempt fails
  std::string cache = fresh_cache("exhausted");
  CliRun cold = run_cli_capture({"analyze", jar_path_, "--cache", cache});
  util::failpoint::disarm();
  // Publishing is best-effort: the analysis itself is clean.
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("warning:"), std::string::npos) << cold.err;

  // Nothing was published, so the next (clean) run is a cold miss that
  // rebuilds and publishes normally.
  CliRun rebuilt = run_cli_capture({"analyze", jar_path_, "--cache", cache});
  EXPECT_EQ(rebuilt.code, 0);
  EXPECT_NE(rebuilt.out.find("snapshot miss"), std::string::npos) << rebuilt.out;
}

TEST_F(ChaosFixture, WorkerTaskFaultIsAStructuredFatalNotACrash) {
  util::failpoint::arm();
  util::failpoint::activate("pool.task");
  CliRun r = run_cli_capture({"find", jar_path_, "--jobs", "2"});
  util::failpoint::disarm();
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("failpoint"), std::string::npos) << r.err;
}

TEST_F(ChaosFixture, ServeRequestFaultIsContainedToOneRequest) {
  // The daemon-side site: with serve.request active, every request fails as
  // a structured internal error — the daemon itself must never die, and must
  // answer cleanly the moment the injection stops.
  std::string socket = "/tmp/tchaos_" + std::to_string(::getpid());
  std::ostringstream daemon_out, daemon_err;
  int daemon_code = -1;
  std::thread daemon([&] {
    daemon_code = cli::run_cli({"serve", socket}, daemon_out, daemon_err);
  });

  util::failpoint::arm();
  util::failpoint::activate("serve.request");  // permanent while armed
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto reply = serve::client_request(socket, "{\"op\":\"stats\"}");
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_NE(reply.value().find("\"ok\":false"), std::string::npos) << reply.value();
    EXPECT_NE(reply.value().find("\"internal\""), std::string::npos) << reply.value();
  }
  EXPECT_GE(util::failpoint::fired("serve.request"), 3u);
  util::failpoint::disarm();

  // Injection over: the daemon answers real work on the very next request.
  auto clean = serve::client_request(socket, "{\"op\":\"find\",\"classpath\":[\"" + jar_path_ + "\"]}");
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  EXPECT_NE(clean.value().find("\"ok\":true"), std::string::npos) << clean.value();
  EXPECT_NE(clean.value().find("gadget chain"), std::string::npos) << clean.value();

  auto shutdown = serve::client_request(socket, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.ok());
  daemon.join();
  EXPECT_EQ(daemon_code, 0) << daemon_err.str();
}

}  // namespace
}  // namespace tabby
