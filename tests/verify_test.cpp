// The supervised runtime re-validation post-pass (src/finder/verify): the
// structured EFFECTIVE / REFUTED / UNCONFIRMED(reason) taxonomy, and — at
// every layer from finder::verify_chains up through the CLI and the serve
// daemon — the three contracts the stage exists for:
//
//   1. verdicts are byte-identical at any executor size and any
//      `--verify-workers` count, including under absorbed worker crashes;
//   2. a VM fault, hang or crash on one chain demotes that chain to
//      UNCONFIRMED (kept, never dropped; exit 3, --strict: 1) and never
//      kills the coordinator;
//   3. every chain gets exactly one verdict, with a machine-readable reason,
//      and only deterministic verdicts ever reach the verdict cache.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "corpus/jdk.hpp"
#include "cpg/builder.hpp"
#include "finder/finder.hpp"
#include "finder/verify.hpp"
#include "graph/frozen.hpp"
#include "jar/archive.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Every test leaves the process-global failpoint harness disarmed so
/// ordering never matters (the chaos tests arm it programmatically).
class VerifyFixture : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoint::disarm(); }
  void TearDown() override {
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
  }

  /// Unit-test friendly supervision timings (as in dist_test).
  static dist::DistOptions fast(int workers) {
    dist::DistOptions options;
    options.workers = workers;
    options.heartbeat_interval = 20ms;
    options.hang_timeout = 250ms;
    return options;
  }
};

/// One shared linked program + CPG + statically-found chains for the whole
/// suite (BeanShell1 against the jdk base — the shape the CLI builds). The
/// component carries one effective chain and two VM-refutable ones.
struct VerifyWorld {
  jir::Program program;
  cpg::Cpg cpg;
  std::vector<finder::GadgetChain> chains;
};

const VerifyWorld& world() {
  static VerifyWorld w = [] {
    jir::Program program =
        jar::link({corpus::jdk_base_archive(), corpus::build_component("BeanShell1").jar});
    cpg::Cpg cpg = cpg::build_cpg(program, {});
    std::vector<finder::GadgetChain> chains =
        finder::GadgetChainFinder(cpg.db, {}).find_all().chains;
    return VerifyWorld{std::move(program), std::move(cpg), std::move(chains)};
  }();
  return w;
}

/// The full deterministic rendering of a report: taxonomy line, detail and
/// step count per chain — what "byte-identical" means below.
std::string verdict_text(const finder::VerifyReport& report) {
  std::string text;
  for (const finder::ChainVerdict& v : report.verdicts) {
    text += finder::verdict_line(v);
    text += " | ";
    text += v.detail;
    text += " | ";
    text += std::to_string(v.steps);
    text += "\n";
  }
  return text;
}

finder::VerifyReport run_verify(const finder::VerifyOptions& options) {
  finder::AliasView aliases(world().cpg.db);
  return finder::verify_chains(world().program, aliases, world().chains, options);
}

// --- finder::verify_chains -------------------------------------------------

TEST_F(VerifyFixture, EveryChainGetsExactlyOneClassifiedVerdict) {
  finder::VerifyReport report = run_verify({});
  ASSERT_GE(world().chains.size(), 2u);
  ASSERT_EQ(report.verdicts.size(), world().chains.size());
  EXPECT_EQ(report.effective + report.refuted + report.unconfirmed, world().chains.size());
  EXPECT_GE(report.effective, 1u);  // the planted BeanShell1 chain fires
  EXPECT_GE(report.refuted, 1u);    // the guarded/uncontrollable ones die
  EXPECT_EQ(report.unconfirmed, 0u);
  EXPECT_FALSE(report.degraded());
  EXPECT_GT(report.steps_total, 0u);
  for (const finder::ChainVerdict& v : report.verdicts) {
    if (v.verdict == finder::Verdict::Effective) {
      EXPECT_EQ(finder::verdict_line(v), "EFFECTIVE");
      EXPECT_EQ(v.reason, finder::UnconfirmedReason::None);
      EXPECT_GT(v.steps, 0u);
    }
    EXPECT_FALSE(v.from_cache);
  }
}

TEST_F(VerifyFixture, NoChainsMeansAnEmptyCleanReport) {
  finder::AliasView aliases(world().cpg.db);
  finder::VerifyReport report =
      finder::verify_chains(world().program, aliases, {}, finder::VerifyOptions{});
  EXPECT_TRUE(report.verdicts.empty());
  EXPECT_FALSE(report.degraded());
}

TEST_F(VerifyFixture, VerdictsAreByteIdenticalAtAnyExecutorAndWorkerCount) {
  finder::VerifyReport serial = run_verify({});
  std::string baseline = verdict_text(serial);

  util::ThreadPool pool(4);
  finder::VerifyOptions pooled;
  pooled.executor = &pool;
  EXPECT_EQ(verdict_text(run_verify(pooled)), baseline) << "in-process pool";

  for (int workers : {1, 2, 4}) {
    // No fault is injected here, so the production supervision timings
    // apply: the fast() 250 ms hang timeout reaps a worker that is merely
    // slow (a loaded machine, a sanitizer build) and counts it as a crash.
    finder::VerifyOptions options;
    options.dist.workers = workers;
    finder::VerifyReport dist = run_verify(options);
    EXPECT_EQ(verdict_text(dist), baseline) << "verify-workers=" << workers;
    EXPECT_GT(dist.dist_stats.workers_spawned, 0u);
    EXPECT_EQ(dist.dist_stats.crashes, 0u);
  }
}

TEST_F(VerifyFixture, FrozenAndStoreAliasViewsProduceTheSameVerdicts) {
  // Satellite 1: a chain found over the frozen CSR verifies against that
  // same snapshot — no re-pinning to the mutable store, no id remapping.
  finder::VerifyReport store = run_verify({});
  auto frozen = graph::FrozenGraph::freeze(world().cpg.db);
  ASSERT_TRUE(frozen.ok()) << frozen.error().to_string();
  finder::AliasView aliases(frozen.value());
  finder::VerifyReport snap =
      finder::verify_chains(world().program, aliases, world().chains, finder::VerifyOptions{});
  EXPECT_EQ(verdict_text(snap), verdict_text(store));
}

TEST_F(VerifyFixture, StepBudgetExhaustionDemotesToUnconfirmedBudget) {
  finder::VerifyOptions options;
  options.max_steps_per_chain = 1;  // any chain that actually runs exceeds it
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.effective, 0u);
  ASSERT_GE(report.unconfirmed, 1u);
  EXPECT_TRUE(report.degraded());
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const finder::ChainVerdict& v = report.verdicts[i];
    if (v.verdict != finder::Verdict::Unconfirmed) continue;
    EXPECT_EQ(v.reason, finder::UnconfirmedReason::Budget);
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(budget)");
    EXPECT_NE(v.detail.find("step budget exceeded"), std::string::npos) << v.detail;
    EXPECT_NE(finder::degraded_line(world().chains[i], v).find("degraded: [verify-budget] "),
              std::string::npos);
  }
}

TEST_F(VerifyFixture, ExpiredDeadlineDemotesEveryChainWithoutExecuting) {
  finder::VerifyOptions options;
  options.deadline = util::Deadline::after(0ms);
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.unconfirmed, world().chains.size());
  EXPECT_EQ(report.steps_total, 0u);
  for (const finder::ChainVerdict& v : report.verdicts) {
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(timeout)");
    EXPECT_EQ(v.detail, "verify deadline expired before the chain ran");
    EXPECT_EQ(v.steps, 0u);
  }
}

TEST_F(VerifyFixture, InProcessChaosLandsOnTheSameChainAtAnyJobCount) {
  // The chaos decision is serial in chain order, so `site*1` demotes the
  // same (first) chain whether the shards then run serially or on a pool.
  auto run_with_one_crash = [this](util::Executor* executor) {
    util::failpoint::arm();
    util::failpoint::activate("runtime.verify.crash", 1);
    finder::VerifyOptions options;
    options.executor = executor;
    finder::VerifyReport report = run_verify(options);
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
    return report;
  };

  finder::VerifyReport serial = run_with_one_crash(nullptr);
  EXPECT_EQ(serial.unconfirmed, 1u);
  EXPECT_EQ(serial.verdicts[0].verdict, finder::Verdict::Unconfirmed);
  EXPECT_EQ(serial.verdicts[0].reason, finder::UnconfirmedReason::Crash);
  EXPECT_NE(serial.verdicts[0].detail.find("runtime.verify.crash"), std::string::npos);

  util::ThreadPool pool(4);
  finder::VerifyReport pooled = run_with_one_crash(&pool);
  EXPECT_EQ(verdict_text(pooled), verdict_text(serial));
}

TEST_F(VerifyFixture, InProcessHangChaosDemotesToTimeout) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.hang", 1);
  finder::VerifyReport report = run_verify({});
  ASSERT_GE(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, finder::Verdict::Unconfirmed);
  EXPECT_EQ(report.verdicts[0].reason, finder::UnconfirmedReason::Timeout);
  EXPECT_NE(finder::degraded_line(world().chains[0], report.verdicts[0])
                .find("degraded: [verify-timeout] "),
            std::string::npos);
}

TEST_F(VerifyFixture, DistAbsorbedCrashKeepsVerdictBytes) {
  finder::VerifyReport serial = run_verify({});
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash", 1);
  finder::VerifyOptions options;
  options.dist = fast(2);
  finder::VerifyReport dist = run_verify(options);
  EXPECT_EQ(verdict_text(dist), verdict_text(serial));
  EXPECT_EQ(dist.unconfirmed, 0u);
  EXPECT_EQ(dist.dist_stats.crashes, 1u);
  EXPECT_GE(dist.dist_stats.retries, 1u);
  EXPECT_EQ(util::failpoint::fired("runtime.verify.crash"), 1u);
}

TEST_F(VerifyFixture, DistAbsorbedHangKeepsVerdictBytes) {
  finder::VerifyReport serial = run_verify({});
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.hang", 1);
  finder::VerifyOptions options;
  options.dist = fast(1);
  finder::VerifyReport dist = run_verify(options);
  EXPECT_EQ(verdict_text(dist), verdict_text(serial));
  EXPECT_GE(dist.dist_stats.heartbeat_misses, 1u);
  EXPECT_GE(dist.dist_stats.crashes, 1u);  // the hung verifier is SIGKILLed
}

TEST_F(VerifyFixture, DistRetryExhaustionDemotesEveryChainNotTheCoordinator) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited: every dispatch dies
  finder::VerifyOptions options;
  options.dist = fast(2);
  finder::VerifyReport report = run_verify(options);
  ASSERT_EQ(report.verdicts.size(), world().chains.size());
  EXPECT_EQ(report.unconfirmed, world().chains.size());
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const finder::ChainVerdict& v = report.verdicts[i];
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(crash)");
    EXPECT_NE(v.detail.find("worker crashed"), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find("3 attempts"), std::string::npos) << v.detail;
    std::string line = finder::degraded_line(world().chains[i], v);
    EXPECT_NE(line.find("degraded: [verify-crash] "), std::string::npos) << line;
    EXPECT_NE(line.find("; chain kept as UNCONFIRMED"), std::string::npos) << line;
  }
}

// --- verdict cache hooks ---------------------------------------------------

struct MapCache {
  std::map<std::uint64_t, finder::ChainVerdict> entries;
  std::size_t loads = 0;

  void wire(finder::VerifyOptions& options) {
    options.cache_fingerprint = 0x7ab1;
    options.cache_load = [this](std::uint64_t key) -> std::optional<finder::ChainVerdict> {
      ++loads;
      auto it = entries.find(key);
      if (it == entries.end()) return std::nullopt;
      return it->second;
    };
    options.cache_store = [this](std::uint64_t key, const finder::ChainVerdict& v) {
      entries[key] = v;
    };
  }
};

TEST_F(VerifyFixture, WarmCacheAnswersEveryChainWithoutReExecution) {
  MapCache cache;
  finder::VerifyOptions options;
  cache.wire(options);

  finder::VerifyReport cold = run_verify(options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cache.entries.size(), world().chains.size());  // all deterministic

  finder::VerifyReport warm = run_verify(options);
  EXPECT_EQ(warm.cache_hits, world().chains.size());
  for (const finder::ChainVerdict& v : warm.verdicts) EXPECT_TRUE(v.from_cache);
  EXPECT_EQ(verdict_text(warm), verdict_text(cold));
  EXPECT_EQ(warm.steps_total, cold.steps_total);  // hits replay their recorded cost
}

TEST_F(VerifyFixture, TransientVerdictsAreNeverCached) {
  MapCache cache;
  finder::VerifyOptions options;
  cache.wire(options);
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // every chain demoted
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.unconfirmed, world().chains.size());
  EXPECT_TRUE(cache.entries.empty());  // crash demotions must not poison warm runs
}

TEST_F(VerifyFixture, ZeroFingerprintDisablesTheCacheEntirely) {
  MapCache cache;
  finder::VerifyOptions options;
  cache.wire(options);
  options.cache_fingerprint = 0;
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(cache.loads, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

TEST_F(VerifyFixture, CacheKeysTrackBudgetsAndChainIdentity) {
  finder::VerifyOptions a, b;
  b.max_steps_per_chain = a.max_steps_per_chain + 1;
  EXPECT_NE(finder::verify_options_fingerprint(a), finder::verify_options_fingerprint(b));
  ASSERT_GE(world().chains.size(), 2u);
  std::uint64_t fp = finder::verify_options_fingerprint(a);
  EXPECT_NE(finder::verdict_key(fp, world().chains[0]), finder::verdict_key(fp, world().chains[1]));
  EXPECT_NE(finder::verdict_key(fp, world().chains[0]),
            finder::verdict_key(fp + 1, world().chains[0]));
}

// --- CLI -------------------------------------------------------------------

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

class VerifyCliFixture : public VerifyFixture {
 protected:
  void SetUp() override {
    VerifyFixture::SetUp();
    dir_ = fs::temp_directory_path() / ("tabby_verify_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_ = (dir_ / "beanshell.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_).ok());
  }

  void TearDown() override {
    fs::remove_all(dir_);
    VerifyFixture::TearDown();
  }

  fs::path dir_;
  std::string jar_;
};

TEST_F(VerifyCliFixture, CliVerifyIsByteIdenticalAtAnyVerifyWorkerCount) {
  CliRun base = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(base.code, 0) << base.err;
  EXPECT_NE(base.out.find("auto-verify: EFFECTIVE"), std::string::npos) << base.out;
  EXPECT_NE(base.out.find("auto-verify: REFUTED"), std::string::npos) << base.out;
  EXPECT_NE(base.out.find("chains confirmed effective"), std::string::npos) << base.out;
  EXPECT_EQ(base.out.find("unconfirmed"), std::string::npos) << base.out;
  for (const char* workers : {"1", "2", "4"}) {
    CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", workers});
    EXPECT_EQ(dist.code, 0) << dist.err;
    EXPECT_EQ(dist.out, base.out) << "verify-workers=" << workers;
    EXPECT_EQ(dist.err, base.err) << "verify-workers=" << workers;
  }
}

TEST_F(VerifyCliFixture, CliVerifyIsByteIdenticalColdVsWarm) {
  // Verify over the frame a cold run freezes in memory matches verify over
  // the cached frame a warm run attaches. The cache holds no verdicts yet,
  // so the warm run re-executes every chain.
  CliRun cold = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(cold.code, 0) << cold.err;
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(run_cli_capture({"find", jar_, "--cache", cache}).code, 0);
  CliRun warm = run_cli_capture({"find", jar_, "--verify", "--cache", cache});
  ASSERT_EQ(warm.code, 0) << warm.err;
  ASSERT_EQ(warm.out.rfind("cache: snapshot hit", 0), 0u) << warm.out;
  EXPECT_EQ(warm.out.substr(warm.out.find('\n') + 1), cold.out);
  EXPECT_EQ(warm.err, cold.err);
}

TEST_F(VerifyCliFixture, CliVerifyAbsorbsACrashByteIdentically) {
  CliRun base = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(base.code, 0) << base.err;
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash", 2);
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2"});
  EXPECT_EQ(dist.code, 0) << dist.err;
  EXPECT_EQ(dist.out, base.out);
  EXPECT_EQ(dist.err, base.err);
}

TEST_F(VerifyCliFixture, CliVerifyRetryExhaustionExitsDegradedWithChainsKept) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2"});
  EXPECT_EQ(dist.code, 3);  // degraded, never a coordinator crash
  EXPECT_NE(dist.out.find("0/"), std::string::npos) << dist.out;
  EXPECT_NE(dist.out.find("unconfirmed"), std::string::npos) << dist.out;
  EXPECT_NE(dist.out.find("auto-verify: UNCONFIRMED(crash)"), std::string::npos) << dist.out;
  EXPECT_NE(dist.err.find("degraded: [verify-crash] "), std::string::npos) << dist.err;
  EXPECT_NE(dist.err.find("; chain kept as UNCONFIRMED"), std::string::npos) << dist.err;
  // The chains themselves stay in the report: same chain count as a clean run.
  util::failpoint::deactivate_all();
  util::failpoint::disarm();
  CliRun clean = run_cli_capture({"find", jar_});
  std::size_t clean_arrows = 0, degraded_arrows = 0;
  for (std::size_t pos = 0; (pos = clean.out.find(" -> ", pos)) != std::string::npos; ++pos)
    ++clean_arrows;
  for (std::size_t pos = 0; (pos = dist.out.find(" -> ", pos)) != std::string::npos; ++pos)
    ++degraded_arrows;
  EXPECT_EQ(degraded_arrows, clean_arrows);
}

TEST_F(VerifyCliFixture, CliStrictPromotesUnconfirmedToFatal) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2", "--strict"});
  EXPECT_EQ(dist.code, 1);
  EXPECT_NE(dist.err.find("error: runtime re-validation left"), std::string::npos) << dist.err;
  EXPECT_NE(dist.err.find("UNCONFIRMED"), std::string::npos) << dist.err;
}

TEST_F(VerifyCliFixture, CliVmFaultChaosDegradesInsteadOfCrashing) {
  // runtime.step fires inside the interpreter loop: the poisoned chain is
  // demoted to UNCONFIRMED(fault); the run survives and says why.
  util::failpoint::arm();
  util::failpoint::activate("runtime.step", 1);
  CliRun run = run_cli_capture({"find", jar_, "--verify"});
  EXPECT_EQ(run.code, 3) << run.err;
  EXPECT_NE(run.out.find("auto-verify: UNCONFIRMED(fault)"), std::string::npos) << run.out;
  EXPECT_NE(run.err.find("degraded: [verify-fault] "), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("interpreter fault injected"), std::string::npos) << run.err;

  // Recovery: the next (disarmed) run is clean again.
  util::failpoint::deactivate_all();
  util::failpoint::disarm();
  CliRun clean = run_cli_capture({"find", jar_, "--verify"});
  EXPECT_EQ(clean.code, 0) << clean.err;
}

TEST_F(VerifyCliFixture, CliWarmVerdictCacheIsByteIdenticalAndAuditable) {
  std::string cache_dir = (dir_ / "cache").string();
  CliRun cold = run_cli_capture({"find", jar_, "--verify", "--cache", cache_dir});
  ASSERT_EQ(cold.code, 0) << cold.err;

  // The deterministic verdicts were published as .tvdt frames.
  fs::path verdicts = fs::path(cache_dir) / "verdicts";
  ASSERT_TRUE(fs::exists(verdicts));
  std::size_t frames = 0;
  for (const auto& entry : fs::directory_iterator(verdicts)) {
    EXPECT_EQ(entry.path().extension(), ".tvdt");
    ++frames;
  }
  EXPECT_GE(frames, 1u);

  // The snapshot-cache header legitimately flips miss -> hit; everything
  // else (chains, verdicts, summary) must not move a byte.
  auto strip_cache_header = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, kept;
    while (std::getline(lines, line)) {
      if (line.rfind("cache: ", 0) == 0) continue;
      kept += line;
      kept += '\n';
    }
    return kept;
  };
  CliRun warm = run_cli_capture({"find", jar_, "--verify", "--cache", cache_dir});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(strip_cache_header(warm.out), strip_cache_header(cold.out));

  // The offline audit knows about verdict frames and reports them healthy.
  CliRun audit = run_cli_capture({"cache", cache_dir});
  EXPECT_EQ(audit.code, 0) << audit.err;
  EXPECT_NE(audit.out.find("verdict(s)"), std::string::npos) << audit.out;
  EXPECT_NE(audit.out.find("0 corrupt"), std::string::npos) << audit.out;
}

// --- serve -----------------------------------------------------------------

class VerifyServeFixture : public VerifyCliFixture {
 protected:
  void TearDown() override {
    stop_daemon();
    VerifyCliFixture::TearDown();
  }

  void start_daemon() {
    static int counter = 0;
    socket_ = "/tmp/tvfy_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
    std::vector<std::string> args{"serve", socket_};
    daemon_ = std::thread([this, args] { daemon_code_ = cli::run_cli(args, daemon_out_, daemon_err_); });
  }

  void stop_daemon() {
    if (!daemon_.joinable()) return;
    run_cli_capture({"client", socket_, "shutdown"});
    daemon_.join();
    EXPECT_EQ(daemon_code_, 0) << daemon_err_.str();
  }

  std::optional<serve::Json> round_trip(const serve::Json& request) {
    auto reply = serve::client_request(socket_, request.dump());
    if (!reply.ok()) {
      ADD_FAILURE() << "client_request failed: " << reply.error().to_string();
      return std::nullopt;
    }
    return serve::Json::parse(reply.value());
  }

  serve::Json verify_request() const {
    serve::Json request = serve::Json::object();
    request.set("op", "find");
    serve::Json jars = serve::Json::array();
    jars.push(serve::Json::string(jar_));
    request.set("classpath", std::move(jars));
    request.set("verify", true);
    return request;
  }

  std::string socket_;
  std::thread daemon_;
  int daemon_code_ = -1;
  std::ostringstream daemon_out_;
  std::ostringstream daemon_err_;
};

TEST_F(VerifyServeFixture, ServeVerifyMatchesOneShotAndSurfacesVerdictCounts) {
  CliRun one_shot = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon();
  auto response = round_trip(verify_request());
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_EQ(response->str("text"), one_shot.out);
  EXPECT_TRUE(response->flag("verified"));
  EXPECT_GE(response->num("effective"), 1.0);
  EXPECT_EQ(response->num("unconfirmed"), 0.0);
  EXPECT_EQ(response->num("effective") + response->num("refuted") + response->num("unconfirmed"),
            static_cast<double>(world().chains.size()));
}

TEST_F(VerifyServeFixture, ServeVerifyExhaustionReportsUnconfirmedChainsStructurally) {
  start_daemon();
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited
  serve::Json request = verify_request();
  request.set("verify_workers", std::int64_t{2});
  auto response = round_trip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");  // degraded, not an error
  EXPECT_TRUE(response->flag("verified"));
  EXPECT_EQ(response->num("effective"), 0.0);
  EXPECT_GE(response->num("unconfirmed"), 1.0);
  std::vector<std::string> lines = response->strings("degraded_lines");
  ASSERT_FALSE(lines.empty());
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("degraded: [verify-crash] ") != std::string::npos &&
        line.find("; chain kept as UNCONFIRMED") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << response->str("text");
}

}  // namespace
}  // namespace tabby
