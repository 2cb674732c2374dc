#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "corpus/components.hpp"
#include "corpus/scenes.hpp"
#include "corpus/stress.hpp"
#include "evalkit/evalkit.hpp"
#include "util/rng.hpp"

namespace perfbench {

using tabby::finder::GadgetChain;

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_update(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  h ^= 0xff;  // item separator
  h *= kFnvPrime;
}

// Planted shape of the fan-out fixture (corpus::FanoutStressSpec defaults).
constexpr int kFanoutHops = 56;

std::string check_fanout(const std::vector<GadgetChain>& chains) {
  if (chains.size() != 1) return "expected 1 chain, got " + std::to_string(chains.size());
  const std::vector<std::string>& sigs = chains.front().signatures;
  std::vector<std::string> want;
  want.push_back("stress.fanout.Entry#readObject/1");
  for (int j = 0; j < kFanoutHops; ++j) {
    want.push_back("stress.fanout.Hop" + std::to_string(j) + "#step/0");
  }
  want.push_back("java.lang.Runtime#exec/1");
  if (sigs != want) return "the chain is not Entry -> Hop0..Hop55 -> Runtime#exec";
  return "";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"jetty-cold", "alias-fanout", "yso-serve"};
  return names;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "jetty-cold") {
    tabby::corpus::Scene scene = tabby::corpus::build_scene("Jetty");
    // jars[0] is the simulated JDK; the engine prefixes its own copy.
    w.archives.assign(std::make_move_iterator(scene.jars.begin() + 1),
                      std::make_move_iterator(scene.jars.end()));
    w.truths = std::move(scene.truths);
    w.shares = {0.45, 0.07, 0.48};
    w.verdicts = {4, 2};
  } else if (name == "alias-fanout") {
    w.archives.push_back(tabby::corpus::fanout_stress_archive());
    w.max_depth = kFanoutHops + 1;
    w.shares = {0.65, 0.10, 0.25};
    w.verdicts = {1, 0};
  } else if (name == "yso-serve") {
    for (const std::string& component : tabby::corpus::component_names()) {
      tabby::corpus::Component c = tabby::corpus::build_component(component);
      w.archives.push_back(std::move(c.jar));
      for (auto& truth : c.truths) w.truths.push_back(std::move(truth));
    }
    w.shares = {0.35, 0.07, 0.58};
    w.verdicts = {53, 26};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<std::size_t> archive_order(std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  tabby::util::Rng rng(seed ^ 0x5eed0a5c11a55ULL);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::vector<std::string> write_classpath(const Workload& workload,
                                         const std::vector<std::size_t>& order,
                                         const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t position = 0; position < order.size(); ++position) {
    char file[32];
    std::snprintf(file, sizeof(file), "%03zu.tjar", position);
    std::filesystem::path path = dir / file;
    auto status = tabby::jar::write_archive_file(workload.archives[order[position]], path);
    if (!status.ok()) throw std::runtime_error("cannot write " + path.string());
    paths.push_back(path.string());
  }
  return paths;
}

const std::vector<QuerySpec>& query_mix() {
  static const std::vector<QuerySpec> mix{
      {"source_to_sink",
       "MATCH p = (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
       "RETURN p"},
      {"backward_to_sink",
       "MATCH (m:Method)-[:CALL*1..4]->(s:Method {IS_SINK: true}) "
       "RETURN m.SIGNATURE, s.SIGNATURE"},
      {"has_alias_join",
       "MATCH (c:Class)-[:HAS]->(m:Method)-[:ALIAS]->(n:Method) "
       "RETURN c.NAME, m.SIGNATURE, n.SIGNATURE"},
      {"call_scan", "MATCH (a:Method)-[:CALL]->(b:Method) RETURN a.SIGNATURE, b.SIGNATURE"},
  };
  return mix;
}

std::vector<Request> request_sequence(std::size_t count, std::uint64_t seed) {
  // Blocks of 20 with a fixed composition (16 find, 1 find + verify, 3
  // Cypher, rotating over the query mix), shuffled within each block, so the
  // seed changes the order but not the mix.
  tabby::util::Rng rng(seed ^ 0x7e90e57ULL);
  std::vector<Request> out;
  const std::size_t queries = query_mix().size();
  for (std::size_t block = 0; out.size() < count; ++block) {
    std::vector<Request> b(16, Request{RequestKind::Find, 0});
    b.push_back(Request{RequestKind::Verify, 0});
    for (std::size_t q = 0; q < 3; ++q) {
      b.push_back(Request{RequestKind::Query, (q + block * 3) % queries});
    }
    for (std::size_t i = b.size(); i > 1; --i) std::swap(b[i - 1], b[rng.next_below(i)]);
    out.insert(out.end(), b.begin(), b.end());
  }
  out.resize(count);
  return out;
}

std::string check_chains(const Workload& workload, const std::vector<GadgetChain>& chains) {
  if (workload.name == "alias-fanout") return check_fanout(chains);
  tabby::evalkit::Classification c = tabby::evalkit::classify(chains, workload.truths);
  if (workload.name == "jetty-cold" && (c.result != 6 || c.known + c.unknown != 4)) {
    return "Table X Jetty row: expected 6 reported / 4 effective, got " +
           std::to_string(c.result) + " / " + std::to_string(c.known + c.unknown);
  }
  if (workload.name == "yso-serve" &&
      (c.result != 79 || c.known != 26 || c.unknown != 27 || c.fake != 26)) {
    return "Table IX TB totals: expected 79 results = 26 known + 27 unknown + 26 fake, got " +
           std::to_string(c.result) + " = " + std::to_string(c.known) + " + " +
           std::to_string(c.unknown) + " + " + std::to_string(c.fake);
  }
  return "";
}

std::string check_verdicts(const Workload& workload, const tabby::finder::VerifyReport& report,
                           std::size_t chain_count) {
  if (report.verdicts.size() != chain_count) return "verify returned the wrong verdict count";
  const VerdictExpectation& want = workload.verdicts;
  if (report.effective != want.effective || report.refuted != want.refuted ||
      report.unconfirmed != 0) {
    return "expected " + std::to_string(want.effective) + " EFFECTIVE / " +
           std::to_string(want.refuted) + " REFUTED / 0 UNCONFIRMED, got " +
           std::to_string(report.effective) + " / " + std::to_string(report.refuted) + " / " +
           std::to_string(report.unconfirmed);
  }
  return "";
}

std::uint64_t chain_set_digest(const std::vector<GadgetChain>& chains) {
  std::vector<std::string> keys;
  keys.reserve(chains.size());
  for (const GadgetChain& chain : chains) keys.push_back(chain.key());
  std::sort(keys.begin(), keys.end());
  return digest_strings(keys);
}

std::uint64_t digest_strings(const std::vector<std::string>& items) {
  std::uint64_t h = kFnvBasis;
  for (const std::string& item : items) fnv_update(h, item);
  return h;
}

}  // namespace perfbench
