// Benchmark inputs: the three workloads, their seeded classpath order, the
// resident request mix, and the reference each output is checked against.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "corpus/groundtruth.hpp"
#include "finder/finder.hpp"
#include "finder/verify.hpp"
#include "jar/archive.hpp"

namespace perfbench {

/// Share of the measured seconds each timed phase gets. The phase a
/// workload is chosen for gets most of the time; the others still run so
/// every end-to-end metric is measured on every workload.
struct PhaseShares {
  double cold = 0.0;
  double warm = 0.0;
  double resident = 0.0;
};

/// One resident Cypher request kind of the query mix.
struct QuerySpec {
  std::string name;
  std::string text;
};

/// Expected verify-post-pass outcome (UNCONFIRMED must always be 0).
struct VerdictExpectation {
  std::size_t effective = 0;
  std::size_t refuted = 0;
};

struct Workload {
  std::string name;
  /// User archives in canonical order (the simulated JDK is prefixed by the
  /// engine and always stays first).
  std::vector<tabby::jar::Archive> archives;
  /// Planted truths of the classpath (empty for the stress fixture).
  std::vector<tabby::corpus::GroundTruthChain> truths;
  int max_depth = 12;
  PhaseShares shares;
  VerdictExpectation verdicts;
};

/// Builds the named workload; throws std::invalid_argument for an unknown
/// name. Every workload is a pure function of its name.
Workload make_workload(const std::string& name);

const std::vector<std::string>& workload_names();

/// The seeded classpath order: a Fisher-Yates permutation of the user
/// archives. Reordering archives leaves the chain set unchanged.
std::vector<std::size_t> archive_order(std::size_t count, std::uint64_t seed);

/// Writes the archives in `order` under `dir` as 000.tjar, 001.tjar, ...
/// and returns the paths in classpath order.
std::vector<std::string> write_classpath(const Workload& workload,
                                         const std::vector<std::size_t>& order,
                                         const std::filesystem::path& dir);

/// The resident query mix (RQ4 source->sink paths, backward reachability to
/// sinks, a HAS/ALIAS join and a full CALL scan).
const std::vector<QuerySpec>& query_mix();

/// Resident request kinds of the closed loop.
enum class RequestKind { Find, Verify, Query };

struct Request {
  RequestKind kind = RequestKind::Find;
  std::size_t query = 0;  // index into query_mix() for Query requests
};

/// The seeded closed-loop request sequence: 80% find, 5% find + verify and
/// 15% Cypher spread evenly over the query mix, in shuffled blocks of 20.
std::vector<Request> request_sequence(std::size_t count, std::uint64_t seed);

/// Checks a finder result against the workload's independent reference:
/// classification against the planted truths (jetty-cold: 6 reported, 4
/// effective, Table X; yso-serve: 79 = 26 known + 27 unknown + 26 fake, the
/// Table IX TB totals) or the one planted fan-out chain (alias-fanout).
/// Returns an empty string when the chains are right, else the reason.
std::string check_chains(const Workload& workload,
                         const std::vector<tabby::finder::GadgetChain>& chains);

/// Checks a verify post-pass against the workload's expected verdicts and
/// the "no UNCONFIRMED" rule. Empty string when right.
std::string check_verdicts(const Workload& workload, const tabby::finder::VerifyReport& report,
                           std::size_t chain_count);

/// Order-independent digest of a chain set (sorted chain keys).
std::uint64_t chain_set_digest(const std::vector<tabby::finder::GadgetChain>& chains);

/// Order-sensitive digest of rendered strings (query rows, verdict lists).
std::uint64_t digest_strings(const std::vector<std::string>& items);

}  // namespace perfbench
