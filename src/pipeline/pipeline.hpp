// The pipeline's shared vocabulary: what one Engine::open produces (Outcome),
// how a fail-soft run reports what it dropped (FailurePolicy,
// DegradationReport), and the stage functions the engine composes — the
// worker pool behind --jobs, classpath loading, and the classpath key the
// snapshot cache and the resident set share. Turning a classpath or a linked
// program into an Outcome is pipeline::Engine's job (pipeline/engine.hpp,
// docs/SERVING.md): it is the one way in for the CLI, the `tabby serve`
// daemon, the examples and embedding code.
//
// Errors are structured (util::Result), never pre-formatted text on a
// stream: callers decide how to render them. Everything here is observable
// via src/obs — an open is wrapped in a "pipeline.run" span and each stage
// records its own spans and counters (see docs/OBSERVABILITY.md).
//
// Failure handling is policy-driven (docs/ROBUSTNESS.md): under the strict
// policy any malformed input fails the run; under quarantine, broken units
// (archives, class records, cache entries) are recorded in a structured
// DegradationReport and analysis continues with the surviving program —
// the CPG builder and finder already tolerate the resulting holes via
// phantom nodes. Wall-clock budgets and cancellation (ExecContext) are
// cooperative: stages poll at unit boundaries and report what they skipped.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "jir/model.hpp"
#include "util/deadline.hpp"
#include "util/memory_budget.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace tabby::pipeline {

/// What a stage does when one input unit is broken.
enum class FailurePolicy {
  /// Fail the whole run on the first malformed unit (the library default:
  /// embedding callers must opt into partial answers).
  kStrict,
  /// Record the unit in the DegradationReport, drop it, and continue with
  /// the surviving program. The run only fails when nothing survives.
  kQuarantine,
};

/// One quarantined unit: what broke, where, and how much input was lost.
struct DegradedUnit {
  std::string unit;   // archive path, "path [classes i..)", sink signature
  std::string stage;  // "fs-read" | "archive-decode" | "class-decode" | "deadline" | ...
  std::string error;  // the underlying structured error, rendered
  std::size_t bytes_skipped = 0;

  std::string to_string() const;
};

/// Everything a fail-soft run degraded on. Empty report = clean run. The
/// CLI maps a non-empty report to exit code 3 (completed with degradation).
struct DegradationReport {
  std::vector<DegradedUnit> units;
  /// The run observed an expired deadline and skipped remaining work.
  bool deadline_hit = false;
  /// Finder sinks cut short by the deadline or memory pressure. An open
  /// stops at the CPG and leaves this 0; Analysis::find (pipeline/engine.hpp)
  /// fills it from the finder report for every entry point.
  std::size_t partial_sinks = 0;
  /// Frontier branches the finder pruned to stay under its byte budget
  /// (> 0 implies MemoryPressure partials). Same ownership as
  /// partial_sinks: populated by Analysis::find, not by an open.
  std::size_t frontier_pruned = 0;
  /// Chains the verify post-pass left UNCONFIRMED (budget / timeout / crash /
  /// fault — the chain is kept, the run degrades). Same ownership as
  /// partial_sinks: populated by Analysis::find under --verify.
  std::size_t unconfirmed_chains = 0;

  bool degraded() const {
    return !units.empty() || deadline_hit || partial_sinks > 0 || frontier_pruned > 0 ||
           unconfirmed_chains > 0;
  }
  void add(std::string unit, std::string stage, std::string error, std::size_t bytes_skipped = 0) {
    units.push_back({std::move(unit), std::move(stage), std::move(error), bytes_skipped});
  }
  /// One "degraded: ..." line per unit plus a summary line; empty string
  /// for a clean report.
  std::string to_string() const;
};

/// The CPG for one Engine::open, however it was obtained (cold build or
/// cache snapshot) — the library-level equivalent of one analyze/find/query
/// front half. The graph is the frozen CSR frame (docs/GRAPH.md): a
/// cold run builds the mutable store, freezes it and drops it; a warm run
/// mmaps the cached frame and decodes the store only to re-freeze a frame
/// that is missing or corrupt.
struct Outcome {
  cpg::CpgStats stats;
  /// The graph every finder, cypher and verify request reads. Engaged on
  /// every successful run (a quarantine run cut by the deadline before the
  /// build holds the frozen empty graph).
  std::optional<graph::FrozenGraph> frozen;
  /// graph::serialize of the built store, the exact bytes `--store` writes
  /// (for a run cut before the build, the empty store's). Present on every
  /// cache run and whenever OpenOptions::need_graph_bytes was set.
  std::vector<std::byte> graph_bytes;
  /// The linked program, when OpenOptions::need_program was set.
  std::optional<jir::Program> program;
  /// True when the CPG came from a cache snapshot rather than a cold build.
  bool warm = false;
  /// The "cache:" stats line; empty when no cache was used.
  std::string cache_line;
  /// Non-fatal degradations (e.g. a snapshot publish that failed on a
  /// read-only cache directory), one message each. The run still succeeded.
  std::vector<std::string> warnings;
  /// What quarantine mode dropped or skipped; empty on a clean run. Always
  /// empty under the strict policy (strict turns degradation into errors).
  DegradationReport degradation;
};

/// The worker pool behind a --jobs-style count. Returns null for an
/// effective job count of 1: every stage treats a null Executor* as "run
/// inline in index order", which is exactly the serial pipeline. `jobs` <= 0
/// means the hardware default.
std::unique_ptr<util::ThreadPool> make_pool(int jobs);

/// Reads .tjar files and links them into one closed-world program,
/// optionally prefixing the simulated JDK. The error identifies the
/// offending path. Under FailurePolicy::kQuarantine, malformed archives
/// and corrupt class records are recorded into `degradation` (when given)
/// and the surviving classes are linked instead; the call only fails when
/// every user archive is lost. `deadline` bounds the load cooperatively:
/// archives whose decode has not started at expiry are skipped (and
/// recorded / failed per the policy).
util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor = nullptr,
                                        FailurePolicy policy = FailurePolicy::kStrict,
                                        DegradationReport* degradation = nullptr,
                                        const util::Deadline& deadline = {});

/// Content digest of the simulated JDK archive, the first digest folded
/// into every classpath key that includes the JDK. Computed once per
/// process: the archive is a fixed model, so rebuilding and re-serializing
/// it on every open would only repeat the same bytes.
std::uint64_t jdk_digest();

/// A classpath's snapshot-cache key and the archives it covers.
struct ClasspathKey {
  /// AnalysisCache::snapshot_key over the options fingerprint, the JDK's
  /// digest (when included) and every readable archive's digest, in
  /// classpath order.
  std::uint64_t key = 0;
  /// The archives whose digest is in `key`, in classpath order.
  std::vector<std::string> digested;
  /// The archives that could not be read, with why, in classpath order.
  std::vector<std::pair<std::string, util::Error>> unreadable;
};

/// The one classpath-key computation behind Engine::open's resident and
/// snapshot lookups: one read and digest of every archive
/// (span "cache.digest"). Unreadable archives are left out of the key and
/// listed; each caller decides what an unreadable archive means.
ClasspathKey classpath_key(const std::vector<std::string>& jar_paths, bool with_jdk,
                           std::uint64_t options_fp);

}  // namespace tabby::pipeline
