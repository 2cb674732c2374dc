#include "pipeline/pipeline.hpp"

#include <exception>
#include <filesystem>
#include <utility>

#include "corpus/jdk.hpp"
#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"

namespace tabby::pipeline {

namespace {

/// Maps a builder-level deadline cut into the run's degradation report.
/// Strict policy turns it into the error the caller returns; quarantine
/// records it and keeps the (structurally valid, incomplete) CPG.
util::Status absorb_build_cut(const cpg::Cpg& cpg, FailurePolicy policy, Outcome& outcome) {
  if (!cpg.deadline_hit) return util::Status::ok_status();
  if (policy != FailurePolicy::kQuarantine) {
    return util::Error{"deadline exceeded during CPG construction"};
  }
  outcome.degradation.deadline_hit = true;
  if (cpg.methods_skipped > 0) {
    outcome.degradation.add("cpg-build", "deadline",
                            std::to_string(cpg.methods_skipped) +
                                " method(s) left unsummarised by the deadline cut");
  }
  return util::Status::ok_status();
}

/// Freezes a CPG store into the CSR frame every request reads. The store
/// is only the freeze's input; the caller drops it afterwards. A failed
/// freeze (an injected graph.freeze fault, a graph past the dense 32-bit id
/// space) is a run error: there is no other graph to serve.
util::Status freeze_into(const graph::GraphDb& db, std::uint64_t content_key,
                         util::MemoryBudget* memory, Outcome& outcome) {
  obs::Span span("graph.freeze");
  auto frozen = graph::FrozenGraph::freeze(db, content_key, memory);
  if (!frozen.ok()) return util::Error{"graph freeze failed: " + frozen.error().message};
  if (span.active()) {
    span.attr("nodes", static_cast<std::uint64_t>(frozen.value().node_count()));
    span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
  }
  outcome.frozen = std::move(frozen.value());
  return util::Status::ok_status();
}

/// Cold back half shared by both run() overloads: build the CPG into `db`
/// (the freeze's input) and, when asked, the store bytes.
util::Status build_into(const jir::Program& program, FailurePolicy policy,
                        const cpg::CpgOptions& cpg_options, bool with_bytes, graph::GraphDb& db,
                        Outcome& outcome) {
  cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
  util::Status cut = absorb_build_cut(cpg, policy, outcome);
  if (!cut.ok()) return cut;
  db = std::move(cpg.db);
  outcome.stats = cpg.stats;
  if (with_bytes) {
    TABBY_SPAN("graph.serialize");
    outcome.graph_bytes = graph::serialize(db);
  }
  return util::Status::ok_status();
}

/// Renders the unit label for a partially-salvaged archive: which classes
/// survived out of how many the header declared.
std::string salvage_unit(const std::string& path, const jar::DecodeDegradation& degradation) {
  return path + " [kept " + std::to_string(degradation.classes_kept) + "/" +
         std::to_string(degradation.classes_kept + degradation.classes_dropped) + " classes]";
}

}  // namespace

std::uint64_t jdk_digest() {
  // The simulated JDK's digest stays FNV-1a: the benchmark's traced pass
  // (perfbench/) recomputes classpath keys with util::fnv1a over this
  // archive, and its resident opens must hit the snapshots it publishes.
  static const std::uint64_t digest = util::fnv1a(jar::write_archive(corpus::jdk_base_archive()));
  return digest;
}

ClasspathKey classpath_key(const std::vector<std::string>& jar_paths, bool with_jdk,
                           std::uint64_t options_fp) {
  obs::Span span("cache.digest");
  span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));
  ClasspathKey out;
  std::vector<std::uint64_t> digests;
  digests.reserve(jar_paths.size() + 1);
  if (with_jdk) digests.push_back(jdk_digest());
  for (const std::string& path : jar_paths) {
    auto digest = cache::AnalysisCache::digest_file(path);
    if (!digest.ok()) {
      out.unreadable.emplace_back(path, digest.error());
      continue;
    }
    out.digested.push_back(path);
    digests.push_back(digest.value());
  }
  out.key = cache::AnalysisCache::snapshot_key(options_fp, digests);
  return out;
}

namespace {

/// Publishes a freshly frozen frame next to its snapshot; a failed publish
/// is a warning, never a run failure.
void publish_frozen(cache::AnalysisCache& cache, std::uint64_t key, Outcome& outcome) {
  auto stored = cache.store_frozen(key, *outcome.frozen);
  if (!stored.ok()) {
    outcome.warnings.push_back(stored.error().to_string() +
                               " (continuing without frozen snapshot)");
  }
}

util::Result<Outcome> run_impl(const std::vector<std::string>& jar_paths, const Options& options,
                               const ClasspathKey& keyed) {
  obs::Span span("pipeline.run");
  span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));

  const bool quarantine = options.policy == FailurePolicy::kQuarantine;
  util::Deadline run_deadline = options.deadline;
  run_deadline.bind(options.cancel);
  util::Deadline load_deadline = run_deadline.tightened(options.load_deadline);

  cpg::CpgOptions cpg_options = options.cpg;
  cpg_options.executor = options.executor;
  // The builder polls the run deadline between payload batches (folded with
  // any build deadline the caller set directly) and charges its transient
  // batches to the run ledger.
  cpg_options.deadline = run_deadline.tightened(cpg_options.deadline);
  if (cpg_options.memory == nullptr) cpg_options.memory = options.memory;
  Outcome outcome;

  // Cold front half, the same with or without a cache: parallel decode and
  // link, then (unless the deadline already expired) the CPG build. Both
  // paths therefore degrade on exactly the same inputs.
  std::optional<jir::Program> program;
  auto load = [&]() -> util::Status {
    auto loaded = load_program(jar_paths, options.with_jdk, options.executor, options.policy,
                               &outcome.degradation, load_deadline);
    if (!loaded.ok()) return loaded.error();
    program = std::move(loaded.value());
    return util::Status::ok_status();
  };
  bool built = false;  // false: the deadline expired before the CPG build
  graph::GraphDb db;   // the built store: only the freeze reads it
  auto build_cold = [&](bool with_bytes) -> util::Status {
    util::Status status = load();
    if (!status.ok()) return status;
    if (run_deadline.expired()) {
      if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
      outcome.degradation.deadline_hit = true;
      return util::Status::ok_status();
    }
    built = true;
    return build_into(*program, options.policy, cpg_options, with_bytes, db, outcome);
  };
  auto finish = [&]() {
    if (options.need_program) outcome.program = std::move(program);
    return std::move(outcome);
  };

  if (options.cache_dir.empty()) {
    // A run cut before the build freezes the empty store.
    util::Status status = build_cold(options.need_graph_bytes);
    if (status.ok()) status = freeze_into(db, /*content_key=*/0, options.memory, outcome);
    if (!status.ok()) return status.error();
    return finish();
  }

  // A cache that cannot be opened is an infrastructure fault, not a broken
  // input unit: fatal under both policies (the caller asked for caching and
  // would otherwise silently lose it).
  auto opened = cache::AnalysisCache::open(options.cache_dir);
  if (!opened.ok()) return opened.error();
  cache::AnalysisCache& cache = opened.value();
  cache.set_memory(options.memory);

  // An undigestable archive is not in the snapshot key. Strict fails on it;
  // quarantine looks up the snapshot of the surviving classpath (the key
  // covers exactly those archives) and records the loss below.
  if (!keyed.unreadable.empty()) {
    const auto& [path, error] = keyed.unreadable.front();
    util::Error loss{path + ": " + error.message};
    if (!quarantine || keyed.digested.empty()) return loss;
  }
  const std::uint64_t key = keyed.key;

  // Frame-first warm start: mmap the cached CSR frame when one matches. The
  // sibling .tsnp stays the source of truth — a frame hit still requires it
  // intact (stats + the exact store bytes), but lets load_snapshot skip the
  // graph decode. A missing or corrupt frame makes the snapshot decode its
  // store to re-freeze; a frame without an intact snapshot is an orphan and
  // is ignored.
  std::string corrupt_reason;
  std::optional<graph::FrozenGraph> warm_frozen = cache.load_frozen(key, &corrupt_reason);
  if (!corrupt_reason.empty()) {
    outcome.warnings.push_back("cached frozen graph rejected: " + corrupt_reason +
                               " (re-freezing from the graph store)");
  }
  std::optional<cache::CachedCpg> snapshot =
      cache.load_snapshot(key, /*need_db=*/!warm_frozen.has_value());
  outcome.cache_line = cache.stats().to_line();

  if (!snapshot.has_value()) {
    util::Status status = build_cold(/*with_bytes=*/true);
    if (!status.ok()) return status.error();
    bool snapshot_published = false;
    if (built && (outcome.degradation.degraded() || !keyed.unreadable.empty())) {
      // Never publish a degraded CPG: the snapshot key describes the
      // on-disk classpath, and a later repaired run with the same bytes
      // must not warm-start from the holes.
      outcome.warnings.push_back("snapshot not published (degraded run)");
    } else if (built) {
      auto stored = cache.store_snapshot(key, outcome.stats, outcome.graph_bytes);
      if (stored.ok()) {
        snapshot_published = true;
      } else {
        outcome.warnings.push_back(stored.error().to_string() + " (continuing without snapshot)");
      }
    }
    // The frame is only ever published next to its intact snapshot (a
    // companion-less .tfzn is an orphan the warm path would ignore anyway).
    status = freeze_into(db, key, options.memory, outcome);
    if (!status.ok()) return status.error();
    if (snapshot_published) publish_frozen(cache, key, outcome);
    return finish();
  }

  if (options.need_program) {
    // The snapshot has the graph; only the program is loaded (and linked).
    util::Status status = load();
    if (!status.ok()) return status.error();
  } else {
    // Nothing is read, so the undigestable archives are recorded here.
    for (const auto& [path, error] : keyed.unreadable) {
      outcome.degradation.add(path, "fs-read", error.message);
      obs::counter_add("pipeline.units_quarantined");
    }
  }
  outcome.stats = snapshot->stats;
  outcome.graph_bytes = std::move(snapshot->graph_bytes);
  outcome.warm = true;
  if (warm_frozen.has_value()) {
    outcome.frozen = std::move(warm_frozen);
  } else {
    // The frame was absent or corrupt: re-freeze from the decoded store and
    // republish so the cache self-heals. The freeze reads only the elements
    // and the cardinality counts, so the property indexes are not rebuilt.
    util::Status status = freeze_into(snapshot->db, key, options.memory, outcome);
    if (!status.ok()) return status.error();
    publish_frozen(cache, key, outcome);
  }
  return finish();
}

}  // namespace

std::string DegradedUnit::to_string() const {
  std::string out = "degraded: [" + stage + "] " + unit + ": " + error;
  if (bytes_skipped > 0) out += " (" + std::to_string(bytes_skipped) + " byte(s) skipped)";
  return out;
}

std::string DegradationReport::to_string() const {
  std::string out;
  for (const DegradedUnit& u : units) {
    out += u.to_string();
    out += '\n';
  }
  if (deadline_hit) out += "degraded: deadline exceeded; remaining work was skipped\n";
  if (partial_sinks > 0) {
    out += "degraded: " + std::to_string(partial_sinks) + " sink search(es) cut short\n";
  }
  if (frontier_pruned > 0) {
    out += "degraded: memory budget pressure; " + std::to_string(frontier_pruned) +
           " frontier branch(es) pruned\n";
  }
  if (unconfirmed_chains > 0) {
    out += "degraded: " + std::to_string(unconfirmed_chains) +
           " chain(s) left UNCONFIRMED by runtime re-validation\n";
  }
  return out;
}

std::unique_ptr<util::ThreadPool> make_pool(int jobs) {
  unsigned n = jobs > 0 ? static_cast<unsigned>(jobs) : util::ThreadPool::default_jobs();
  if (n <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(n);
}

util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor, FailurePolicy policy,
                                        DegradationReport* degradation,
                                        const util::Deadline& deadline) {
  TABBY_SPAN("pipeline.load_program");
  std::vector<jar::Archive> classpath;
  if (with_jdk) classpath.push_back(corpus::jdk_base_archive());
  std::vector<std::filesystem::path> files(paths.begin(), paths.end());

  if (policy == FailurePolicy::kStrict) {
    if (deadline.expired()) return util::Error{"deadline exceeded before classpath load"};
    std::vector<util::Result<jar::Archive>> archives = jar::read_archive_files(files, executor);
    for (std::size_t i = 0; i < archives.size(); ++i) {
      if (!archives[i].ok()) {
        return util::Error{paths[i] + ": " + archives[i].error().message,
                           archives[i].error().location};
      }
      classpath.push_back(std::move(archives[i].value()));
    }
    return jar::link(classpath);
  }

  DegradationReport local;
  DegradationReport& report = degradation != nullptr ? *degradation : local;
  std::vector<jar::SalvagedFile> salvaged = jar::read_archive_files_salvage(files, executor,
                                                                           deadline);
  std::size_t survivors = 0;
  std::optional<util::Error> first_loss;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < salvaged.size(); ++i) {
    jar::SalvagedFile& file = salvaged[i];
    if (file.read_error.has_value()) {
      report.add(paths[i], file.deadline_skipped ? "deadline" : "fs-read",
                 file.read_error->message);
      if (file.deadline_skipped) {
        // Deadline skips are degradation, never "garbage input": they must
        // not trip the nothing-survived fatal below.
        report.deadline_hit = true;
      } else {
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.read_error->message};
        }
      }
      continue;
    }
    if (file.degradation.error.has_value()) {
      if (file.archive.classes.empty()) {
        // Nothing salvageable: header or string-pool corruption.
        report.add(paths[i], "archive-decode", file.degradation.error->message,
                   file.degradation.bytes_skipped);
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.degradation.error->message};
        }
        continue;
      }
      report.add(salvage_unit(paths[i], file.degradation), "class-decode",
                 file.degradation.error->message, file.degradation.bytes_skipped);
      ++quarantined;
    }
    ++survivors;
    classpath.push_back(std::move(file.archive));
  }
  if (quarantined > 0) obs::counter_add("pipeline.units_quarantined", quarantined);
  if (!paths.empty() && survivors == 0 && first_loss.has_value()) {
    // Quarantine never silently answers "no chains" for a classpath that is
    // entirely garbage — when nothing survives, the run fails like strict.
    return *first_loss;
  }
  return jar::link(classpath);
}

util::Result<Outcome> run(const std::vector<std::string>& jar_paths, const Options& options,
                          const ClasspathKey& keyed) {
  // The fail-soft contract is "structured Result, never a crash": stray
  // exceptions (worker-task faults surfaced by Executor::parallel_for,
  // injected pool.task failpoints) become errors here instead of
  // unwinding through the CLI.
  try {
    return run_impl(jar_paths, options, keyed);
  } catch (const std::exception& e) {
    return util::Error{std::string("pipeline: unhandled exception: ") + e.what()};
  }
}

util::Result<Outcome> run(const std::vector<std::string>& jar_paths, const Options& options) {
  // Only the snapshot lookup reads the key.
  if (options.cache_dir.empty()) return run(jar_paths, options, ClasspathKey{});
  return run(jar_paths, options,
             classpath_key(jar_paths, options.with_jdk, cpg::options_fingerprint(options.cpg)));
}

util::Result<Outcome> run(const jir::Program& program, const Options& options) {
  obs::Span span("pipeline.run");
  cpg::CpgOptions cpg_options = options.cpg;
  cpg_options.executor = options.executor;
  cpg_options.deadline = options.deadline.tightened(cpg_options.deadline);
  if (cpg_options.memory == nullptr) cpg_options.memory = options.memory;
  Outcome outcome;
  graph::GraphDb db;
  // A deadline cut is always absorbed as degradation regardless of policy.
  (void)build_into(program, FailurePolicy::kQuarantine, cpg_options, options.need_graph_bytes, db,
                   outcome);
  util::Status frozen = freeze_into(db, /*content_key=*/0, options.memory, outcome);
  if (!frozen.ok()) return frozen.error();
  if (options.need_program) outcome.program = program;
  return outcome;
}

}  // namespace tabby::pipeline
