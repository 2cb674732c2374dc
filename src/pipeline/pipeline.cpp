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
#include "util/fs.hpp"

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

/// Freezes the built (or decoded) CPG into the immutable CSR when
/// Options::use_frozen asks for it. Fail-soft: a freeze failure (a graph too
/// large for the dense id space, an injected graph.freeze fault) leaves the
/// store-backed db in charge with a warning — never a run failure.
void freeze_outcome(const Options& options, std::uint64_t content_key, Outcome& outcome) {
  if (!options.use_frozen) return;
  obs::Span span("graph.freeze");
  auto frozen = graph::FrozenGraph::freeze(outcome.db, content_key, options.memory);
  if (!frozen.ok()) {
    obs::counter_add("graph.freeze_failures");
    outcome.warnings.push_back("graph freeze failed: " + frozen.error().message +
                               " (continuing with the store-backed graph)");
    return;
  }
  if (span.active()) {
    span.attr("nodes", static_cast<std::uint64_t>(frozen.value().node_count()));
    span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
  }
  outcome.frozen = std::move(frozen.value());
}

/// Cold back half shared by both run() overloads: build the CPG and, when
/// asked, the store bytes.
util::Status build_into(const jir::Program& program, const Options& options,
                        cpg::CpgOptions cpg_options, Outcome& outcome) {
  cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
  util::Status cut = absorb_build_cut(cpg, options.policy, outcome);
  if (!cut.ok()) return cut;
  outcome.db = std::move(cpg.db);
  outcome.stats = cpg.stats;
  if (options.need_graph_bytes) {
    TABBY_SPAN("graph.serialize");
    outcome.graph_bytes = graph::serialize(outcome.db);
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

util::Result<Outcome> run_impl(const std::vector<std::string>& jar_paths, const Options& options) {
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

  if (options.cache_dir.empty()) {
    auto program = load_program(jar_paths, options.with_jdk, options.executor, options.policy,
                                &outcome.degradation, load_deadline);
    if (!program.ok()) return program.error();
    if (run_deadline.expired()) {
      if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
      outcome.degradation.deadline_hit = true;
      if (options.need_program) outcome.program = std::move(program.value());
      return outcome;
    }
    util::Status built = build_into(program.value(), options, cpg_options, outcome);
    if (!built.ok()) return built.error();
    freeze_outcome(options, /*content_key=*/0, outcome);
    if (options.need_program) outcome.program = std::move(program.value());
    return outcome;
  }

  // A cache that cannot be opened is an infrastructure fault, not a broken
  // input unit: fatal under both policies (the caller asked for caching and
  // would otherwise silently lose it).
  auto opened = cache::AnalysisCache::open(options.cache_dir);
  if (!opened.ok()) return opened.error();
  cache::AnalysisCache& cache = opened.value();
  cache.set_memory(options.memory);

  // Classpath digests in link order: the simulated JDK (when included) is
  // part of the analyzed world, so its content is part of the key. Under
  // quarantine an unreadable archive is dropped here (stage "fs-read") so
  // the snapshot key covers exactly the surviving classpath.
  ClasspathKey keyed =
      classpath_key(jar_paths, options.with_jdk, cpg::options_fingerprint(cpg_options));
  std::optional<util::Error> first_loss;
  for (const auto& [path, error] : keyed.unreadable) {
    util::Error loss{path + ": " + error.message};
    if (!quarantine) return loss;
    outcome.degradation.add(path, "fs-read", error.message);
    obs::counter_add("pipeline.units_quarantined");
    if (!first_loss.has_value()) first_loss = std::move(loss);
  }
  if (quarantine && !jar_paths.empty() && keyed.digested.empty()) {
    return first_loss.value_or(util::Error{"no archive on the classpath survived quarantine"});
  }
  const std::vector<std::string>& surviving = keyed.digested;
  const std::uint64_t key = keyed.key;

  // Frozen-first warm start: mmap the cached CSR frame when one matches.
  // The sibling .tsnp stays the source of truth — a frozen hit still
  // requires it intact (stats + the exact store bytes), but lets
  // load_snapshot skip the expensive graph decode. A corrupt frame is a
  // structured degradation, then the store path proceeds as if no frame
  // existed; a frame without an intact snapshot is an orphan and is ignored.
  std::optional<graph::FrozenGraph> warm_frozen;
  if (options.use_frozen) {
    std::string corrupt_reason;
    auto frozen = cache.load_frozen(key, &corrupt_reason);
    if (frozen.has_value() && !frozen->stats().has_value()) {
      // A frame from before the planner-stats section still attaches, but
      // queries over it would plan with fallback estimates. Treat it like a
      // miss: the store path below re-freezes (now with stats) and
      // republishes, upgrading the cache in place.
      outcome.warnings.push_back(
          "cached frozen graph predates cardinality stats (re-freezing to upgrade)");
      frozen.reset();
    }
    if (frozen.has_value()) {
      warm_frozen = std::move(frozen);
    } else if (!corrupt_reason.empty()) {
      outcome.warnings.push_back("cached frozen graph rejected: " + corrupt_reason +
                                 " (falling back to the graph store)");
    }
  }
  std::optional<cache::CachedCpg> snapshot =
      cache.load_snapshot(key, /*need_db=*/!warm_frozen.has_value());
  if (!snapshot.has_value()) warm_frozen.reset();
  if (!snapshot.has_value() || options.need_program) {
    // Load the program through per-archive fragments: unchanged archives
    // warm-start, only changed ones are re-decoded from the original bytes.
    // Under quarantine a fragment/decode failure falls back to a fail-soft
    // re-decode of the raw bytes, so the warm path degrades on exactly the
    // same inputs the cold path would.
    std::vector<jar::Archive> classpath;
    if (options.with_jdk) classpath.push_back(corpus::jdk_base_archive());
    std::size_t user_loaded = 0;
    for (const std::string& path : surviving) {
      if (load_deadline.expired()) {
        if (!quarantine) return util::Error{"deadline exceeded before loading " + path};
        outcome.degradation.add(path, "deadline", "deadline exceeded before loading archive");
        outcome.degradation.deadline_hit = true;
        continue;
      }
      auto loaded = cache.load_archive(path);
      if (loaded.ok()) {
        classpath.push_back(std::move(loaded.value().archive));
        ++user_loaded;
        continue;
      }
      if (!quarantine) return util::Error{path + ": " + loaded.error().message};
      if (!first_loss.has_value()) first_loss = util::Error{path + ": " + loaded.error().message};
      auto bytes = util::read_file(path);
      if (!bytes.ok()) {
        outcome.degradation.add(path, "fs-read", bytes.error().message);
        obs::counter_add("pipeline.units_quarantined");
        continue;
      }
      jar::DecodeDegradation degradation;
      jar::Archive salvaged = jar::read_archive_salvage(bytes.value(), degradation);
      if (!degradation.error.has_value()) {
        // The cached fragment failed but the raw bytes decode cleanly (a
        // transient fault): the archive is recovered intact, nothing to
        // quarantine.
        classpath.push_back(std::move(salvaged));
        ++user_loaded;
        continue;
      }
      if (salvaged.classes.empty()) {
        outcome.degradation.add(path, "archive-decode",
                                degradation.error.has_value() ? degradation.error->message
                                                              : loaded.error().message,
                                degradation.bytes_skipped);
        obs::counter_add("pipeline.units_quarantined");
        continue;
      }
      outcome.degradation.add(salvage_unit(path, degradation), "class-decode",
                              degradation.error->message, degradation.bytes_skipped);
      obs::counter_add("pipeline.units_quarantined");
      classpath.push_back(std::move(salvaged));
      ++user_loaded;
    }
    if (quarantine && !jar_paths.empty() && user_loaded == 0 &&
        !outcome.degradation.deadline_hit && first_loss.has_value()) {
      // Same rule as the cold path: a classpath that is entirely garbage is
      // a fatal error, not a quietly empty analysis.
      return *first_loss;
    }
    jir::Program program = jar::link(classpath);
    if (!snapshot.has_value()) {
      if (run_deadline.expired()) {
        if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
        outcome.degradation.deadline_hit = true;
        if (options.need_program) outcome.program = std::move(program);
        outcome.cache_line = cache.stats().to_line();
        return outcome;
      }
      cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
      util::Status cut = absorb_build_cut(cpg, options.policy, outcome);
      if (!cut.ok()) return cut.error();
      outcome.db = std::move(cpg.db);
      outcome.stats = cpg.stats;
      {
        TABBY_SPAN("graph.serialize");
        outcome.graph_bytes = graph::serialize(outcome.db);
      }
      bool snapshot_published = false;
      if (outcome.degradation.degraded()) {
        // Never publish a degraded CPG: the snapshot key describes the
        // on-disk classpath, and a later repaired run with the same bytes
        // must not warm-start from the holes.
        outcome.warnings.push_back("snapshot not published (degraded run)");
      } else {
        auto stored = cache.store_snapshot(key, outcome.stats, outcome.graph_bytes);
        if (!stored.ok()) {
          outcome.warnings.push_back(stored.error().to_string() +
                                     " (continuing without snapshot)");
        } else {
          snapshot_published = true;
        }
      }
      // Freeze after the store publish so the frame is only ever published
      // next to its intact snapshot (a companion-less .tfzn is an orphan the
      // warm path would ignore anyway).
      freeze_outcome(options, key, outcome);
      if (outcome.frozen.has_value() && snapshot_published) {
        auto stored_frozen = cache.store_frozen(key, *outcome.frozen);
        if (!stored_frozen.ok()) {
          outcome.warnings.push_back(stored_frozen.error().to_string() +
                                     " (continuing without frozen snapshot)");
        }
      }
    }
    if (options.need_program) outcome.program = std::move(program);
  }
  if (snapshot.has_value()) {
    outcome.stats = snapshot->stats;
    outcome.graph_bytes = std::move(snapshot->graph_bytes);
    outcome.warm = true;
    if (warm_frozen.has_value()) {
      // Frozen warm start: the mmapped frame is the graph; the store decode
      // was skipped (db stays empty) unless load_snapshot decoded anyway.
      outcome.frozen = std::move(warm_frozen);
      outcome.db_skipped = !snapshot->db_decoded;
    }
    if (snapshot->db_decoded) {
      outcome.db = std::move(snapshot->db);
      // Persistence stores data, not index structures; recreate the standard
      // set so lookups behave exactly as on a freshly built CPG.
      cpg::create_standard_indexes(outcome.db, options.executor);
      if (options.use_frozen && !outcome.frozen.has_value()) {
        // Frozen requested but the frame was absent or corrupt: re-freeze
        // from the decoded store and republish so the cache self-heals.
        freeze_outcome(options, key, outcome);
        if (outcome.frozen.has_value()) {
          auto stored_frozen = cache.store_frozen(key, *outcome.frozen);
          if (!stored_frozen.ok()) {
            outcome.warnings.push_back(stored_frozen.error().to_string() +
                                       " (continuing without frozen snapshot)");
          }
        }
      }
    }
  }
  outcome.cache_line = cache.stats().to_line();
  return outcome;
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

util::Result<Outcome> run(const std::vector<std::string>& jar_paths, const Options& options) {
  // The fail-soft contract is "structured Result, never a crash": stray
  // exceptions (worker-task faults surfaced by Executor::parallel_for,
  // injected pool.task failpoints) become errors here instead of
  // unwinding through the CLI.
  try {
    return run_impl(jar_paths, options);
  } catch (const std::exception& e) {
    return util::Error{std::string("pipeline: unhandled exception: ") + e.what()};
  }
}

Outcome run(const jir::Program& program, const Options& options) {
  obs::Span span("pipeline.run");
  cpg::CpgOptions cpg_options = options.cpg;
  cpg_options.executor = options.executor;
  cpg_options.deadline = options.deadline.tightened(cpg_options.deadline);
  if (cpg_options.memory == nullptr) cpg_options.memory = options.memory;
  Outcome outcome;
  // This overload cannot return an error, so a deadline cut is always
  // absorbed as degradation regardless of policy.
  Options absorbing = options;
  absorbing.policy = FailurePolicy::kQuarantine;
  (void)build_into(program, absorbing, cpg_options, outcome);
  if (options.need_program) outcome.program = program;
  freeze_outcome(options, /*content_key=*/0, outcome);
  return outcome;
}

}  // namespace tabby::pipeline
