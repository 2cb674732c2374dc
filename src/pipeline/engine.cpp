#include "pipeline/engine.hpp"

#include <exception>
#include <filesystem>
#include <system_error>
#include <utility>

#include "graph/serialize.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/strings.hpp"

namespace tabby::pipeline {

namespace {

/// Anchors an optional phase budget as a Deadline starting now — phases own
/// their budgets from the moment they start, never from request arrival.
util::Deadline anchor(const std::optional<std::chrono::milliseconds>& budget) {
  return budget.has_value() ? util::Deadline::after(*budget) : util::Deadline{};
}

/// Bytes an Outcome keeps resident. The frozen frame and store bytes are
/// exact; a linked program is estimated from its method count. The estimate
/// only has to be stable and monotone in size — admission compares sums of
/// it against the cap, it never pretends to be an allocator audit.
std::size_t resident_estimate(const Outcome& outcome) {
  std::size_t bytes = outcome.frozen->frame().size() + outcome.graph_bytes.size();
  if (outcome.program.has_value()) {
    bytes += outcome.program->method_count() * 512;
  }
  return bytes;
}

/// The request deadline with its cancellation flag bound: what every stage
/// of an open polls.
util::Deadline bound_deadline(const ExecContext& ctx) {
  util::Deadline deadline = ctx.deadline;
  deadline.bind(ctx.cancel);
  return deadline;
}

/// The builder knobs of an open: the defaults (the graph every snapshot key
/// describes), run on the engine's pool under the request deadline and
/// charged to the engine ledger.
cpg::CpgOptions build_options(const Engine& engine, const util::Deadline& deadline) {
  cpg::CpgOptions options;
  options.executor = engine.executor();
  options.deadline = deadline;
  options.memory = engine.memory();
  return options;
}

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

/// The exact bytes `--store` writes for `db`.
void serialize_into(const graph::GraphDb& db, Outcome& outcome) {
  TABBY_SPAN("graph.serialize");
  outcome.graph_bytes = graph::serialize(db);
}

/// Cold back half shared by both opens: build the CPG into `db` (the
/// freeze's input) and, when asked, the store bytes.
util::Status build_into(const jir::Program& program, FailurePolicy policy,
                        const cpg::CpgOptions& cpg_options, bool with_bytes, graph::GraphDb& db,
                        Outcome& outcome) {
  cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
  util::Status cut = absorb_build_cut(cpg, policy, outcome);
  if (!cut.ok()) return cut;
  db = std::move(cpg.db);
  outcome.stats = cpg.stats;
  if (with_bytes) serialize_into(db, outcome);
  return util::Status::ok_status();
}

/// Publishes a freshly frozen frame next to its snapshot; a failed publish
/// is a warning, never a run failure.
void publish_frozen(cache::AnalysisCache& cache, std::uint64_t key, Outcome& outcome) {
  auto stored = cache.store_frozen(key, *outcome.frozen);
  if (!stored.ok()) {
    outcome.warnings.push_back(stored.error().to_string() +
                               " (continuing without frozen snapshot)");
  }
}

/// The cache-aware front half of Engine::open for a classpath: warm-start
/// from the cached frame and snapshot when they match `keyed`, otherwise
/// load the archives in parallel, link, build and freeze the CPG and
/// publish the snapshot and the frame. Without a cache directory this is
/// the plain cold pipeline. A failed freeze is a run error.
util::Result<Outcome> open_classpath(const Engine& engine,
                                     const std::vector<std::string>& jar_paths,
                                     const ExecContext& ctx, const OpenOptions& opts,
                                     const ClasspathKey& keyed) {
  obs::Span span("pipeline.run");
  span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));

  const EngineOptions& options = engine.options();
  const bool quarantine = ctx.policy == FailurePolicy::kQuarantine;
  const util::Deadline run_deadline = bound_deadline(ctx);
  const util::Deadline load_deadline = run_deadline.tightened(anchor(ctx.load_budget));
  // The builder polls the run deadline between payload batches and charges
  // its transient batches to the engine ledger.
  const cpg::CpgOptions cpg_options = build_options(engine, run_deadline);
  Outcome outcome;

  // Cold front half, the same with or without a cache: parallel decode and
  // link, then (unless the deadline already expired) the CPG build. Both
  // paths therefore degrade on exactly the same inputs.
  std::optional<jir::Program> program;
  auto load = [&]() -> util::Status {
    auto loaded = load_program(jar_paths, options.with_jdk, engine.executor(), ctx.policy,
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
      // The run serves, and stores, the empty graph.
      outcome.degradation.deadline_hit = true;
      if (with_bytes) serialize_into(db, outcome);
      return util::Status::ok_status();
    }
    built = true;
    status = build_into(*program, ctx.policy, cpg_options, with_bytes, db, outcome);
    // The builder was the program's last reader unless the caller keeps it:
    // free it before the freeze and the cache writes allocate.
    if (!opts.need_program) program.reset();
    return status;
  };
  auto finish = [&]() {
    if (opts.need_program) outcome.program = std::move(program);
    return std::move(outcome);
  };

  if (options.cache_dir.empty()) {
    util::Status status = build_cold(opts.need_graph_bytes);
    if (status.ok()) status = freeze_into(db, /*content_key=*/0, engine.memory(), outcome);
    if (!status.ok()) return status.error();
    return finish();
  }

  // A cache that cannot be opened is an infrastructure fault, not a broken
  // input unit: fatal under both policies (the caller asked for caching and
  // would otherwise silently lose it).
  auto opened = cache::AnalysisCache::open(options.cache_dir);
  if (!opened.ok()) return opened.error();
  cache::AnalysisCache& cache = opened.value();
  cache.set_memory(engine.memory());

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
    status = freeze_into(db, key, engine.memory(), outcome);
    if (!status.ok()) return status.error();
    if (snapshot_published) publish_frozen(cache, key, outcome);
    return finish();
  }

  if (opts.need_program) {
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
    // republish so the cache self-heals.
    util::Status status = freeze_into(snapshot->db, key, engine.memory(), outcome);
    if (!status.ok()) return status.error();
    publish_frozen(cache, key, outcome);
  }
  return finish();
}

/// The front half of Engine::open for a linked program: build and freeze
/// its CPG (no archives, no cache). A deadline cut is absorbed as
/// degradation whatever the policy; the only error is a failed freeze.
util::Result<Outcome> open_program(const Engine& engine, const jir::Program& program,
                                   const ExecContext& ctx, const OpenOptions& opts) {
  obs::Span span("pipeline.run");
  Outcome outcome;
  graph::GraphDb db;
  (void)build_into(program, FailurePolicy::kQuarantine,
                   build_options(engine, bound_deadline(ctx)), opts.need_graph_bytes, db,
                   outcome);
  util::Status frozen = freeze_into(db, /*content_key=*/0, engine.memory(), outcome);
  if (!frozen.ok()) return frozen.error();
  if (opts.need_program) outcome.program = program;
  return outcome;
}

}  // namespace

bool is_over_capacity(const util::Error& error) {
  return util::starts_with(error.message, kOverCapacityPrefix);
}

// --- Analysis ---------------------------------------------------------------

FindResult Analysis::find(const ExecContext& ctx) const {
  obs::Span span("engine.find");
  finder::FinderOptions options;
  options.max_depth = ctx.max_depth;
  options.executor = executor_;
  // The finder races whatever is left of the request budget, tightened with
  // its own phase budget anchored now, at finder start.
  options.deadline = bound_deadline(ctx).tightened(anchor(ctx.finder_budget));
  options.frontier_byte_pool = ctx.frontier_byte_pool;
  options.memory = memory_;
  options.dist.workers = ctx.workers;

  FindResult result;
  result.report = finder::GadgetChainFinder(*outcome_.frozen, options).find_all();
  // Every entry point reports the same degradation: the open-phase units
  // merged with the finder's partial view (previously each caller filled
  // partial_sinks/frontier_pruned — or forgot to).
  result.degradation = outcome_.degradation;
  result.degradation.partial_sinks = result.report.partial_sinks.size();
  result.degradation.frontier_pruned = result.report.frontier_pruned;
  if (dist_ != nullptr && result.report.dist_stats.any()) {
    dist_->accumulate(result.report.dist_stats);
  }

  // The verify post-pass (docs/ROBUSTNESS.md, "Runtime re-validation"):
  // supervised per-chain re-execution with its own anchored phase budget.
  // Requires the linked program (OpenOptions::need_program); without one the
  // request simply returns unverified — the CLI opens with need_program
  // whenever --verify is set.
  if (ctx.verify && outcome_.program.has_value()) {
    finder::VerifyOptions vopts;
    vopts.deadline = bound_deadline(ctx).tightened(anchor(ctx.verify_budget));
    vopts.executor = executor_;
    vopts.memory = memory_;
    vopts.dist.workers = ctx.verify_workers;
    if (verdict_cache_ != nullptr && fingerprint_ != 0) {
      // Key = classpath fingerprint × verdict-relevant options — a changed
      // archive or budget produces different keys, never a stale hit.
      util::Fnv1a key;
      key.update_u64(fingerprint_);
      key.update_u64(finder::verify_options_fingerprint(vopts));
      vopts.cache_fingerprint = key.digest();
      cache::AnalysisCache* cache = verdict_cache_;
      vopts.cache_load = [cache](std::uint64_t k) -> std::optional<finder::ChainVerdict> {
        auto hit = cache->load_verdict(k);
        if (!hit.has_value()) return std::nullopt;
        finder::ChainVerdict verdict;
        verdict.verdict = static_cast<finder::Verdict>(hit->verdict);
        verdict.reason = static_cast<finder::UnconfirmedReason>(hit->reason);
        verdict.steps = static_cast<std::size_t>(hit->steps);
        verdict.detail = std::move(hit->detail);
        return verdict;
      };
      vopts.cache_store = [cache](std::uint64_t k, const finder::ChainVerdict& verdict) {
        cache::CachedVerdict stored;
        stored.verdict = static_cast<std::uint8_t>(verdict.verdict);
        stored.reason = static_cast<std::uint8_t>(verdict.reason);
        stored.steps = verdict.steps;
        stored.detail = verdict.detail;
        (void)cache->store_verdict(k, stored);  // best-effort publish
      };
    }
    result.verify = finder::verify_chains(*outcome_.program, finder::AliasView(*outcome_.frozen),
                                          result.report.chains, vopts);
    result.verified = true;
    result.degradation.unconfirmed_chains = result.verify.unconfirmed;
    if (dist_ != nullptr && result.verify.dist_stats.any()) {
      dist_->accumulate(result.verify.dist_stats);
    }
  }
  return result;
}

util::Result<cypher::QueryResult> Analysis::query(std::string_view text,
                                                  const ExecContext& ctx) const {
  obs::Span span("engine.query");
  cypher::QueryOptions options;
  options.use_planner = ctx.use_planner;
  options.executor = executor_;
  options.memory = memory_;
  return cypher::run_query(*outcome_.frozen, text, options);
}

std::string Analysis::render(const cypher::QueryResult& result) const {
  std::string out = result.to_string(*outcome_.frozen);
  out += "(";
  out += std::to_string(result.rows.size());
  out += " row(s))\n";
  return out;
}

// --- Engine -----------------------------------------------------------------

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  pool_ = make_pool(options_.jobs);
  if (options_.memory_budget_bytes > 0) {
    budget_ = std::make_unique<util::MemoryBudget>(options_.memory_budget_bytes);
  }
  if (!options_.cache_dir.empty()) {
    // Best-effort: an unopenable cache directory disables verdict caching
    // without failing engine construction (open() reports the real error on
    // the snapshot path).
    auto cache = cache::AnalysisCache::open(options_.cache_dir);
    if (cache.ok()) {
      verdict_cache_ = std::make_unique<cache::AnalysisCache>(std::move(cache.value()));
    }
  }
}

Engine::~Engine() = default;

util::Result<AnalysisPtr> Engine::open(const std::vector<std::string>& jar_paths,
                                       const ExecContext& ctx, const OpenOptions& opts) {
  obs::Span span("engine.open");
  obs::counter_add("engine.opens");
  // The resident key is the snapshot key. An undigestable archive means the
  // key cannot describe the on-disk bytes: the open still runs (quarantine
  // may salvage it), but the result is never resident under a lying key.
  ClasspathKey keyed = classpath_key(jar_paths, options_.with_jdk,
                                     cpg::options_fingerprint(cpg::CpgOptions{}));
  std::optional<std::uint64_t> fp;
  if (keyed.unreadable.empty()) fp = keyed.key;

  if (fp.has_value()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++opens_;
    auto it = resident_.find(*fp);
    if (it != resident_.end()) {
      const Outcome& have = it->second.analysis->outcome();
      // A resident analysis satisfies this open only when it materialized
      // everything the open needs; otherwise fall through and rebuild (the
      // replacement below upgrades the resident entry in place).
      bool satisfies = (!opts.need_program || have.program.has_value()) &&
                       (!opts.need_graph_bytes || !have.graph_bytes.empty());
      if (satisfies) {
        ++it->second.hits;
        ++resident_hits_;
        obs::counter_add("engine.resident_hits");
        lru_.erase(it->second.lru);
        lru_.push_front(*fp);
        it->second.lru = lru_.begin();
        return AnalysisPtr(it->second.analysis);
      }
    }
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    ++opens_;
  }

  // Cheap pre-admission check: when even the raw classpath bytes exceed the
  // whole budget, reject before decoding a single archive — no eviction
  // could make the analysis fit.
  if (opts.require_admission && budget_ != nullptr && budget_->bounded()) {
    std::uintmax_t raw_bytes = 0;
    for (const std::string& path : jar_paths) {
      std::error_code ec;
      std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec) raw_bytes += size;
    }
    if (raw_bytes > budget_->cap()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++over_capacity_;
      obs::counter_add("engine.over_capacity");
      return util::Error{std::string(kOverCapacityPrefix) + "classpath is " +
                         std::to_string(raw_bytes) + " raw byte(s); engine budget is " +
                         std::to_string(budget_->cap()) + " byte(s)"};
    }
  }

  // The fail-soft contract is "structured Result, never a crash": stray
  // exceptions (worker-task faults surfaced by Executor::parallel_for,
  // injected pool.task failpoints) become errors here instead of unwinding
  // through the caller.
  auto outcome = [&]() -> util::Result<Outcome> {
    try {
      return open_classpath(*this, jar_paths, ctx, opts, keyed);
    } catch (const std::exception& e) {
      return util::Error{std::string("pipeline: unhandled exception: ") + e.what()};
    }
  }();
  if (!outcome.ok()) return outcome.error();

  auto analysis = std::shared_ptr<Analysis>(new Analysis());
  analysis->outcome_ = std::move(outcome.value());
  analysis->fingerprint_ = fp.value_or(0);
  analysis->executor_ = pool_.get();
  analysis->memory_ = budget_.get();
  analysis->dist_ = &dist_telemetry_;
  analysis->verdict_cache_ = verdict_cache_.get();
  analysis->resident_bytes_ = resident_estimate(analysis->outcome_);

  if (!fp.has_value()) return AnalysisPtr(std::move(analysis));

  std::lock_guard<std::mutex> lock(mutex_);
  // Another request may have built and admitted the same classpath while
  // this one ran unlocked; keep whichever is already resident when it
  // satisfies the request (first admit wins — both are byte-identical).
  auto it = resident_.find(*fp);
  if (it != resident_.end()) {
    const Outcome& have = it->second.analysis->outcome();
    bool satisfies = (!opts.need_program || have.program.has_value()) &&
                     (!opts.need_graph_bytes || !have.graph_bytes.empty());
    if (satisfies) return AnalysisPtr(it->second.analysis);
    evict_locked(*fp);
  }
  if (budget_ != nullptr && budget_->bounded()) {
    make_room_locked(analysis->resident_bytes_);
    if (resident_bytes_ + analysis->resident_bytes_ > budget_->cap()) {
      if (opts.require_admission) {
        ++over_capacity_;
        obs::counter_add("engine.over_capacity");
        return util::Error{std::string(kOverCapacityPrefix) + "analysis needs " +
                           std::to_string(analysis->resident_bytes_) +
                           " resident byte(s); engine budget is " +
                           std::to_string(budget_->cap()) + " byte(s) with " +
                           std::to_string(resident_bytes_) + " already resident"};
      }
      // One-shot caller: hand the analysis back non-resident instead of
      // rejecting — the handle's lifetime is the caller's problem, the
      // engine keeps governing only what it retains.
      return AnalysisPtr(std::move(analysis));
    }
  }
  // Admitted: the resident bytes are charged to the engine ledger for the
  // lifetime of residency (telemetry; admission itself compares the exact
  // sums above, never the racy live total).
  util::maybe_charge(budget_.get(), analysis->resident_bytes_);
  resident_bytes_ += analysis->resident_bytes_;
  lru_.push_front(*fp);
  Entry entry;
  entry.analysis = analysis;
  entry.lru = lru_.begin();
  resident_.emplace(*fp, std::move(entry));
  if (options_.max_resident > 0) {
    while (resident_.size() > options_.max_resident && !lru_.empty()) {
      // Evict idle entries beyond the count cap, LRU first. Entries pinned
      // by in-flight requests are skipped; the cap is re-applied on the
      // next open once they quiesce.
      bool evicted = false;
      for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
        if (*rit == *fp) continue;  // never evict the analysis just opened
        auto candidate = resident_.find(*rit);
        if (candidate != resident_.end() && candidate->second.analysis.use_count() == 1) {
          evict_locked(*rit);
          evicted = true;
          break;
        }
      }
      if (!evicted) break;
    }
  }
  return AnalysisPtr(std::move(analysis));
}

util::Result<AnalysisPtr> Engine::open(const jir::Program& program, const ExecContext& ctx,
                                       const OpenOptions& opts) {
  obs::Span span("engine.open");
  auto outcome = open_program(*this, program, ctx, opts);
  if (!outcome.ok()) return outcome.error();
  auto analysis = std::shared_ptr<Analysis>(new Analysis());
  analysis->outcome_ = std::move(outcome.value());
  analysis->executor_ = pool_.get();
  analysis->memory_ = budget_.get();
  analysis->dist_ = &dist_telemetry_;
  analysis->verdict_cache_ = verdict_cache_.get();
  analysis->resident_bytes_ = resident_estimate(analysis->outcome_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++opens_;
  }
  return AnalysisPtr(std::move(analysis));
}

std::size_t Engine::evict_locked(std::uint64_t fingerprint) {
  auto it = resident_.find(fingerprint);
  if (it == resident_.end()) return 0;
  std::size_t bytes = it->second.analysis->resident_bytes();
  lru_.erase(it->second.lru);
  resident_.erase(it);
  resident_bytes_ -= bytes;
  util::maybe_release(budget_.get(), bytes);
  ++evictions_;
  obs::counter_add("engine.evictions");
  // The callback is the Katana-style eviction hook: by the time it fires
  // the engine no longer references the analysis, so once request holders
  // drop their handles the frozen frame is unmapped.
  if (options_.on_evict) options_.on_evict(fingerprint, bytes);
  return bytes;
}

void Engine::make_room_locked(std::size_t needed) {
  if (budget_ == nullptr || !budget_->bounded()) return;
  while (resident_bytes_ + needed > budget_->cap() && !lru_.empty()) {
    bool evicted = false;
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      auto it = resident_.find(*rit);
      if (it != resident_.end() && it->second.analysis.use_count() == 1) {
        evict_locked(*rit);
        evicted = true;
        break;
      }
    }
    if (!evicted) return;  // everything left is pinned by in-flight requests
  }
}

bool Engine::evict(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_locked(fingerprint) > 0 || false;
}

std::size_t Engine::evict_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  while (!lru_.empty()) {
    std::uint64_t fp = lru_.back();
    if (evict_locked(fp) == 0) {
      // Pinned (in use): leave it resident, but stop — the LRU tail no
      // longer shrinks.
      break;
    }
    ++count;
  }
  return count;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats;
  stats.resident_bytes = resident_bytes_;
  stats.opens = opens_;
  stats.resident_hits = resident_hits_;
  stats.evictions = evictions_;
  stats.over_capacity = over_capacity_;
  stats.budget_bytes = budget_ != nullptr ? budget_->cap() : 0;
  stats.dist_workers_spawned = dist_telemetry_.workers_spawned.load(std::memory_order_relaxed);
  stats.dist_respawns = dist_telemetry_.respawns.load(std::memory_order_relaxed);
  stats.dist_crashes = dist_telemetry_.crashes.load(std::memory_order_relaxed);
  stats.dist_retries = dist_telemetry_.retries.load(std::memory_order_relaxed);
  stats.dist_reassignments = dist_telemetry_.reassignments.load(std::memory_order_relaxed);
  stats.dist_heartbeat_misses = dist_telemetry_.heartbeat_misses.load(std::memory_order_relaxed);
  for (std::uint64_t fp : lru_) {
    auto it = resident_.find(fp);
    if (it == resident_.end()) continue;
    stats.entries.push_back(
        {fp, it->second.analysis->resident_bytes(), it->second.hits});
  }
  return stats;
}

}  // namespace tabby::pipeline
