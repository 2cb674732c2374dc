#include "pipeline/engine.hpp"

#include <filesystem>
#include <system_error>
#include <utility>

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
  util::Deadline deadline = ctx.deadline;
  deadline.bind(ctx.cancel);
  options.deadline = deadline.tightened(anchor(ctx.finder_budget));
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
    util::Deadline verify_deadline = ctx.deadline;
    verify_deadline.bind(ctx.cancel);
    vopts.deadline = verify_deadline.tightened(anchor(ctx.verify_budget));
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
    // without failing engine construction (run() reports the real error on
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

  Options options;
  options.with_jdk = options_.with_jdk;
  options.cache_dir = options_.cache_dir;
  options.need_program = opts.need_program;
  options.need_graph_bytes = opts.need_graph_bytes;
  options.executor = pool_.get();
  options.policy = ctx.policy;
  options.deadline = ctx.deadline;
  options.load_deadline = anchor(ctx.load_budget);
  options.cancel = ctx.cancel;
  options.memory = budget_.get();

  auto outcome = run(jar_paths, options, keyed);
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
  Options options;
  options.with_jdk = options_.with_jdk;
  options.need_program = opts.need_program;
  options.executor = pool_.get();
  options.policy = ctx.policy;
  options.deadline = ctx.deadline;
  options.cancel = ctx.cancel;
  options.memory = budget_.get();
  auto outcome = run(program, options);
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
