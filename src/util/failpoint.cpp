#include "util/failpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

namespace tabby::util::failpoint {

namespace {

// The compiled-in site catalog. Adding a site = one poll() call at the
// fault seam plus one row here (and in docs/ROBUSTNESS.md); the chaos
// sweep picks it up automatically via catalog().
constexpr const char* kSites[] = {
    "cache.publish.rename",    // the rename inside one atomic-publish attempt
    "cache.snapshot.publish",  // whole-classpath snapshot publish
    "cypher.eval",             // query evaluation entry (run_query)
    "cypher.plan",             // query planning (degrades to naive evaluation)
    "dist.dispatch",           // handing a shard to a worker (retriable, no kill)
    "dist.worker.crash",       // dispatched worker dies abruptly mid-shard
    "dist.worker.hang",        // dispatched worker goes silent (heartbeat miss)
    "fs.read",                 // any file read feeding the pipeline
    "graph.deserialize",       // graph store / snapshot blob decode
    "graph.freeze",            // building the frozen CSR snapshot
    "jar.decode",              // TJAR archive decode
    "pool.task",               // ThreadPool parallel_for task body
    "runtime.step",            // one interpreter step (verify VM infrastructure fault)
    "runtime.verify.crash",    // verification shard dies abruptly mid-chain
    "runtime.verify.hang",     // verification shard goes silent (heartbeat miss)
    "serve.request",           // daemon request dispatch (tabby serve)
};

struct Activation {
  int remaining = -1;  // -1 = unlimited
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Activation> active;
  std::map<std::string, std::uint64_t> fired_history;  // survives deactivation
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Reads the environment exactly once, before main-time polls: arms the
/// gate for TABBY_FAILPOINTS=1 and applies TABBY_FAILPOINT_ACTIVATE
/// ("site" or "site*N", ';'- or ','-separated).
bool arm_from_environment() {
  const char* armed = std::getenv("TABBY_FAILPOINTS");
  if (armed == nullptr || std::string(armed) != "1") return false;
  if (const char* spec = std::getenv("TABBY_FAILPOINT_ACTIVATE")) {
    std::string text(spec);
    std::size_t begin = 0;
    while (begin <= text.size()) {
      std::size_t end = text.find_first_of(";,", begin);
      if (end == std::string::npos) end = text.size();
      std::string entry = text.substr(begin, end - begin);
      begin = end + 1;
      if (entry.empty()) continue;
      int times = -1;
      if (std::size_t star = entry.rfind('*'); star != std::string::npos) {
        times = std::atoi(entry.c_str() + star + 1);
        entry.resize(star);
      }
      if (!entry.empty()) activate(entry, times);
    }
  }
  return true;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{arm_from_environment()};

bool should_fire(const char* site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.active.find(site);
  if (it == r.active.end()) return false;
  Activation& a = it->second;
  if (a.remaining == 0) return false;
  if (a.remaining > 0) --a.remaining;
  ++a.fired;
  ++r.fired_history[site];
  return true;
}

}  // namespace detail

void arm() { detail::g_armed.store(true, std::memory_order_relaxed); }

void disarm() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.active.clear();
  r.fired_history.clear();
}

bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

void activate(const std::string& site, int times) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.active[site] = Activation{times, 0};
}

void deactivate(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.active.erase(site);
}

void deactivate_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.active.clear();
}

std::uint64_t fired(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.fired_history.find(site);
  return it == r.fired_history.end() ? 0 : it->second;
}

std::vector<std::string> catalog() {
  return std::vector<std::string>(std::begin(kSites), std::end(kSites));
}

}  // namespace tabby::util::failpoint
