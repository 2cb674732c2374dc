#include "cli/cli.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "cache/cache.hpp"
#include "corpus/components.hpp"
#include "corpus/jdk.hpp"
#include "corpus/scenes.hpp"
#include "corpus/stress.hpp"
#include "cpg/builder.hpp"
#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "finder/payload.hpp"
#include "finder/verify.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "pipeline/engine.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "util/deadline.hpp"
#include "util/memory_budget.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace tabby::cli {

namespace {

namespace fs = std::filesystem;

/// Wall-clock budgets, parsed but not yet anchored: Deadlines are created at
/// the point the budgeted work starts, so a slow flag-parse never eats into
/// the budget.
struct BudgetSpec {
  std::optional<std::chrono::milliseconds> run;     // --deadline
  std::optional<std::chrono::milliseconds> load;    // --phase-budget load=
  std::optional<std::chrono::milliseconds> finder;  // --phase-budget finder=
  std::optional<std::chrono::milliseconds> verify;  // --phase-budget verify=
  std::optional<std::uint64_t> mem;                 // --mem-budget (bytes)
  std::optional<std::uint64_t> finder_mem;          // --phase-budget finder-mem=
};

struct Args {
  std::vector<std::string> positional;
  std::string store;
  std::string out_dir;
  std::string cache_dir;
  std::string trace_file;
  std::string deadline;                     // --deadline DUR (raw text)
  std::string mem_budget;                   // --mem-budget SIZE (raw text)
  std::vector<std::string> phase_budgets;   // --phase-budget PHASE=DUR, repeatable
  int depth = 12;
  int jobs = 0;  // 0 = hardware default; 1 = serial (historical pipeline)
  int workers = 0;  // finder worker processes (0 = in-process; docs/ROBUSTNESS.md)
  int verify_workers = 0;  // verify post-pass worker processes (0 = in-process shards)
  int max_resident = 0;  // `serve`: LRU entry cap for resident analyses (0 = bytes only)
  bool verify = false;
  bool with_jdk = true;
  bool metrics = false;
  bool strict = false;  // promote degradation to failure (FailurePolicy::kStrict)
  bool prune = false;   // `cache` subcommand: remove what the audit flags
  bool explain = false;  // `query`: print the compiled plan before the rows
  bool plan = true;      // `query`: --no-plan forces the naive evaluator
  BudgetSpec budgets;   // validated form of deadline/phase_budgets
  std::string error;
};

// --- Declarative flag table -----------------------------------------------
//
// One table shared by every subcommand. Each row binds a flag name to an
// Args member; parse_args is a single loop over it, so adding a flag is one
// line here plus a usage() row — no if/else ladder to extend.

struct FlagSpec {
  enum class Kind {
    Text,    // --flag VALUE, stored verbatim
    Multi,   // --flag VALUE, repeatable, appended verbatim
    Count,   // --flag N, checked base-10 parse, must be >= min
    Switch,  // --flag, stores `switch_value`
  };
  const char* name;
  Kind kind;
  std::string Args::* text = nullptr;
  int Args::* count = nullptr;
  int min = 1;
  bool Args::* toggle = nullptr;
  bool switch_value = true;
  std::vector<std::string> Args::* multi = nullptr;
};

constexpr FlagSpec kFlags[] = {
    {.name = "--store", .kind = FlagSpec::Kind::Text, .text = &Args::store},
    {.name = "--out", .kind = FlagSpec::Kind::Text, .text = &Args::out_dir},
    {.name = "--cache", .kind = FlagSpec::Kind::Text, .text = &Args::cache_dir},
    {.name = "--trace", .kind = FlagSpec::Kind::Text, .text = &Args::trace_file},
    {.name = "--depth", .kind = FlagSpec::Kind::Count, .count = &Args::depth, .min = 1},
    {.name = "--jobs", .kind = FlagSpec::Kind::Count, .count = &Args::jobs, .min = 1},
    {.name = "--workers", .kind = FlagSpec::Kind::Count, .count = &Args::workers, .min = 0},
    {.name = "--verify-workers",
     .kind = FlagSpec::Kind::Count,
     .count = &Args::verify_workers,
     .min = 0},
    {.name = "--max-resident", .kind = FlagSpec::Kind::Count, .count = &Args::max_resident, .min = 1},
    {.name = "--verify", .kind = FlagSpec::Kind::Switch, .toggle = &Args::verify},
    {.name = "--no-jdk",
     .kind = FlagSpec::Kind::Switch,
     .toggle = &Args::with_jdk,
     .switch_value = false},
    {.name = "--metrics", .kind = FlagSpec::Kind::Switch, .toggle = &Args::metrics},
    {.name = "--deadline", .kind = FlagSpec::Kind::Text, .text = &Args::deadline},
    {.name = "--mem-budget", .kind = FlagSpec::Kind::Text, .text = &Args::mem_budget},
    {.name = "--phase-budget", .kind = FlagSpec::Kind::Multi, .multi = &Args::phase_budgets},
    {.name = "--strict", .kind = FlagSpec::Kind::Switch, .toggle = &Args::strict},
    {.name = "--prune", .kind = FlagSpec::Kind::Switch, .toggle = &Args::prune},
    {.name = "--explain", .kind = FlagSpec::Kind::Switch, .toggle = &Args::explain},
    {.name = "--no-plan",
     .kind = FlagSpec::Kind::Switch,
     .toggle = &Args::plan,
     .switch_value = false},
};

/// Validates --deadline / --phase-budget text into a BudgetSpec. Returns a
/// usage-class error message on malformed input, empty string on success.
std::string parse_budgets(Args& args) {
  if (!args.deadline.empty()) {
    auto ms = util::parse_duration_ms(args.deadline);
    if (!ms.ok()) return "bad --deadline value: " + args.deadline + " (" + ms.error().message + ")";
    args.budgets.run = std::chrono::milliseconds{ms.value()};
  }
  if (!args.mem_budget.empty()) {
    auto bytes = util::parse_size_bytes(args.mem_budget);
    if (!bytes.ok()) {
      return "bad --mem-budget value: " + args.mem_budget + " (" + bytes.error().message + ")";
    }
    if (bytes.value() == 0) return "bad --mem-budget value: 0 (budget must be positive)";
    args.budgets.mem = bytes.value();
  }
  for (const std::string& budget : args.phase_budgets) {
    std::size_t eq = budget.find('=');
    if (eq == std::string::npos || eq == 0) {
      return "bad --phase-budget value: " + budget + " (expected PHASE=VALUE)";
    }
    std::string phase = budget.substr(0, eq);
    std::string value = budget.substr(eq + 1);
    // finder-mem is a byte size, every other phase is a wall-clock duration.
    if (phase == "finder-mem") {
      auto bytes = util::parse_size_bytes(value);
      if (!bytes.ok()) return "bad --phase-budget value: " + budget + " (" + bytes.error().message + ")";
      if (bytes.value() == 0) return "bad --phase-budget value: " + budget + " (budget must be positive)";
      args.budgets.finder_mem = bytes.value();
      continue;
    }
    auto ms = util::parse_duration_ms(value);
    if (!ms.ok()) return "bad --phase-budget value: " + budget + " (" + ms.error().message + ")";
    if (phase == "load") {
      args.budgets.load = std::chrono::milliseconds{ms.value()};
    } else if (phase == "finder") {
      args.budgets.finder = std::chrono::milliseconds{ms.value()};
    } else if (phase == "verify") {
      args.budgets.verify = std::chrono::milliseconds{ms.value()};
    } else {
      return "unknown --phase-budget phase: " + phase +
             " (known phases: load, finder, finder-mem, verify)";
    }
  }
  return "";
}

/// Anchors an optional budget as a Deadline starting now.
util::Deadline maybe_after(const std::optional<std::chrono::milliseconds>& budget) {
  return budget.has_value() ? util::Deadline::after(*budget) : util::Deadline{};
}

/// Process-wide memory ledger for one command, or nullptr when --mem-budget
/// is unset (the governed paths take their zero-cost branch).
std::unique_ptr<util::MemoryBudget> make_budget(const Args& args) {
  if (!args.budgets.mem.has_value()) return nullptr;
  return std::make_unique<util::MemoryBudget>(static_cast<std::size_t>(*args.budgets.mem));
}

Args parse_args(const std::vector<std::string>& raw) {
  Args args;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& a = raw[i];
    if (!util::starts_with(a, "--")) {
      args.positional.push_back(a);
      continue;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : kFlags) {
      if (a == candidate.name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      args.error = "unknown flag: " + a;
      return args;
    }
    if (spec->kind == FlagSpec::Kind::Switch) {
      args.*(spec->toggle) = spec->switch_value;
      continue;
    }
    if (i + 1 >= raw.size()) {
      args.error = "missing value for " + a;
      return args;
    }
    const std::string& value = raw[++i];
    if (spec->kind == FlagSpec::Kind::Text) {
      args.*(spec->text) = value;
      continue;
    }
    if (spec->kind == FlagSpec::Kind::Multi) {
      (args.*(spec->multi)).push_back(value);
      continue;
    }
    util::Result<int> parsed = util::parse_int(value);
    if (!parsed.ok() || parsed.value() < spec->min) {
      args.error = "bad " + a + " value: " + value;
      return args;
    }
    args.*(spec->count) = parsed.value();
  }
  args.error = parse_budgets(args);
  return args;
}

int usage(std::ostream& err) {
  err << "usage:\n"
         "  tabby list\n"
         "  tabby gen <component-or-scene> --out DIR\n"
         "  tabby analyze JAR... [--store FILE] [--cache DIR] [--no-jdk] [--jobs N]\n"
         "  tabby find JAR... [--depth N] [--verify] [--verify-workers N] [--cache DIR]\n"
         "                    [--jobs N] [--workers N]\n"
         "  tabby query JAR... \"MATCH ... RETURN ...\" [--cache DIR] [--no-jdk] [--jobs N]\n"
         "  tabby query --store FILE \"MATCH ... RETURN ...\" [--explain] [--no-plan]\n"
         "  tabby cache DIR [--prune]\n"
         "  tabby serve SOCKET [--cache DIR] [--jobs N] [--workers N] [--mem-budget SIZE]\n"
         "                     [--max-resident N] [--no-jdk]\n"
         "  tabby client SOCKET (open|find|query|stats|evict|shutdown) [ARG...]\n"
         "\n"
         "  --jobs N      worker threads for the parallel stages (default: all\n"
         "                hardware threads; 1 = serial). Output is identical at\n"
         "                any job count.\n"
         "  --workers N   crash-isolated finder: dispatch sink searches to N\n"
         "                supervised forked worker processes (default 0 = in\n"
         "                process). A crashed or hung worker is respawned and its\n"
         "                shard retried; a shard that exhausts retries degrades\n"
         "                (exit 3) instead of killing the run. Output is\n"
         "                byte-identical to --workers 0 at any N.\n"
         "  --verify      `tabby find` only: re-validate every found chain in\n"
         "                the runtime mini-VM (docs/ROBUSTNESS.md, \"Runtime\n"
         "                re-validation\"). Each chain gets one verdict:\n"
         "                EFFECTIVE, REFUTED, or UNCONFIRMED(reason) when the\n"
         "                VM could not decide (budget | timeout | crash |\n"
         "                fault) — undecided chains are kept and the run\n"
         "                degrades (exit 3; --strict: 1). With --cache,\n"
         "                verdicts are cached and warm runs skip re-execution.\n"
         "  --verify-workers N\n"
         "                crash-isolated verification: replay chains in N\n"
         "                supervised forked verifier processes (default 0 =\n"
         "                in-process shards on the --jobs pool). A VM crash or\n"
         "                hang on one chain demotes that chain to UNCONFIRMED\n"
         "                instead of killing the run. Verdicts are\n"
         "                byte-identical at any N.\n"
         "  --cache DIR   incremental analysis cache: whole-classpath CPG\n"
         "                snapshots and their frozen CSR frames, keyed by\n"
         "                content digests (docs/GRAPH.md). A warm run on an\n"
         "                unchanged classpath mmaps the frame instead of\n"
         "                recomputing and produces identical output.\n"
         "  --trace FILE  write a Chrome trace-event JSON of the run (open in\n"
         "                chrome://tracing or https://ui.perfetto.dev; one track\n"
         "                per worker thread). Does not change any output.\n"
         "  --metrics     print per-phase span timings and the counter catalog\n"
         "                on stderr after the command.\n"
         "  --deadline D  whole-run wall-clock budget (e.g. 500ms, 30s, 5m).\n"
         "                Cooperative: stages stop at the next unit boundary and\n"
         "                the run reports what it skipped.\n"
         "  --mem-budget SIZE\n"
         "                byte budget for the run (e.g. 64m, 2g). The finder\n"
         "                prunes its lowest-priority frontier branches instead of\n"
         "                growing past the budget; affected sinks are reported\n"
         "                partial (exit 3), chains found so far are kept.\n"
         "  --phase-budget PHASE=V\n"
         "                per-phase budget on top of --deadline/--mem-budget;\n"
         "                phases: load (archive decode, duration), finder\n"
         "                (per-sink search, duration), finder-mem (frontier byte\n"
         "                pool, size), verify (runtime re-validation, duration).\n"
         "                Repeatable.\n"
         "  --explain     `tabby query` only: print the compiled query plan\n"
         "                (start selection, estimates, pushdowns) before the\n"
         "                rows. Purely additive — rows are unchanged.\n"
         "  --no-plan     `tabby query` only: skip the cost-based planner and\n"
         "                run the naive evaluator. Escape hatch; output is\n"
         "                byte-identical either way, only speed differs.\n"
         "  --max-resident N\n"
         "                `tabby serve` only: cap the number of resident\n"
         "                analyses; least-recently-used idle entries are\n"
         "                evicted past it (bytes are governed by --mem-budget\n"
         "                regardless; see docs/SERVING.md).\n"
         "  --strict      fail on the first malformed input or exceeded budget\n"
         "                instead of quarantining it (exit 1 instead of 3).\n"
         "  --prune       `tabby cache` only: delete the corrupt and orphaned\n"
         "                entries the audit finds (they rebuild on the next run).\n"
         "\n"
         "exit codes:\n"
         "  0  clean run\n"
         "  1  fatal error (nothing usable produced)\n"
         "  2  usage error\n"
         "  3  completed with degradation: quarantined inputs, an expired\n"
         "     deadline, memory-pressure pruning, partial sink searches, or\n"
         "     chains left UNCONFIRMED by runtime re-validation (details on\n"
         "     stderr)\n";
  return 2;
}

bool write_bytes(const std::vector<std::byte>& bytes, const fs::path& path, std::ostream& err) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    err << "error: cannot write " << path.string() << "\n";
    return false;
  }
  return true;
}

/// Engine-lifetime configuration from the flag set: the pool, cache and
/// budget that a one-shot command builds fresh and `tabby serve` keeps for
/// its whole life. One helper, every subcommand — the knobs can no longer
/// drift apart between analyze/find/query/serve.
pipeline::EngineOptions engine_options(const Args& args) {
  pipeline::EngineOptions options;
  options.jobs = args.jobs;
  options.cache_dir = args.cache_dir;
  options.memory_budget_bytes = static_cast<std::size_t>(args.budgets.mem.value_or(0));
  options.max_resident = static_cast<std::size_t>(args.max_resident);
  options.with_jdk = args.with_jdk;
  return options;
}

/// The per-request ExecContext from the flag set. The CLI defaults to
/// quarantine (a partial answer with a degradation report and exit 3 beats
/// no answer on a big real-world classpath); --strict restores the library
/// default of failing on the first malformed unit. The whole-run deadline is
/// anchored here — when the budgeted work is about to start — while the
/// phase budgets stay durations that open()/find() anchor themselves.
pipeline::ExecContext exec_context(const Args& args) {
  pipeline::ExecContext ctx;
  ctx.deadline = maybe_after(args.budgets.run);
  ctx.load_budget = args.budgets.load;
  ctx.finder_budget = args.budgets.finder;
  ctx.policy =
      args.strict ? pipeline::FailurePolicy::kStrict : pipeline::FailurePolicy::kQuarantine;
  ctx.max_depth = args.depth;
  // finder-mem= carves a dedicated frontier pool; otherwise the whole
  // --mem-budget doubles as the pool. Shard caps come from the pool size
  // alone, so the chain set is identical at any --jobs count.
  ctx.frontier_byte_pool = static_cast<std::size_t>(
      args.budgets.finder_mem.value_or(args.budgets.mem.value_or(0)));
  ctx.use_planner = args.plan;
  // Crash-isolated finder execution: shards run in forked worker processes
  // whose failures degrade (exit 3) instead of killing the run. Output is
  // byte-identical to --workers 0 at any count.
  ctx.workers = args.workers;
  // The verify post-pass: supervised runtime re-validation of every found
  // chain, with its own phase budget and (optionally) its own worker pool.
  ctx.verify = args.verify;
  ctx.verify_workers = args.verify_workers;
  ctx.verify_budget = args.budgets.verify;
  return ctx;
}

/// Renders a pipeline outcome's preamble (warnings and degradation lines to
/// err, cache line to out).
void report_outcome(const pipeline::Outcome& outcome, std::ostream& out, std::ostream& err) {
  for (const std::string& warning : outcome.warnings) err << "warning: " << warning << "\n";
  err << outcome.degradation.to_string();
  if (!outcome.cache_line.empty()) out << outcome.cache_line << "\n";
}

/// Exit code for a command whose pipeline half succeeded: 3 when anything
/// was degraded, else 0.
int degradation_exit(const pipeline::Outcome& outcome) {
  return outcome.degradation.degraded() ? 3 : 0;
}

int cmd_list(std::ostream& out) {
  out << "components (Table IX):\n";
  for (const std::string& name : corpus::component_names()) out << "  " << name << "\n";
  out << "scenes (Table X):\n";
  for (const std::string& name : corpus::scene_names()) out << "  " << name << "\n";
  out << "stress fixtures:\n"
         "  fanout-stress\n";
  return 0;
}

int cmd_gen(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2 || args.out_dir.empty()) {
    err << "usage: tabby gen <component-or-scene> --out DIR\n";
    return 2;
  }
  const std::string& name = args.positional[1];
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);

  std::vector<jar::Archive> archives;
  const auto& components = corpus::component_names();
  const auto& scenes = corpus::scene_names();
  if (std::find(components.begin(), components.end(), name) != components.end()) {
    corpus::Component component = corpus::build_component(name);
    archives.push_back(corpus::jdk_base_archive());
    archives.push_back(std::move(component.jar));
  } else if (std::find(scenes.begin(), scenes.end(), name) != scenes.end()) {
    archives = corpus::build_scene(name).jars;
  } else if (name == "fanout-stress") {
    archives.push_back(corpus::jdk_base_archive());
    archives.push_back(corpus::fanout_stress_archive());
  } else {
    err << "error: unknown component or scene: " << name << "\n";
    return 1;
  }

  for (const jar::Archive& archive : archives) {
    std::string file = archive.meta.name;
    for (char& c : file) {
      if (c == '/' || c == ' ' || c == '(' || c == ')') c = '_';
    }
    if (!util::ends_with(file, ".tjar")) file += ".tjar";
    fs::path path = fs::path(args.out_dir) / file;
    auto status = jar::write_archive_file(archive, path);
    if (!status.ok()) {
      err << "error: " << status.error().to_string() << "\n";
      return 1;
    }
    out << "wrote " << path.string() << " (" << archive.classes.size() << " classes)\n";
  }
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    err << "usage: tabby analyze JAR... [--store FILE]\n";
    return 2;
  }
  pipeline::Engine engine(engine_options(args));
  pipeline::OpenOptions oopts;
  oopts.need_graph_bytes = !args.store.empty();
  auto result =
      engine.open({args.positional.begin() + 1, args.positional.end()}, exec_context(args), oopts);
  if (!result.ok()) {
    err << "error: " << result.error().to_string() << "\n";
    return 1;
  }
  const pipeline::Outcome& outcome = result.value()->outcome();
  report_outcome(outcome, out, err);
  out << "classes:  " << outcome.stats.class_nodes << "\n"
      << "methods:  " << outcome.stats.method_nodes << "\n"
      << "edges:    " << outcome.stats.relationship_edges << " (" << outcome.stats.call_edges
      << " CALL, " << outcome.stats.alias_edges << " ALIAS)\n"
      << "sources:  " << outcome.stats.source_methods << "\n"
      << "sinks:    " << outcome.stats.sink_methods << "\n"
      << "pruned:   " << outcome.stats.pruned_call_sites << " uncontrollable call sites\n";
  if (!args.store.empty()) {
    // Write the serialized bytes directly: on a warm run these are the
    // snapshot's embedded store, byte-identical to the cold run's output.
    if (!write_bytes(outcome.graph_bytes, args.store, err)) return 1;
    out << "graph store written to " << args.store << "\n";
  }
  return degradation_exit(outcome);
}

int cmd_find(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    err << "usage: tabby find JAR... [--depth N] [--verify]\n";
    return 2;
  }
  pipeline::Engine engine(engine_options(args));
  pipeline::ExecContext ctx = exec_context(args);
  pipeline::OpenOptions oopts;
  oopts.need_program = args.verify;
  auto result = engine.open({args.positional.begin() + 1, args.positional.end()}, ctx, oopts);
  if (!result.ok()) {
    err << "error: " << result.error().to_string() << "\n";
    return 1;
  }
  const pipeline::Analysis& analysis = *result.value();
  const pipeline::Outcome& outcome = analysis.outcome();
  report_outcome(outcome, out, err);

  // One call is the whole finder orchestration the CLI used to hand-roll:
  // depth, deadline folding, frontier pool, and a DegradationReport that
  // already merges the finder's partial view.
  pipeline::FindResult found = analysis.find(ctx);
  const finder::FinderReport& report = found.report;

  // Result bytes carry no wall clock: the search time is in the finder.*
  // spans (--metrics, --trace).
  out << report.chains.size() << " gadget chain(s)\n\n";
  for (std::size_t i = 0; i < report.chains.size(); ++i) {
    out << report.chains[i].to_string();
    if (found.verified) {
      out << "  auto-verify: " << finder::verdict_line(found.verify.verdicts[i]) << "\n";
    }
    out << "\n";
  }
  if (found.verified) {
    out << found.verify.effective << "/" << report.chains.size() << " chains confirmed effective";
    if (found.verify.unconfirmed > 0) {
      out << ", " << found.verify.unconfirmed << " unconfirmed";
    }
    out << "\n";
  }
  const bool partial = report.partial();
  const bool unconfirmed = found.verified && found.verify.unconfirmed > 0;
  if (args.strict && partial) {
    err << "error: finder budget exceeded (" << report.partial_sinks.size()
        << " sink search(es) incomplete)\n";
    return 1;
  }
  if (args.strict && unconfirmed) {
    err << "error: runtime re-validation left " << found.verify.unconfirmed
        << " chain(s) UNCONFIRMED\n";
    return 1;
  }
  for (const finder::PartialSink& sink : report.partial_sinks) {
    err << finder::degraded_line(sink) << "\n";
  }
  if (found.verified) {
    // One degraded line per undecided chain, in chain order — the same
    // machinery (and exit-code contract) as partial sink searches.
    for (std::size_t i = 0; i < report.chains.size(); ++i) {
      const finder::ChainVerdict& verdict = found.verify.verdicts[i];
      if (verdict.verdict == finder::Verdict::Unconfirmed) {
        err << finder::degraded_line(report.chains[i], verdict) << "\n";
      }
    }
  }
  if (partial || unconfirmed) return 3;
  return found.degradation.degraded() ? 3 : 0;
}

int cmd_cache(const Args& args, std::ostream& out, std::ostream& err) {
  std::string dir = args.cache_dir;
  if (dir.empty() && args.positional.size() == 2) dir = args.positional[1];
  if (dir.empty() || args.positional.size() > 2) {
    err << "usage: tabby cache DIR [--prune]   (or: tabby cache --cache DIR [--prune])\n";
    return 2;
  }
  auto report = cache::audit_cache(dir, args.prune);
  if (!report.ok()) {
    err << "error: " << report.error().to_string() << "\n";
    return 1;
  }
  out << report.value().to_string();
  // Clean store, or a dirty one that --prune just healed: exit 0. Findings
  // left on disk: exit 3, the same "usable but degraded" contract as a run.
  if (report.value().clean()) return 0;
  return args.prune ? 0 : 3;
}

int cmd_query(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    err << "usage: tabby query (JAR...|--store FILE) \"MATCH ...\"\n";
    return 2;
  }
  std::string query_text = args.positional.back();
  if (!args.store.empty()) {
    // Direct store mode never runs the pipeline: load the serialized graph,
    // query it, done. (The engine is for classpath-keyed analyses.)
    auto loaded = graph::load(args.store);
    if (!loaded.ok()) {
      err << "error: " << loaded.error().to_string() << "\n";
      return 1;
    }
    std::unique_ptr<util::ThreadPool> pool = pipeline::make_pool(args.jobs);
    std::unique_ptr<util::MemoryBudget> budget = make_budget(args);
    cypher::QueryOptions qopts;
    qopts.use_planner = args.plan;
    qopts.executor = pool.get();
    qopts.memory = budget.get();
    auto query_result = cypher::run_query(loaded.value(), query_text, qopts);
    if (!query_result.ok()) {
      err << "query error: " << query_result.error().to_string() << "\n";
      return 1;
    }
    if (args.explain) out << query_result.value().plan;
    out << query_result.value().to_string(loaded.value()) << "("
        << query_result.value().rows.size() << " row(s))\n";
    return 0;
  }
  if (args.positional.size() < 3) {
    err << "usage: tabby query JAR... \"MATCH ...\"\n";
    return 2;
  }
  pipeline::Engine engine(engine_options(args));
  pipeline::ExecContext ctx = exec_context(args);
  auto result = engine.open({args.positional.begin() + 1, args.positional.end() - 1}, ctx);
  if (!result.ok()) {
    err << "error: " << result.error().to_string() << "\n";
    return 1;
  }
  const pipeline::Analysis& analysis = *result.value();
  report_outcome(analysis.outcome(), out, err);
  // Rows print byte-identically with or without the planner.
  auto query_result = analysis.query(query_text, ctx);
  if (!query_result.ok()) {
    err << "query error: " << query_result.error().to_string() << "\n";
    return 1;
  }
  if (args.explain) out << query_result.value().plan;
  out << analysis.render(query_result.value());
  return degradation_exit(analysis.outcome());
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "usage: tabby serve SOCKET [--cache DIR] [--jobs N] [--workers N] "
           "[--mem-budget SIZE] [--max-resident N]\n";
    return 2;
  }
  serve::ServeOptions options;
  options.engine = engine_options(args);
  options.default_workers = args.workers;
  auto status = serve::serve(args.positional[1], std::move(options), out, err);
  if (!status.ok()) {
    err << "error: " << status.error().to_string() << "\n";
    return 1;
  }
  return 0;
}

/// The request fields shared by every client op: phase budgets, policy,
/// workers and verify, translated from the same flags the one-shot commands use.
serve::Json client_request_base(const Args& args) {
  serve::Json request = serve::Json::object();
  if (args.budgets.run.has_value()) {
    request.set("deadline_ms", static_cast<std::int64_t>(args.budgets.run->count()));
  }
  if (args.budgets.load.has_value()) {
    request.set("load_ms", static_cast<std::int64_t>(args.budgets.load->count()));
  }
  if (args.budgets.finder.has_value()) {
    request.set("finder_ms", static_cast<std::int64_t>(args.budgets.finder->count()));
  }
  std::uint64_t pool = args.budgets.finder_mem.value_or(args.budgets.mem.value_or(0));
  if (pool != 0) request.set("frontier_pool", pool);
  if (args.strict) request.set("strict", true);
  if (args.workers > 0) request.set("workers", static_cast<std::int64_t>(args.workers));
  if (args.verify) request.set("verify", true);
  if (args.verify_workers > 0) {
    request.set("verify_workers", static_cast<std::int64_t>(args.verify_workers));
  }
  if (args.budgets.verify.has_value()) {
    request.set("verify_ms", static_cast<std::int64_t>(args.budgets.verify->count()));
  }
  return request;
}

/// Renders a daemon response with the same stdout/stderr/exit-code contract
/// as the equivalent one-shot command, so scripts (and the CI smoke) can
/// diff the two directly.
int render_client_response(const std::string& op, const Args& args, const serve::Json& response,
                           std::ostream& out, std::ostream& err) {
  if (!response.flag("ok")) {
    err << "error: " << response.str("error", "malformed daemon response") << "\n";
    return response.str("kind") == "usage" ? 2 : 1;
  }
  for (const std::string& warning : response.strings("warnings")) {
    err << "warning: " << warning << "\n";
  }
  if (response.has("cache_line")) out << response.str("cache_line") << "\n";
  if (op == "open") {
    out << "opened " << response.str("fingerprint") << ": "
        << static_cast<std::uint64_t>(response.num("classes")) << " classes, "
        << static_cast<std::uint64_t>(response.num("methods")) << " methods, "
        << static_cast<std::uint64_t>(response.num("edges")) << " edges ("
        << (response.flag("warm") ? "warm" : "cold") << ", "
        << (response.flag("resident") ? "resident" : "transient") << ", "
        << static_cast<std::uint64_t>(response.num("resident_bytes")) << " bytes)\n";
    return response.flag("degraded") ? 3 : 0;
  }
  if (op == "find") {
    auto partial = static_cast<std::uint64_t>(response.num("partial"));
    auto unconfirmed = static_cast<std::uint64_t>(response.num("unconfirmed"));
    if (partial > 0 && args.strict) {
      err << "error: finder budget exceeded (" << partial << " sink search(es) incomplete)\n";
      return 1;
    }
    if (unconfirmed > 0 && args.strict) {
      err << "error: runtime re-validation left " << unconfirmed << " chain(s) UNCONFIRMED\n";
      return 1;
    }
    out << response.str("text");
    for (const std::string& line : response.strings("degraded_lines")) err << line << "\n";
    if (partial > 0 || unconfirmed > 0) return 3;
    return response.flag("degraded") ? 3 : 0;
  }
  if (op == "query") {
    if (response.has("plan")) out << response.str("plan");
    out << response.str("text");
    return response.flag("degraded") ? 3 : 0;
  }
  if (op == "stats") {
    out << "requests:       " << static_cast<std::uint64_t>(response.num("requests")) << "\n"
        << "in_flight:      " << static_cast<std::uint64_t>(response.num("in_flight")) << "\n"
        << "opens:          " << static_cast<std::uint64_t>(response.num("opens")) << "\n"
        << "resident_hits:  " << static_cast<std::uint64_t>(response.num("resident_hits")) << "\n"
        << "evictions:      " << static_cast<std::uint64_t>(response.num("evictions")) << "\n"
        << "over_capacity:  " << static_cast<std::uint64_t>(response.num("over_capacity")) << "\n"
        << "audits:         " << static_cast<std::uint64_t>(response.num("audits")) << "\n"
        << "resident_bytes: " << static_cast<std::uint64_t>(response.num("resident_bytes")) << "\n"
        << "budget_bytes:   " << static_cast<std::uint64_t>(response.num("budget_bytes")) << "\n";
    // Worker-pool churn, shown once any --workers find has run so the
    // common in-process deployment keeps its historical stats bytes.
    if (response.num("dist_workers_spawned") > 0) {
      out << "dist_workers:   " << static_cast<std::uint64_t>(response.num("dist_workers_spawned"))
          << " spawned, " << static_cast<std::uint64_t>(response.num("dist_respawns"))
          << " respawn(s)\n"
          << "dist_failures:  " << static_cast<std::uint64_t>(response.num("dist_crashes"))
          << " crash(es), " << static_cast<std::uint64_t>(response.num("dist_heartbeat_misses"))
          << " heartbeat miss(es)\n"
          << "dist_retries:   " << static_cast<std::uint64_t>(response.num("dist_retries"))
          << " retry(ies), " << static_cast<std::uint64_t>(response.num("dist_reassignments"))
          << " reassignment(s)\n";
    }
    if (const serve::Json* resident = response.find("resident")) {
      out << "resident:       " << resident->items().size() << " analysis(es)\n";
      for (const serve::Json& entry : resident->items()) {
        out << "  " << entry.str("fingerprint") << "  "
            << static_cast<std::uint64_t>(entry.num("bytes")) << " bytes, "
            << static_cast<std::uint64_t>(entry.num("hits")) << " hit(s)\n";
      }
    }
    return 0;
  }
  if (op == "evict") {
    out << "evicted " << static_cast<std::uint64_t>(response.num("evicted")) << " analysis(es)\n";
    return 0;
  }
  if (op == "shutdown") {
    out << "daemon stopping\n";
    return 0;
  }
  return 0;
}

int cmd_client(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 3) {
    err << "usage: tabby client SOCKET (open|find|query|stats|evict|shutdown) [ARG...]\n";
    return 2;
  }
  const std::string& socket_path = args.positional[1];
  const std::string& op = args.positional[2];
  serve::Json request = client_request_base(args);
  request.set("op", op);
  if (op == "open" || op == "find") {
    if (args.positional.size() < 4) {
      err << "usage: tabby client SOCKET " << op << " JAR...\n";
      return 2;
    }
    serve::Json classpath = serve::Json::array();
    for (std::size_t i = 3; i < args.positional.size(); ++i) {
      classpath.push(serve::Json::string(args.positional[i]));
    }
    request.set("classpath", std::move(classpath));
    if (op == "find") request.set("depth", static_cast<std::int64_t>(args.depth));
  } else if (op == "query") {
    if (args.positional.size() < 5) {
      err << "usage: tabby client SOCKET query JAR... \"MATCH ...\"\n";
      return 2;
    }
    serve::Json classpath = serve::Json::array();
    for (std::size_t i = 3; i + 1 < args.positional.size(); ++i) {
      classpath.push(serve::Json::string(args.positional[i]));
    }
    request.set("classpath", std::move(classpath));
    request.set("text", args.positional.back());
    if (args.explain) request.set("explain", true);
    if (!args.plan) request.set("no_plan", true);
  } else if (op == "evict") {
    if (args.positional.size() != 4) {
      err << "usage: tabby client SOCKET evict (FINGERPRINT|all)\n";
      return 2;
    }
    if (args.positional[3] == "all") {
      request.set("all", true);
    } else {
      request.set("fingerprint", args.positional[3]);
    }
  } else if (op != "stats" && op != "shutdown") {
    err << "error: unknown client op: " << op << "\n";
    return 2;
  }
  auto reply = serve::client_request(socket_path, request.dump());
  if (!reply.ok()) {
    err << "error: " << reply.error().to_string() << "\n";
    return 1;
  }
  std::optional<serve::Json> response = serve::Json::parse(reply.value());
  if (!response || !response->is_object()) {
    err << "error: malformed daemon response: " << reply.value() << "\n";
    return 1;
  }
  return render_client_response(op, args, *response, out, err);
}

int dispatch(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& command = args.positional[0];
  obs::Span span("cli.command");
  if (span.active()) span.attr("command", command);
  if (command == "list") return cmd_list(out);
  if (command == "gen") return cmd_gen(args, out, err);
  if (command == "analyze") return cmd_analyze(args, out, err);
  if (command == "find") return cmd_find(args, out, err);
  if (command == "cache") return cmd_cache(args, out, err);
  if (command == "query") return cmd_query(args, out, err);
  if (command == "serve") return cmd_serve(args, out, err);
  if (command == "client") return cmd_client(args, out, err);
  err << "error: unknown command: " << command << "\n";
  return usage(err);
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  Args parsed = parse_args(args);
  if (!parsed.error.empty()) {
    err << "error: " << parsed.error << "\n";
    return 2;
  }
  if (parsed.positional.empty()) return usage(err);

  // Observability is strictly additive: the tracer only records timings and
  // counts, so every byte of out/err (and any --store file) is identical
  // with and without --trace/--metrics.
  bool observing = parsed.metrics || !parsed.trace_file.empty();
  if (observing) obs::Tracer::instance().enable();
  // Last-resort fail-soft seam: a stray exception anywhere below (worker
  // task faults included) becomes a structured fatal error, never a crash —
  // the invariant the chaos tests sweep for.
  int code;
  try {
    code = dispatch(parsed, out, err);
  } catch (const std::exception& e) {
    err << "error: unhandled exception: " << e.what() << "\n";
    code = 1;
  }
  if (observing) {
    obs::TraceReport report = obs::Tracer::instance().flush();
    obs::Tracer::instance().disable();
    if (parsed.metrics) err << report.metrics_summary();
    if (!parsed.trace_file.empty()) {
      std::ofstream trace(parsed.trace_file, std::ios::trunc);
      trace << report.to_chrome_json();
      if (!trace) {
        err << "error: cannot write trace file " << parsed.trace_file << "\n";
        if (code == 0) code = 1;
      }
    }
  }
  return code;
}

}  // namespace tabby::cli
