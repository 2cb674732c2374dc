#include "analysis/controllability.hpp"

#include <algorithm>
#include <cstdint>

#include "cfg/cfg.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace tabby::analysis {

std::uint64_t options_fingerprint(const AnalysisOptions& options) {
  util::Fnv1a h;
  h.update("analysis-options-v1");
  h.update_u64(static_cast<std::uint64_t>(options.max_block_iterations));
  h.update_bool(options.interprocedural);
  h.update_bool(options.unknown_return_controllable);
  return h.digest();
}

namespace {

/// Source of callee Action summaries for the transfer function. The serial
/// path resolves them by recursive demand (memoized, cycles bottom out at
/// identity); the parallel path reads a snapshot table that the wave
/// scheduler guarantees is fully populated for every callee.
class ActionProvider {
 public:
  virtual ~ActionProvider() = default;
  /// Only called for resolved callees that have a body.
  virtual const Action& callee_action_of(jir::MethodId id) = 0;
};

/// The per-program-point variable state of Algorithm 1 ("localMap"): local
/// and parameter variables, one-level field entries ("a.f", "@this.f") and
/// static fields ("S:Owner.f"), each mapped to an Origin.
using LocalMap = std::map<std::string, Origin>;

std::string static_key(const std::string& owner, const std::string& field) {
  return "S:" + owner + "." + field;
}

std::string field_key(const std::string& base, const std::string& field) {
  return base + "." + field;
}

std::string array_key(const std::string& base) { return base + ".[]"; }

Origin origin_of(const LocalMap& state, const std::string& var) {
  auto it = state.find(var);
  return it == state.end() ? Origin::unknown() : it->second;
}

/// Inverse of Origin::weight(): the lossy weight -> origin mapping used when
/// folding a callee's `out` weights back into the caller's localMap
/// (Formula 3). Field information does not survive the round trip, exactly
/// as in the paper where localMap stores plain weights.
Origin origin_from_weight(Weight w) {
  if (!is_controllable(w)) return Origin::unknown();
  if (w == 0) return Origin::this_origin();
  return Origin::param_origin(static_cast<int>(w));
}

/// Optimistic join: union of keys, more-controllable origin on conflicts.
/// Returns true if `into` changed.
bool merge_into(LocalMap& into, const LocalMap& from) {
  bool changed = false;
  for (const auto& [key, origin] : from) {
    auto it = into.find(key);
    if (it == into.end()) {
      into.emplace(key, origin);
      changed = true;
    } else if (origin.weight() < it->second.weight()) {
      it->second = origin;
      changed = true;
    }
  }
  return changed;
}

/// Drop all "base.*" field entries (object identity changed: `a = new T`).
void destroy_fields_of(LocalMap& state, const std::string& base) {
  std::string prefix = base + ".";
  for (auto it = state.begin(); it != state.end();) {
    if (it->first.size() > prefix.size() && it->first.compare(0, prefix.size(), prefix) == 0) {
      it = state.erase(it);
    } else {
      ++it;
    }
  }
}

/// Copy field entries across an assignment "target = source" so the alias
/// keeps the source's known field controllability.
void copy_fields(LocalMap& state, const std::string& target, const std::string& source) {
  std::string prefix = source + ".";
  std::vector<std::pair<std::string, Origin>> copies;
  for (const auto& [key, origin] : state) {
    if (key.size() > prefix.size() && key.compare(0, prefix.size(), prefix) == 0) {
      copies.emplace_back(target + "." + key.substr(prefix.size()), origin);
    }
  }
  for (auto& [key, origin] : copies) state[key] = std::move(origin);
}

/// Statement transfer function (Table IV) + call handling (Algorithm 1
/// lines 8-15). Shared between the fixpoint and the collection pass.
class Transfer {
 public:
  Transfer(ActionProvider& provider, const jir::Program& program, const AnalysisOptions& options)
      : provider_(provider), program_(program), options_(options) {}

  /// When non-null, call sites encountered are appended (collection pass).
  void set_call_collector(std::vector<CallSite>* collector) { collector_ = collector; }

  void apply(const jir::Stmt& stmt, std::size_t stmt_index, LocalMap& state) {
    stmt_index_ = stmt_index;
    std::visit([this, &state](const auto& s) { (*this)(s, state); }, stmt);
  }

  void operator()(const jir::AssignStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    state[s.target] = origin_of(state, s.source);
    copy_fields(state, s.target, s.source);
  }
  void operator()(const jir::ConstStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    state[s.target] = Origin::unknown();
  }
  void operator()(const jir::NewStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    state[s.target] = Origin::unknown();
  }
  void operator()(const jir::FieldStoreStmt& s, LocalMap& state) {
    state[field_key(s.base, s.field)] = origin_of(state, s.source);
  }
  void operator()(const jir::FieldLoadStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    auto it = state.find(field_key(s.base, s.field));
    if (it != state.end()) {
      state[s.target] = it->second;
    } else {
      // Unseen field of a known object: field of a controllable value is
      // controllable (the attacker ships the whole object graph).
      state[s.target] = origin_of(state, s.base).member(s.field);
    }
  }
  void operator()(const jir::StaticStoreStmt& s, LocalMap& state) {
    state[static_key(s.owner, s.field)] = origin_of(state, s.source);
  }
  void operator()(const jir::StaticLoadStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    auto it = state.find(static_key(s.owner, s.field));
    state[s.target] = it == state.end() ? Origin::unknown() : it->second;
  }
  void operator()(const jir::ArrayStoreStmt& s, LocalMap& state) {
    // Merge rather than overwrite: any element may be read back.
    std::string key = array_key(s.base);
    Origin incoming = origin_of(state, s.source);
    auto it = state.find(key);
    if (it == state.end() || incoming.weight() < it->second.weight()) state[key] = incoming;
  }
  void operator()(const jir::ArrayLoadStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    auto it = state.find(array_key(s.base));
    if (it != state.end()) {
      state[s.target] = it->second;
    } else {
      state[s.target] = origin_of(state, s.base);  // element of controllable array
    }
  }
  void operator()(const jir::CastStmt& s, LocalMap& state) {
    destroy_fields_of(state, s.target);
    state[s.target] = origin_of(state, s.source);
    copy_fields(state, s.target, s.source);
  }
  void operator()(const jir::ReturnStmt&, LocalMap&) {}  // handled by exit collection
  void operator()(const jir::IfStmt&, LocalMap&) {}
  void operator()(const jir::GotoStmt&, LocalMap&) {}
  void operator()(const jir::LabelStmt&, LocalMap&) {}
  void operator()(const jir::ThrowStmt&, LocalMap&) {}
  void operator()(const jir::NopStmt&, LocalMap&) {}

  void operator()(const jir::InvokeStmt& s, LocalMap& state) {
    // Polluted_Position: receiver weight then argument weights.
    PollutedPosition pp;
    pp.reserve(s.args.size() + 1);
    Origin receiver =
        s.kind == jir::InvokeKind::Static ? Origin::unknown() : origin_of(state, s.base);
    pp.push_back(receiver.weight());
    std::vector<Origin> arg_origins;
    arg_origins.reserve(s.args.size());
    for (const std::string& arg : s.args) {
      arg_origins.push_back(origin_of(state, arg));
      pp.push_back(arg_origins.back().weight());
    }

    std::optional<jir::MethodId> resolved =
        program_.resolve_method(s.callee.owner, s.callee.name, s.callee.nargs);

    if (collector_ != nullptr) {
      collector_->push_back(CallSite{stmt_index_, s.callee, s.kind, resolved, pp});
    }

    // in = caller-frame weights of the callee's inputs (Fig. 5(d)).
    InWeights in;
    in["this"] = pp[0];
    for (std::size_t i = 0; i < s.args.size(); ++i) {
      in["init-param-" + std::to_string(i + 1)] = pp[i + 1];
    }

    // The callee's summary is read in place; only a bodyless (or, without
    // interprocedural analysis, any) callee gets a synthesized Action.
    const bool summarised = options_.interprocedural && resolved &&
                            program_.method(*resolved).has_body();
    const Action& action = summarised ? provider_.callee_action_of(*resolved)
                                      : bodyless_action(s, receiver, arg_origins);
    std::map<std::string, Weight> out = calc(action, in);

    // correct (Formula 3): fold callee outputs back into caller names.
    for (const auto& [key, weight] : out) {
      if (key == kReturnKey) {
        if (!s.target.empty()) {
          destroy_fields_of(state, s.target);
          state[s.target] = origin_from_weight(weight);
        }
        continue;
      }
      apply_out_entry(key, weight, s, state);
    }
  }

 private:
  /// Routes one `out` entry ("this", "this.x", "final-param-i",
  /// "final-param-i.x") onto the caller-side expression it denotes.
  void apply_out_entry(const std::string& key, Weight weight, const jir::InvokeStmt& s,
                       LocalMap& state) {
    auto set_var = [&state](const std::string& var, Weight w) {
      if (var.empty()) return;
      state[var] = origin_from_weight(w);
    };
    auto set_field = [&state](const std::string& var, const std::string& f, Weight w) {
      if (var.empty()) return;
      state[field_key(var, f)] = origin_from_weight(w);
    };

    if (key == "this") {
      if (s.kind != jir::InvokeKind::Static) set_var(s.base, weight);
      return;
    }
    if (key.rfind("this.", 0) == 0) {
      if (s.kind != jir::InvokeKind::Static) set_field(s.base, key.substr(5), weight);
      return;
    }
    constexpr std::string_view kFinal = "final-param-";
    if (key.rfind(kFinal, 0) == 0) {
      std::string rest = key.substr(kFinal.size());
      std::size_t dot = rest.find('.');
      std::string index_text = dot == std::string::npos ? rest : rest.substr(0, dot);
      int index = std::atoi(index_text.c_str());
      if (index < 1 || index > static_cast<int>(s.args.size())) return;
      const std::string& arg_var = s.args[static_cast<std::size_t>(index - 1)];
      if (dot == std::string::npos) {
        set_var(arg_var, weight);
      } else {
        set_field(arg_var, rest.substr(dot + 1), weight);
      }
    }
  }

  /// Fills the scratch Action for a call without a callee summary.
  const Action& bodyless_action(const jir::InvokeStmt& s, const Origin& receiver,
                                const std::vector<Origin>& args) {
    Action& action = scratch_;
    action = Action::identity(s.callee.nargs, s.kind == jir::InvokeKind::Static);
    if (options_.unknown_return_controllable) {
      // Permissive model: result controllable if any input is. The Action
      // value must name the *callee-frame input slot* that was controllable
      // (this / init-param-i), so calc() maps it back to the caller weight.
      int best_slot = -1;  // -1 = receiver, i >= 0 = argument index
      Weight best = receiver.weight();
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].weight() < best) {
          best = args[i].weight();
          best_slot = static_cast<int>(i);
        }
      }
      if (is_controllable(best)) {
        action.set(std::string(kReturnKey),
                   best_slot < 0 ? Origin::this_origin() : Origin::param_origin(best_slot + 1));
      }
    }
    return action;
  }

  ActionProvider& provider_;
  const jir::Program& program_;
  const AnalysisOptions& options_;
  std::vector<CallSite>* collector_ = nullptr;
  std::size_t stmt_index_ = 0;
  Action scratch_;  // the bodyless callee's Action, refilled per call
};

LocalMap entry_state(const jir::Method& method) {
  LocalMap state;
  if (!method.mods.is_static) state[std::string(jir::kThisVar)] = Origin::this_origin();
  for (int i = 1; i <= method.nargs(); ++i) state[jir::param_var(i)] = Origin::param_origin(i);
  return state;
}

/// Folds one exit-point state into the accumulating Action.
void accumulate_exit(Action& action, const LocalMap& state, const jir::Method& method,
                     const std::string& return_var) {
  auto merge_entry = [&action](const std::string& key, const Origin& origin) {
    auto it = action.entries.find(key);
    if (it == action.entries.end()) {
      action.entries.emplace(key, origin);
    } else {
      it->second = merge(it->second, origin);
    }
  };

  if (!method.ret.is_void()) {
    Origin ret = return_var.empty() ? Origin::unknown() : origin_of(state, return_var);
    merge_entry(std::string(kReturnKey), ret);
  }
  for (int i = 1; i <= method.nargs(); ++i) {
    merge_entry(final_param_key(i), origin_of(state, jir::param_var(i)));
  }
  // Field entries of params and @this.
  for (const auto& [key, origin] : state) {
    constexpr std::string_view kThisPrefix = "@this.";
    if (key.rfind(kThisPrefix, 0) == 0) {
      merge_entry(this_key(key.substr(kThisPrefix.size())), origin);
      continue;
    }
    if (key.rfind("@p", 0) == 0) {
      std::size_t dot = key.find('.');
      if (dot == std::string::npos) continue;
      int index = std::atoi(key.substr(2, dot - 2).c_str());
      if (index >= 1 && index <= method.nargs()) {
        merge_entry(final_param_key(index, key.substr(dot + 1)), origin);
      }
    }
  }
}

/// The per-method analysis of Algorithm 1, parameterized over the callee
/// summary source. Pure: given the same body and the same provider answers it
/// returns the same summary, which is what lets the wave scheduler run it on
/// any thread. `prebuilt` reuses a CFG constructed elsewhere (nullptr builds
/// one locally, the historical behavior).
MethodSummary compute_summary(const jir::Program& program, const AnalysisOptions& options,
                              jir::MethodId id, ActionProvider& provider,
                              const cfg::ControlFlowGraph* prebuilt) {
  const jir::Method& method = program.method(id);
  MethodSummary summary;

  if (!method.has_body() || method.body.empty()) {
    summary.action = Action::identity(method.nargs(), method.mods.is_static);
    if (method.mods.is_static) summary.action.set("this", Origin::unknown());
    return summary;
  }

  std::optional<cfg::ControlFlowGraph> local_graph;
  if (prebuilt == nullptr) local_graph.emplace(method);
  const cfg::ControlFlowGraph& graph = prebuilt != nullptr ? *prebuilt : *local_graph;
  const auto& blocks = graph.blocks();
  std::vector<cfg::BlockId> order = graph.reverse_post_order();

  Transfer transfer(provider, program, options);

  // Fixpoint over block input states.
  std::vector<LocalMap> in_states(blocks.size());
  std::vector<bool> has_in(blocks.size(), false);
  if (!blocks.empty()) {
    in_states[graph.entry()] = entry_state(method);
    has_in[graph.entry()] = true;
  }

  for (int round = 0; round < options.max_block_iterations; ++round) {
    bool changed = false;
    for (cfg::BlockId block_id : order) {
      if (!has_in[block_id]) continue;
      LocalMap state = in_states[block_id];
      for (std::size_t i = blocks[block_id].first; i < blocks[block_id].last; ++i) {
        transfer.apply(method.body[i], i, state);
      }
      for (cfg::BlockId succ : blocks[block_id].successors) {
        if (!has_in[succ]) {
          in_states[succ] = state;
          has_in[succ] = true;
          changed = true;
        } else if (merge_into(in_states[succ], state)) {
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Collection pass: replay each reachable block from its converged input,
  // recording call sites and folding exit states into the Action.
  transfer.set_call_collector(&summary.call_sites);
  for (cfg::BlockId block_id : order) {
    if (!has_in[block_id]) continue;
    LocalMap state = in_states[block_id];
    for (std::size_t i = blocks[block_id].first; i < blocks[block_id].last; ++i) {
      const jir::Stmt& stmt = method.body[i];
      if (const auto* ret = std::get_if<jir::ReturnStmt>(&stmt)) {
        accumulate_exit(summary.action, state, method, ret->value);
      }
      transfer.apply(stmt, i, state);
    }
    // Implicit exit: a block with no successors not ending in return/throw.
    if (blocks[block_id].successors.empty()) {
      const jir::Stmt& last = method.body[blocks[block_id].last - 1];
      if (!std::holds_alternative<jir::ReturnStmt>(last) &&
          !std::holds_alternative<jir::ThrowStmt>(last)) {
        accumulate_exit(summary.action, state, method, "");
      }
    }
  }
  // Deterministic call-site order regardless of block iteration order.
  std::sort(summary.call_sites.begin(), summary.call_sites.end(),
            [](const CallSite& a, const CallSite& b) { return a.stmt_index < b.stmt_index; });

  // Identity entries for anything an exit never mentioned (e.g. a method
  // whose every path throws) plus the static-this marker.
  Action identity = Action::identity(method.nargs(), method.mods.is_static);
  for (const auto& [key, origin] : identity.entries) {
    summary.action.entries.emplace(key, origin);
  }
  if (!method.mods.is_static) {
    summary.action.entries.emplace("this", Origin::this_origin());
  } else {
    summary.action.entries.emplace("this", Origin::unknown());
  }
  return summary;
}

/// Serial provider: recursive memoized demand through summary(), with the
/// in_progress set bottoming out cycles.
class RecursiveProvider final : public ActionProvider {
 public:
  explicit RecursiveProvider(ControllabilityAnalysis& analysis) : analysis_(analysis) {}
  const Action& callee_action_of(jir::MethodId id) override { return analysis_.summary(id).action; }

 private:
  ControllabilityAnalysis& analysis_;
};

/// Parallel provider: reads the published snapshot table. A self-call (direct
/// recursion) yields the same identity bottom the serial path produces.
class TableProvider final : public ActionProvider {
 public:
  TableProvider(const std::vector<std::uint32_t>& class_offset,
                const std::vector<MethodSummary>& table, std::uint32_t self,
                const jir::Method& self_method)
      : class_offset_(class_offset),
        table_(table),
        self_(self),
        bottom_(Action::identity(self_method.nargs(), self_method.mods.is_static)) {}

  const Action& callee_action_of(jir::MethodId id) override {
    std::uint32_t index = class_offset_[id.class_index] + id.method_index;
    if (index == self_) return bottom_;
    return table_[index].action;
  }

 private:
  const std::vector<std::uint32_t>& class_offset_;
  const std::vector<MethodSummary>& table_;
  std::uint32_t self_;
  Action bottom_;
};

}  // namespace

ControllabilityAnalysis::ControllabilityAnalysis(const jir::Program& program,
                                                 const jir::Hierarchy& hierarchy,
                                                 AnalysisOptions options)
    : program_(&program), hierarchy_(&hierarchy), options_(options) {}

const MethodSummary& ControllabilityAnalysis::summary(jir::MethodId id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  if (in_progress_.count(id) != 0) {
    // Recursive cycle: bottom out at the identity summary. Inserted into the
    // cache so the whole cycle sees a consistent value; overwritten by the
    // full result when the outer computation finishes.
    const jir::Method& m = program_->method(id);
    MethodSummary bottom;
    bottom.action = Action::identity(m.nargs(), m.mods.is_static);
    return cache_.emplace(id, std::move(bottom)).first->second;
  }
  in_progress_.insert(id);
  MethodSummary result = compute(id);
  in_progress_.erase(id);
  // A recursive cycle may have inserted a bottom summary meanwhile;
  // overwrite it with the final result.
  MethodSummary& slot = cache_[id];
  slot = std::move(result);
  return slot;
}

MethodSummary ControllabilityAnalysis::compute(jir::MethodId id) {
  RecursiveProvider provider(*this);
  return compute_summary(*program_, options_, id, provider, nullptr);
}

void ControllabilityAnalysis::precompute(util::Executor* executor) {
  obs::Span span("analysis.precompute");
  const jir::Program& program = *program_;
  const std::vector<jir::MethodId> methods = program.all_methods();
  const std::size_t n = methods.size();
  precompute_stats_ = {};
  if (n == 0) return;
  span.attr("methods", static_cast<std::uint64_t>(n));

  // Dense method numbering: flat index = class_offset[class] + method index,
  // matching the all_methods() enumeration order.
  std::vector<std::uint32_t> class_offset(program.class_count() + 1, 0);
  for (std::size_t ci = 0; ci < program.class_count(); ++ci) {
    class_offset[ci + 1] =
        class_offset[ci] + static_cast<std::uint32_t>(program.classes()[ci].methods.size());
  }
  auto dense = [&class_offset](jir::MethodId id) {
    return class_offset[id.class_index] + id.method_index;
  };

  // Phase 0: per-method CFGs, fanned out across workers.
  std::vector<std::optional<cfg::ControlFlowGraph>> cfgs = cfg::build_graphs(program, executor);

  // Phase 1 (parallel): call-graph scan. callees[i] over-approximates the set
  // of summaries compute_summary() may demand for method i — every invoke in
  // the body, resolved exactly as the transfer function resolves it. The
  // over-approximation only affects scheduling, never results.
  std::vector<std::vector<std::uint32_t>> callees(n);
  util::run_indexed(executor, n, [&](std::size_t i) {
    if (!options_.interprocedural) return;  // no callee summary is ever demanded
    const jir::Method& m = program.method(methods[i]);
    if (!m.has_body()) return;
    std::vector<std::uint32_t>& out = callees[i];
    for (const jir::Stmt& stmt : m.body) {
      const auto* invoke = std::get_if<jir::InvokeStmt>(&stmt);
      if (invoke == nullptr) continue;
      std::optional<jir::MethodId> resolved =
          program.resolve_method(invoke->callee.owner, invoke->callee.name, invoke->callee.nargs);
      if (!resolved || !program.method(*resolved).has_body()) continue;
      std::uint32_t target = dense(*resolved);
      if (std::find(out.begin(), out.end(), target) == out.end()) out.push_back(target);
    }
  });

  // Phase 2 (serial, cheap): Tarjan SCC condensation of the call graph.
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> disc(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> comp(n, kUnvisited);
  std::vector<std::uint32_t> comp_size;
  {
    std::vector<std::uint32_t> tarjan_stack;
    std::vector<bool> on_stack(n, false);
    struct Frame {
      std::uint32_t node;
      std::size_t next_child;
    };
    std::vector<Frame> dfs;
    std::uint32_t timer = 0;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (disc[root] != kUnvisited) continue;
      dfs.push_back({root, 0});
      disc[root] = low[root] = timer++;
      tarjan_stack.push_back(root);
      on_stack[root] = true;
      while (!dfs.empty()) {
        Frame& frame = dfs.back();
        if (frame.next_child < callees[frame.node].size()) {
          std::uint32_t child = callees[frame.node][frame.next_child++];
          if (disc[child] == kUnvisited) {
            dfs.push_back({child, 0});
            disc[child] = low[child] = timer++;
            tarjan_stack.push_back(child);
            on_stack[child] = true;
          } else if (on_stack[child]) {
            low[frame.node] = std::min(low[frame.node], disc[child]);
          }
          continue;
        }
        std::uint32_t node = frame.node;
        dfs.pop_back();
        if (low[node] == disc[node]) {
          std::uint32_t id = static_cast<std::uint32_t>(comp_size.size());
          std::uint32_t size = 0;
          while (true) {
            std::uint32_t member = tarjan_stack.back();
            tarjan_stack.pop_back();
            on_stack[member] = false;
            comp[member] = id;
            ++size;
            if (member == node) break;
          }
          comp_size.push_back(size);
        }
        if (!dfs.empty()) low[dfs.back().node] = std::min(low[dfs.back().node], low[node]);
      }
    }
  }

  // Phase 3 (serial): taint multi-method cycles and everything that
  // transitively calls into one. Those summaries depend on the serial
  // algorithm's demand order, so they are delegated to it verbatim; direct
  // self-recursion is order-independent (the one entry always bottoms out at
  // identity) and stays wave-schedulable.
  std::vector<std::vector<std::uint32_t>> callers(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j : callees[i]) {
      if (j != i) callers[j].push_back(i);
    }
  }
  std::vector<bool> tainted(n, false);
  std::vector<std::uint32_t> work;
  std::size_t cyclic = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp_size[comp[i]] > 1) {
      tainted[i] = true;
      ++cyclic;
      work.push_back(i);
    }
  }
  while (!work.empty()) {
    std::uint32_t current = work.back();
    work.pop_back();
    for (std::uint32_t caller : callers[current]) {
      if (!tainted[caller]) {
        tainted[caller] = true;
        work.push_back(caller);
      }
    }
  }

  // Phase 4: Kahn wave schedule over the untainted (acyclic) subgraph, then
  // one parallel_for per wave. Workers write disjoint slots of `table`; they
  // read only slots published by earlier waves (plus the self bottom), so
  // the table acts as an immutable snapshot and no reader ever locks.
  std::vector<std::uint32_t> remaining(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (tainted[i]) continue;
    for (std::uint32_t j : callees[i]) {
      if (j != i) ++remaining[i];  // untainted => every callee is untainted
    }
  }
  std::vector<std::uint32_t> wave;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!tainted[i] && remaining[i] == 0) wave.push_back(i);
  }

  std::vector<MethodSummary> table(n);
  while (!wave.empty()) {
    obs::Span wave_span("analysis.wave");
    wave_span.attr("wave", static_cast<std::uint64_t>(precompute_stats_.waves));
    wave_span.attr("methods", static_cast<std::uint64_t>(wave.size()));
    obs::counter_add("analysis.scc_waves");
    ++precompute_stats_.waves;
    precompute_stats_.wave_methods += wave.size();
    util::run_indexed(executor, wave.size(), [&](std::size_t k) {
      std::uint32_t i = wave[k];
      TableProvider provider(class_offset, table, i, program.method(methods[i]));
      const std::optional<cfg::ControlFlowGraph>& prebuilt = cfgs[i];
      table[i] = compute_summary(program, options_, methods[i], provider,
                                 prebuilt ? &*prebuilt : nullptr);
    });
    std::vector<std::uint32_t> next;
    for (std::uint32_t i : wave) {
      for (std::uint32_t caller : callers[i]) {
        if (!tainted[caller] && --remaining[caller] == 0) next.push_back(caller);
      }
    }
    wave = std::move(next);
  }

  // Publish the wave results into the demand cache, then drive the tainted
  // remainder through the serial path in all_methods() order — the same
  // order the CPG builder has always demanded summaries in, so the cycle
  // entries (and with them every downstream result) match a pure serial run
  // bit for bit.
  for (std::size_t i = 0; i < n; ++i) {
    if (!tainted[i]) cache_.emplace(methods[i], std::move(table[i]));
  }
  precompute_stats_.cyclic_methods = cyclic;
  obs::Span serial_span("analysis.serial_tail");
  for (std::size_t i = 0; i < n; ++i) {
    if (tainted[i]) {
      ++precompute_stats_.serial_methods;
      summary(methods[i]);
    }
  }
  serial_span.attr("methods", static_cast<std::uint64_t>(precompute_stats_.serial_methods));
}

}  // namespace tabby::analysis
