// Quickstart: the paper's Figure 1 example end to end.
//
// 1. Express EvilObjectA / EvilObjectB in textual JIR (the Jimple-like IR).
// 2. Build the Code Property Graph.
// 3. Find the gadget chain readObject -> toString -> Runtime.exec.
// 4. Verify it with the runtime VM (the automated PoC).
//
// Run:  ./quickstart
#include <cstdio>

#include "finder/finder.hpp"
#include "jir/builder.hpp"
#include "jir/parser.hpp"
#include "pipeline/engine.hpp"
#include "runtime/objectgraph.hpp"
#include "runtime/vm.hpp"

namespace {

constexpr const char* kFigure1 = R"(
// Figure 1 of the paper, in textual JIR.
class java.lang.Runtime {
  static method getRuntime() : java.lang.Runtime {
    r = new java.lang.Runtime;
    return r;
  }
  native method exec(java.lang.String) : java.lang.Process;
}

class demo.EvilObjectA implements java.io.Serializable {
  field java.lang.Object val1;
  method readObject(java.io.ObjectInputStream) : void {
    valObj = @this.val1;
    s = virtualinvoke valObj.<java.lang.Object#toString/0>();
    return;
  }
}

class demo.EvilObjectB implements java.io.Serializable {
  field java.lang.Object val2;
  method toString() : java.lang.String {
    v2 = @this.val2;
    cmd = virtualinvoke v2.<java.lang.Object#toString/0>();
    rt = staticinvoke <java.lang.Runtime#getRuntime/0>();
    p = virtualinvoke rt.<java.lang.Runtime#exec/1>(cmd);
    done = "done";
    return done;
  }
}
)";

}  // namespace

int main() {
  using namespace tabby;

  // Parse the textual IR and add the core JDK classes (Object, String, ...).
  auto parsed = jir::parse_program(kFigure1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error().to_string().c_str());
    return 1;
  }
  jir::ProgramBuilder core;
  core.with_core_classes();
  jir::Program core_program = core.build();
  // Merge: quickest path is to re-add the parsed classes onto the core.
  for (const jir::ClassDecl& cls : parsed.value().classes()) core_program.add_class(cls);

  // Build the CPG (ORG + PCG + MAG, §III-B) through the session engine —
  // the supported embedding surface, and the same machinery `tabby serve`
  // keeps resident. One Engine per process, one Analysis per program.
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto opened = engine.open(core_program, ctx);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.error().to_string().c_str());
    return 1;
  }
  pipeline::AnalysisPtr analysis = opened.value();
  const pipeline::Outcome& outcome = analysis->outcome();
  std::printf("CPG: %zu class nodes, %zu method nodes, %zu edges (%zu CALL, %zu ALIAS)\n",
              outcome.stats.class_nodes, outcome.stats.method_nodes,
              outcome.stats.relationship_edges, outcome.stats.call_edges,
              outcome.stats.alias_edges);
  std::printf("     %zu sources, %zu sinks, %zu uncontrollable call sites pruned\n\n",
              outcome.stats.source_methods, outcome.stats.sink_methods,
              outcome.stats.pruned_call_sites);

  // Find gadget chains (§III-D): Analysis::find carries the whole finder
  // orchestration (depth, deadlines, frozen/store dispatch) in one call.
  pipeline::FindResult found = analysis->find(ctx);
  std::printf("Found %zu gadget chain(s):\n\n", found.report.chains.size());
  for (const finder::GadgetChain& chain : found.report.chains) {
    std::printf("%s\n", chain.to_string().c_str());
  }

  // Verify with the deserialization VM: EvilObjectA{val1 = EvilObjectB{val2 = cmd}}.
  runtime::ObjectGraphSpec spec;
  spec.objects["a"] = runtime::ObjectSpec{"demo.EvilObjectA", {{"val1", runtime::Ref{"b"}}}, {}};
  spec.objects["b"] =
      runtime::ObjectSpec{"demo.EvilObjectB", {{"val2", std::string("open -a Calculator")}}, {}};
  spec.root = "a";

  jir::Hierarchy hierarchy(core_program);
  runtime::Interpreter vm(core_program, hierarchy);
  runtime::ExecutionResult result = vm.deserialize(runtime::instantiate(spec));
  std::printf("VM verification: attack %s (%zu sink hit(s), %zu steps)\n",
              result.attack_succeeded() ? "SUCCEEDED" : "failed", result.sink_hits.size(),
              result.steps);
  if (!result.sink_hits.empty()) {
    std::printf("observed call stack:\n");
    for (const std::string& frame : result.sink_hits[0].call_stack) {
      std::printf("  %s\n", frame.c_str());
    }
  }
  return result.attack_succeeded() ? 0 : 1;
}
