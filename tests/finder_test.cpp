// Tests for gadget-chain finding (§III-D): the URLDNS chain end to end, the
// Figure 1 EvilObject chain, Trigger_Condition rejection, alias dead-ends
// (EnumMap), depth limits, and the Figure 6 exclusion example. Each search
// runs over the builder's GraphDb (the reference) and over its frozen CSR
// frame (what every product request reads), and the two must agree.
#include <gtest/gtest.h>

#include <chrono>

#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "fixtures.hpp"
#include "graph/frozen.hpp"

namespace tabby::finder {
namespace {

using graph::NodeId;
using graph::Value;

NodeId node_by_signature(const graph::GraphDb& db, const std::string& sig) {
  auto hits = db.find_nodes(std::string(cpg::kMethodLabel), std::string(cpg::kPropSignature),
                            Value{sig});
  EXPECT_EQ(hits.size(), 1u) << sig;
  return hits.empty() ? graph::kNoNode : hits[0];
}

/// Searches `db` and its frozen frame with the same options, expects the
/// same chains (keys, in order), expansions and partial sinks from both, and
/// returns the frame's report.
FinderReport find_both(const graph::GraphDb& db, const FinderOptions& options = {}) {
  FinderReport reference = GadgetChainFinder(db, options).find_all();
  auto frozen = graph::FrozenGraph::freeze(db);
  EXPECT_TRUE(frozen.ok()) << frozen.error().to_string();
  if (!frozen.ok()) return reference;
  FinderReport report = GadgetChainFinder(frozen.value(), options).find_all();
  auto keys = [](const FinderReport& r) {
    std::vector<std::string> out;
    for (const GadgetChain& chain : r.chains) out.push_back(chain.key());
    return out;
  };
  EXPECT_EQ(keys(report), keys(reference));
  EXPECT_EQ(report.expansions, reference.expansions);
  EXPECT_EQ(report.partial_sinks.size(), reference.partial_sinks.size());
  return report;
}

TEST(Finder, FindsTheUrldnsChain) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderReport report = find_both(cpg.db);

  ASSERT_EQ(report.chains.size(), 1u);
  const GadgetChain& chain = report.chains[0];
  EXPECT_EQ(chain.source_signature(), "java.util.HashMap#readObject/1");
  EXPECT_EQ(chain.sink_signature(), "java.net.InetAddress#getByName/1");
  EXPECT_EQ(chain.sink_type, "SSRF");

  // Exact method-call stack from Figure 3, alias hop included.
  std::vector<std::string> expected{
      "java.util.HashMap#readObject/1",  "java.util.HashMap#hash/1",
      "java.lang.Object#hashCode/0",     "java.net.URL#hashCode/0",
      "java.net.URLStreamHandler#hashCode/1",
      "java.net.URLStreamHandler#getHostAddress/1",
      "java.net.InetAddress#getByName/1"};
  EXPECT_EQ(chain.signatures, expected);
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_GT(report.sinks_considered, 0u);
}

TEST(Finder, EnumMapDeadEndProducesNoExtraChain) {
  // Searching upwards from the sink never touches EnumMap.entryHashCode:
  // the paper's motivation for sink-to-source search.
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  for (const GadgetChain& chain : find_both(cpg.db).chains) {
    for (const std::string& sig : chain.signatures) {
      EXPECT_EQ(sig.find("EnumMap"), std::string::npos);
    }
  }
}

TEST(Finder, FindsEvilObjectChain) {
  jir::Program p = testing::evil_object_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderReport report = find_both(cpg.db);

  ASSERT_GE(report.chains.size(), 1u);
  bool found = false;
  for (const GadgetChain& chain : report.chains) {
    if (chain.source_signature() == "demo.EvilObjectA#readObject/1" &&
        chain.sink_signature() == "java.lang.Runtime#exec/1") {
      found = true;
      EXPECT_EQ(chain.sink_type, "EXEC");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Finder, ChainToStringShowsSourceAndSink) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  auto chains = find_both(cpg.db).chains;
  ASSERT_FALSE(chains.empty());
  std::string text = chains[0].to_string();
  EXPECT_NE(text.find("(source)java.util.HashMap#readObject/1"), std::string::npos);
  EXPECT_NE(text.find("(sink)  java.net.InetAddress#getByName/1"), std::string::npos);
}

TEST(Finder, DepthLimitCutsLongChains) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderOptions options;
  options.max_depth = 3;  // the URLDNS chain needs 6 hops
  EXPECT_TRUE(find_both(cpg.db, options).chains.empty());

  options.max_depth = 6;
  EXPECT_EQ(find_both(cpg.db, options).chains.size(), 1u);
}

TEST(Finder, WithoutAliasEdgesPolymorphicChainIsLost) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderOptions options;
  options.use_alias_edges = false;
  EXPECT_TRUE(find_both(cpg.db, options).chains.empty());
}

TEST(Finder, TriggerConditionRejectsUncontrollableArgument) {
  // A "chain" whose sink argument is a constant must be rejected by the
  // Expander (one of its TC entries maps to ∞).
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto runtime = pb.add_class("java.lang.Runtime");
  runtime.method("exec").param("java.lang.String").returns("void").set_native();
  auto cls = pb.add_class("demo.Fixed");
  cls.serializable();
  cls.method("readObject")
      .param("java.io.ObjectInputStream")
      .returns("void")
      .const_str("cmd", "echo fixed")
      .new_object("rt", "java.lang.Runtime")
      .invoke_virtual("", "rt", "java.lang.Runtime", "exec", {"cmd"})
      .ret();
  jir::Program p = pb.build();

  // Keep the raw MCG so the CALL edge itself survives; the finder's TC
  // check must still reject it.
  cpg::CpgOptions options;
  options.prune_uncontrollable_calls = false;
  cpg::Cpg cpg = cpg::build_cpg(p, options);
  EXPECT_TRUE(find_both(cpg.db).chains.empty());

  // Sanity: with TC checking disabled the path is "found" (a false
  // positive) — the Serianalyzer failure mode.
  FinderOptions loose;
  loose.check_trigger_conditions = false;
  EXPECT_EQ(find_both(cpg.db, loose).chains.size(), 1u);
}

TEST(Finder, CustomSourcePredicate) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  NodeId sink = node_by_signature(cpg.db, "java.net.InetAddress#getByName/1");
  GadgetChainFinder finder(cpg.db);
  // RQ4 workflow: ask for chains ending anywhere in URL instead.
  auto chains = finder.find_from_sink(sink, [](const graph::Node& n) {
    return n.prop_string(std::string(cpg::kPropClassName)) == "java.net.URL";
  });
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].source_signature(), "java.net.URL#hashCode/0");
}

TEST(Finder, DeduplicatesIdenticalChains) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  auto report = find_both(cpg.db);
  std::set<std::string> keys;
  for (const GadgetChain& c : report.chains) keys.insert(c.key());
  EXPECT_EQ(keys.size(), report.chains.size());
}

// --- Figure 6: the expander/evaluator exclusion example ----------------------
//
// Method nodes A (sink) .. J. The paper excludes E and I via the Expander
// (uncontrollable TC) and G via the Evaluator (depth). We rebuild the shape:
//   I -CALL-> C1 -ALIAS-> C -CALL-> A   where I's call makes TC ∞ (excluded)
//   H (source) -CALL-> C2 -ALIAS-> C -CALL-> A  (accepted)
//   G: a source so deep the depth bound excludes it.
TEST(Figure6, ExpanderAndEvaluatorExclusions) {
  graph::GraphDb db;
  auto method = [&](const std::string& name, bool source, bool sink) {
    graph::PropertyMap props;
    props[std::string(cpg::kPropName)] = name;
    props[std::string(cpg::kPropClassName)] = std::string("fig6");
    props[std::string(cpg::kPropSignature)] = "fig6#" + name + "/0";
    props[std::string(cpg::kPropIsSource)] = source;
    props[std::string(cpg::kPropIsSink)] = sink;
    if (sink) {
      props[std::string(cpg::kPropTriggerCondition)] = std::vector<std::int64_t>{1};
    }
    return db.add_node(std::string(cpg::kMethodLabel), props);
  };
  auto call = [&](NodeId from, NodeId to, std::vector<std::int64_t> pp) {
    graph::PropertyMap props;
    props[std::string(cpg::kPropPollutedPosition)] = std::move(pp);
    db.add_edge(from, to, std::string(cpg::kCallEdge), props);
  };

  constexpr std::int64_t kInf = 1'000'000'000;
  NodeId a = method("A", false, true);
  NodeId c = method("C", false, false);
  NodeId c1 = method("C1", false, false);
  NodeId c2 = method("C2", false, false);
  NodeId i = method("I", false, false);   // excluded by Expander
  NodeId h = method("H", true, false);    // the real source
  NodeId g1 = method("G1", false, false);
  NodeId g = method("G", true, false);    // excluded by Evaluator (too deep)

  call(c, a, {0, 1});                 // C calls sink A with controllable arg
  db.add_edge(c1, c, std::string(cpg::kAliasEdge));
  db.add_edge(c2, c, std::string(cpg::kAliasEdge));
  call(i, c1, {0, kInf});             // I's argument is uncontrollable
  call(h, c2, {0, 1});                // H's argument is controllable
  call(g1, c2, {0, 1});               // long detour to G
  call(g, g1, {0, 1});

  FinderOptions options;
  // The paper's plugin walks ALIAS edges in both directions (C -> C1).
  options.alias_bidirectional = true;
  options.max_depth = 3;  // path H -> C2 -> C -> A fits; G's detour does not
  auto report = find_both(db, options);
  ASSERT_EQ(report.chains.size(), 1u);
  EXPECT_EQ(report.chains[0].signatures.front(), "fig6#H/0");
  // Raising the depth admits G as well.
  options.max_depth = 6;
  EXPECT_EQ(find_both(db, options).chains.size(), 2u);
  // Default (forward-only alias) finds neither: the CALL edges here target
  // the subclass declarations C1/C2 directly.
  EXPECT_TRUE(find_both(db).chains.empty());
}

TEST(Finder, ExpiredDeadlineMarksEverySinkPartial) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderOptions options;
  options.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  FinderReport report = find_both(cpg.db, options);
  EXPECT_TRUE(report.partial());
  EXPECT_EQ(report.partial_sinks.size(), report.sinks_considered);
  EXPECT_TRUE(report.chains.empty());  // nothing expanded, nothing invented
  for (const PartialSink& sink : report.partial_sinks) {
    EXPECT_FALSE(sink.signature.empty());
  }
}

TEST(Finder, GenerousDeadlineLeavesTheReportIdentical) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  FinderOptions bounded;
  bounded.deadline = util::Deadline::after(std::chrono::hours{1});
  FinderReport with = find_both(cpg.db, bounded);
  FinderReport without = find_both(cpg.db);
  EXPECT_FALSE(with.partial());
  ASSERT_EQ(with.chains.size(), without.chains.size());
  for (std::size_t i = 0; i < with.chains.size(); ++i) {
    EXPECT_EQ(with.chains[i].signatures, without.chains[i].signatures);
  }
}

TEST(Finder, CancelTokenCutsTheSearchShort) {
  jir::Program p = testing::urldns_program();
  cpg::Cpg cpg = cpg::build_cpg(p);
  util::CancelToken token;
  token.cancel();
  FinderOptions options;
  options.deadline.bind(&token);
  FinderReport report = find_both(cpg.db, options);
  EXPECT_TRUE(report.partial());
}

}  // namespace
}  // namespace tabby::finder
