// Tests for CPG construction (§III-B): ORG shape, HAS/EXTEND/INTERFACE
// edges, CALL edges with Polluted_Position, pruning (MCG -> PCG), ALIAS
// edges (Formula 1), sink/source annotation and phantom handling — checked
// against the paper's URLDNS example (Figure 4).
#include <gtest/gtest.h>

#include "analysis/domain.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "cpg/sinks.hpp"
#include "fixtures.hpp"

namespace tabby::cpg {
namespace {

using graph::NodeId;
using graph::Value;

NodeId method_node(const graph::GraphDb& db, const std::string& owner, const std::string& name,
                   int nargs) {
  auto hits = db.find_nodes(std::string(kMethodLabel), std::string(kPropSignature),
                            Value{method_signature(owner, name, nargs)});
  EXPECT_EQ(hits.size(), 1u) << owner << "#" << name << "/" << nargs;
  return hits.empty() ? graph::kNoNode : hits[0];
}

NodeId class_node(const graph::GraphDb& db, const std::string& name) {
  auto hits = db.find_nodes(std::string(kClassLabel), std::string(kPropName), Value{name});
  EXPECT_EQ(hits.size(), 1u) << name;
  return hits.empty() ? graph::kNoNode : hits[0];
}

TEST(SinkRegistry, DefaultsCoverTableVII) {
  SinkRegistry r = SinkRegistry::defaults();
  EXPECT_EQ(r.size(), 38u);  // the paper summarises 38 sink methods

  const SinkSpec* exec = r.match("java.lang.Runtime", "exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->type, "EXEC");
  EXPECT_EQ(exec->trigger, (std::vector<int>{1}));

  const SinkSpec* invoke = r.match("java.lang.reflect.Method", "invoke");
  ASSERT_NE(invoke, nullptr);
  EXPECT_EQ(invoke->trigger, (std::vector<int>{0, 1}));

  const SinkSpec* lookup = r.match("javax.naming.Context", "lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->type, "JNDI");

  EXPECT_EQ(r.match("java.lang.Runtime", "harmless"), nullptr);
  EXPECT_EQ(r.match("demo.Nothing", "exec"), nullptr);
}

TEST(SourceRegistry, RecognisesDeserializationEntryPoints) {
  SourceRegistry r = SourceRegistry::defaults();
  EXPECT_TRUE(r.is_source_name("readObject"));
  EXPECT_TRUE(r.is_source_name("readExternal"));
  EXPECT_TRUE(r.is_source_name("readResolve"));
  EXPECT_TRUE(r.is_source_name("finalize"));
  EXPECT_FALSE(r.is_source_name("toString"));
  EXPECT_FALSE(r.is_source_name("main"));
}

class UrldnsCpg : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new jir::Program(testing::urldns_program());
    cpg_ = new Cpg(build_cpg(*program_));
  }
  static void TearDownTestSuite() {
    delete cpg_;
    delete program_;
    cpg_ = nullptr;
    program_ = nullptr;
  }

  static jir::Program* program_;
  static Cpg* cpg_;
};

jir::Program* UrldnsCpg::program_ = nullptr;
Cpg* UrldnsCpg::cpg_ = nullptr;

TEST_F(UrldnsCpg, OrgHasClassAndMethodNodes) {
  const auto& db = cpg_->db;
  EXPECT_GT(cpg_->stats.class_nodes, 0u);
  EXPECT_GT(cpg_->stats.method_nodes, 0u);

  NodeId hashmap = class_node(db, "java.util.HashMap");
  EXPECT_TRUE(db.node(hashmap).prop_bool(std::string(kPropSerializable)));
  EXPECT_FALSE(db.node(hashmap).prop_bool(std::string(kPropInterface)));

  // HAS edges connect the class to each of its methods.
  auto has_edges = db.out_edges_typed(hashmap, kHasEdge);
  EXPECT_EQ(has_edges.size(), 2u);  // readObject, hash
}

TEST_F(UrldnsCpg, ExtendAndInterfaceEdges) {
  const auto& db = cpg_->db;
  NodeId hashmap = class_node(db, "java.util.HashMap");
  NodeId object = class_node(db, "java.lang.Object");
  NodeId serializable = class_node(db, "java.io.Serializable");
  EXPECT_TRUE(db.find_edge(hashmap, object, kExtendEdge).has_value());
  EXPECT_TRUE(db.find_edge(hashmap, serializable, kInterfaceEdge).has_value());
  EXPECT_FALSE(db.find_edge(object, hashmap, kExtendEdge).has_value());
}

TEST_F(UrldnsCpg, CallEdgesCarryPollutedPosition) {
  const auto& db = cpg_->db;
  NodeId read_object = method_node(db, "java.util.HashMap", "readObject", 1);
  NodeId hash = method_node(db, "java.util.HashMap", "hash", 1);
  auto call = db.find_edge(read_object, hash, kCallEdge);
  ASSERT_TRUE(call.has_value());
  const auto* pp = std::get_if<std::vector<std::int64_t>>(
      db.edge(*call).prop(std::string(kPropPollutedPosition)));
  ASSERT_NE(pp, nullptr);
  // Receiver is @this (0); the argument is this.key (weight 0).
  EXPECT_EQ(*pp, (std::vector<std::int64_t>{0, 0}));
}

TEST_F(UrldnsCpg, AliasEdgesLinkOverridesToObjectHashCode) {
  const auto& db = cpg_->db;
  NodeId url_hash = method_node(db, "java.net.URL", "hashCode", 0);
  NodeId obj_hash = method_node(db, "java.lang.Object", "hashCode", 0);
  NodeId enum_hash = method_node(db, "java.util.EnumMap", "hashCode", 0);
  EXPECT_TRUE(db.find_edge(url_hash, obj_hash, kAliasEdge).has_value());
  EXPECT_TRUE(db.find_edge(enum_hash, obj_hash, kAliasEdge).has_value());
  // ALIAS edges are directional: override -> overridden only.
  EXPECT_FALSE(db.find_edge(obj_hash, url_hash, kAliasEdge).has_value());
}

TEST_F(UrldnsCpg, SinkAndSourceAnnotation) {
  const auto& db = cpg_->db;
  NodeId get_by_name = method_node(db, "java.net.InetAddress", "getByName", 1);
  const graph::Node& sink = db.node(get_by_name);
  EXPECT_TRUE(sink.prop_bool(std::string(kPropIsSink)));
  EXPECT_EQ(sink.prop_string(std::string(kPropSinkType)), "SSRF");
  EXPECT_TRUE(sink.prop_bool(std::string(kPropPhantom)));  // InetAddress is not in the program
  const auto* tc =
      std::get_if<std::vector<std::int64_t>>(sink.prop(std::string(kPropTriggerCondition)));
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(*tc, (std::vector<std::int64_t>{1}));

  NodeId read_object = method_node(db, "java.util.HashMap", "readObject", 1);
  EXPECT_TRUE(db.node(read_object).prop_bool(std::string(kPropIsSource)));
  // hash() is not a source; URLStreamHandler is not serializable.
  NodeId hash = method_node(db, "java.util.HashMap", "hash", 1);
  EXPECT_FALSE(db.node(hash).prop_bool(std::string(kPropIsSource)));
  EXPECT_EQ(cpg_->stats.source_methods, 1u);
}

TEST_F(UrldnsCpg, ActionStoredOnMethodNodes) {
  const auto& db = cpg_->db;
  NodeId gha = method_node(db, "java.net.URLStreamHandler", "getHostAddress", 1);
  const auto* action_strings =
      std::get_if<std::vector<std::string>>(db.node(gha).prop(std::string(kPropAction)));
  ASSERT_NE(action_strings, nullptr);
  analysis::Action action = analysis::Action::from_strings(*action_strings);
  EXPECT_EQ(action.entries.at("return"), analysis::Origin::unknown());  // getByName is phantom
}

TEST_F(UrldnsCpg, StatsAreConsistent) {
  graph::GraphStats gs = cpg_->db.stats();
  EXPECT_EQ(cpg_->stats.class_nodes, gs.nodes_by_label.at(std::string(kClassLabel)));
  EXPECT_EQ(cpg_->stats.method_nodes, gs.nodes_by_label.at(std::string(kMethodLabel)));
  EXPECT_EQ(cpg_->stats.relationship_edges, gs.edge_count);
}

TEST(CpgOptionsTest, PruningRemovesUncontrollableCalls) {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("t.C");
  cls.method("callee").set_static().param("java.lang.String").returns("void").ret();
  cls.method("m")
      .set_static()
      .returns("void")
      .const_str("k", "fixed")
      .invoke_static("", "t.C", "callee", {"k"})
      .ret();
  jir::Program p = pb.build();

  Cpg pruned = build_cpg(p);
  EXPECT_EQ(pruned.stats.call_edges, 0u);
  EXPECT_EQ(pruned.stats.pruned_call_sites, 1u);

  CpgOptions keep;
  keep.prune_uncontrollable_calls = false;
  Cpg raw = build_cpg(p, keep);
  EXPECT_EQ(raw.stats.call_edges, 1u);
  EXPECT_EQ(raw.stats.pruned_call_sites, 0u);
}

TEST(CpgOptionsTest, AliasEdgesCanBeDisabled) {
  jir::Program p = testing::urldns_program();
  CpgOptions options;
  options.build_alias_edges = false;
  Cpg cpg = build_cpg(p, options);
  EXPECT_EQ(cpg.stats.alias_edges, 0u);
}

TEST(CpgOptionsTest, JarNameRecordedOnClassNodes) {
  jir::ProgramBuilder pb;
  pb.add_class("t.C");
  jir::Program p = pb.build();
  CpgOptions options;
  options.jar_name = "demo.jar";
  Cpg cpg = build_cpg(p, options);
  auto hits = cpg.db.find_nodes(std::string(kClassLabel), std::string(kPropName),
                                Value{std::string("t.C")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(cpg.db.node(hits[0]).prop_string(std::string(kPropJar)), "demo.jar");
}

TEST(CpgOptionsTest, RepeatedCallsMergeIntoOneEdge) {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("t.C");
  cls.method("callee").set_static().param("java.lang.Object").returns("void").ret();
  cls.method("m")
      .set_static()
      .param("java.lang.Object")
      .returns("void")
      .const_null("k")
      .invoke_static("", "t.C", "callee", {"k"})     // PP [∞,∞] — alone it would be pruned
      .invoke_static("", "t.C", "callee", {"@p1"})   // PP [∞,1]
      .ret();
  jir::Program p = pb.build();
  Cpg cpg = build_cpg(p);
  // Only the controllable call survives pruning; one edge with PP [∞,1].
  EXPECT_EQ(cpg.stats.call_edges, 1u);
  bool found = false;
  cpg.db.for_each_edge([&](const graph::Edge& e) {
    if (e.type != kCallEdge) return;
    const auto* pp =
        std::get_if<std::vector<std::int64_t>>(e.prop(std::string(kPropPollutedPosition)));
    ASSERT_NE(pp, nullptr);
    EXPECT_EQ((*pp)[1], 1);
    found = true;
  });
  EXPECT_TRUE(found);
}

TEST(CpgOptionsTest, EvilObjectGraphShape) {
  jir::Program p = testing::evil_object_program();
  Cpg cpg = build_cpg(p);
  const auto& db = cpg.db;

  // EvilObjectB.toString aliases Object.toString.
  NodeId b_tostring = method_node(db, "demo.EvilObjectB", "toString", 0);
  NodeId obj_tostring = method_node(db, "java.lang.Object", "toString", 0);
  EXPECT_TRUE(db.find_edge(b_tostring, obj_tostring, kAliasEdge).has_value());

  // The exec call edge exists with a controllable argument.
  NodeId exec = method_node(db, "java.lang.Runtime", "exec", 1);
  EXPECT_TRUE(db.node(exec).prop_bool(std::string(kPropIsSink)));
  auto in_calls = db.in_edges_typed(exec, kCallEdge);
  ASSERT_EQ(in_calls.size(), 1u);
  const auto* pp = std::get_if<std::vector<std::int64_t>>(
      db.edge(in_calls[0]).prop(std::string(kPropPollutedPosition)));
  ASSERT_NE(pp, nullptr);
  EXPECT_EQ((*pp)[1], 0);  // cmd comes from this.val2
}

}  // namespace
}  // namespace tabby::cpg
