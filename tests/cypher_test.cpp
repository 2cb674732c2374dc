// Tests for the Cypher-subset query language: lexing/parsing errors, node
// and relationship patterns, variable-length hops, WHERE predicates, RETURN
// projections, LIMIT, path bindings, and gadget-hunting queries over a real
// CPG (the RQ4 workflow).
#include <gtest/gtest.h>

#include "cpg/builder.hpp"
#include "cypher/cypher.hpp"
#include "fixtures.hpp"

namespace tabby::cypher {
namespace {

using graph::GraphDb;
using graph::Value;

/// A small social-ish graph for pattern tests.
GraphDb sample_graph() {
  GraphDb db;
  auto person = [&](const std::string& name, std::int64_t age) {
    return db.add_node("Person", {{"NAME", Value{name}}, {"AGE", Value{age}}});
  };
  auto a = person("alice", 30);
  auto b = person("bob", 25);
  auto c = person("carol", 41);
  auto d = person("dave", 19);
  db.add_edge(a, b, "KNOWS");
  db.add_edge(b, c, "KNOWS");
  db.add_edge(c, d, "KNOWS");
  db.add_edge(a, c, "WORKS_WITH");
  return db;
}

TEST(Cypher, SingleNodeByProperty) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (p:Person {NAME: \"alice\"}) RETURN p.AGE");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar, Value{std::int64_t{30}}));
}

TEST(Cypher, LabelScanWithoutProps) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (p:Person) RETURN p");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 4u);
}

TEST(Cypher, DirectedRelationship) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (a {NAME: \"alice\"})-[:KNOWS]->(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar, Value{std::string("bob")}));
}

TEST(Cypher, ReverseDirection) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (a {NAME: \"bob\"})<-[:KNOWS]-(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar, Value{std::string("alice")}));
}

TEST(Cypher, UndirectedMatchesBothWays) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (a {NAME: \"bob\"})-[:KNOWS]-(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);  // alice and carol
}

TEST(Cypher, AnyRelationshipType) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (a {NAME: \"alice\"})-[]->(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);  // bob (KNOWS), carol (WORKS_WITH)
}

TEST(Cypher, VariableLengthHops) {
  GraphDb db = sample_graph();
  auto result =
      run_query(db, "MATCH (a {NAME: \"alice\"})-[:KNOWS*1..3]->(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 3u);  // bob, carol, dave
}

TEST(Cypher, VariableLengthLowerBound) {
  GraphDb db = sample_graph();
  auto result =
      run_query(db, "MATCH (a {NAME: \"alice\"})-[:KNOWS*2..3]->(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);  // carol, dave
}

TEST(Cypher, FixedLengthStar) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (a {NAME: \"alice\"})-[:KNOWS*2]->(b) RETURN b.NAME");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar, Value{std::string("carol")}));
}

TEST(Cypher, MultiHopChainedPatterns) {
  GraphDb db = sample_graph();
  auto result = run_query(
      db, "MATCH (a {NAME: \"alice\"})-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN b.NAME, c.NAME");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][1].scalar, Value{std::string("carol")}));
}

TEST(Cypher, WhereComparisons) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (p:Person) WHERE p.AGE > 26 RETURN p.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);  // alice, carol

  result = run_query(db, "MATCH (p:Person) WHERE p.AGE >= 25 AND p.AGE <= 30 RETURN p.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);  // alice, bob

  result = run_query(db, "MATCH (p:Person) WHERE p.NAME <> \"alice\" RETURN p");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 3u);
}

TEST(Cypher, WhereStringPredicates) {
  GraphDb db = sample_graph();
  auto contains = run_query(db, "MATCH (p:Person) WHERE p.NAME CONTAINS \"aro\" RETURN p");
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ(contains.value().rows.size(), 1u);

  auto starts = run_query(db, "MATCH (p:Person) WHERE p.NAME STARTS WITH \"da\" RETURN p");
  ASSERT_TRUE(starts.ok());
  EXPECT_EQ(starts.value().rows.size(), 1u);

  auto ends = run_query(db, "MATCH (p:Person) WHERE p.NAME ENDS WITH \"ob\" RETURN p");
  ASSERT_TRUE(ends.ok());
  EXPECT_EQ(ends.value().rows.size(), 1u);
}

TEST(Cypher, LimitCutsRows) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "MATCH (p:Person) RETURN p LIMIT 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST(Cypher, PathBinding) {
  GraphDb db = sample_graph();
  auto result =
      run_query(db, "MATCH p = (a {NAME: \"alice\"})-[:KNOWS*1..3]->(b {NAME: \"dave\"}) RETURN p");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].kind, Binding::Kind::Path);
  EXPECT_EQ(result.value().rows[0][0].path.length(), 3u);
  std::string rendered = result.value().to_string(db);
  EXPECT_NE(rendered.find("alice"), std::string::npos);
  EXPECT_NE(rendered.find("dave"), std::string::npos);
}

TEST(Cypher, BooleanLiterals) {
  GraphDb db;
  db.add_node("Flag", {{"ON", Value{true}}});
  db.add_node("Flag", {{"ON", Value{false}}});
  auto result = run_query(db, "MATCH (f:Flag {ON: true}) RETURN f");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 1u);
}

TEST(Cypher, EdgeUniquenessPreventsCycleSpam) {
  GraphDb db;
  auto a = db.add_node("N", {{"NAME", Value{std::string("a")}}});
  auto b = db.add_node("N", {{"NAME", Value{std::string("b")}}});
  db.add_edge(a, b, "E");
  db.add_edge(b, a, "E");
  auto result = run_query(db, "MATCH (x {NAME: \"a\"})-[:E*1..6]->(y) RETURN y");
  ASSERT_TRUE(result.ok());
  // Each edge used once per path: a->b and a->b->a only.
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST(Cypher, ParseErrorsCarryPosition) {
  GraphDb db = sample_graph();
  for (const char* bad : {
           "MATCH p:Person RETURN p",            // missing parens
           "MATCH (p:Person)",                   // missing RETURN
           "MATCH (p:Person) RETURN",            // missing item
           "MATCH (p:Person RETURN p",           // unclosed node
           "MATCH (a)-[:KNOWS]->(b RETURN a",    // unclosed node 2
           "MATCH (p) WHERE p.AGE ~ 3 RETURN p", // bad operator
           "MATCH (p) RETURN p LIMIT x",         // bad limit
           "FETCH (p) RETURN p",                 // wrong verb
       }) {
    auto result = run_query(db, bad);
    EXPECT_FALSE(result.ok()) << bad;
  }
}

TEST(Cypher, KeywordsAreCaseInsensitive) {
  GraphDb db = sample_graph();
  auto result = run_query(db, "match (p:Person {NAME: 'alice'}) return p.AGE limit 1");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().rows.size(), 1u);
}

// --- RQ4: gadget hunting over a real CPG -------------------------------------

TEST(CypherOnCpg, FindSinksByQuery) {
  cpg::Cpg cpg = cpg::build_cpg(testing::urldns_program());
  auto result = run_query(cpg.db, "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar,
                                  Value{std::string("java.net.InetAddress#getByName/1")}));
}

TEST(CypherOnCpg, BackwardReachabilityFromSink) {
  cpg::Cpg cpg = cpg::build_cpg(testing::urldns_program());
  // Callers within 2 CALL hops of the sink.
  auto result = run_query(cpg.db,
                          "MATCH (m:Method)-[:CALL*1..2]->(s:Method {IS_SINK: true}) "
                          "RETURN m.SIGNATURE");
  ASSERT_TRUE(result.ok());
  std::vector<std::string> sigs;
  for (const auto& row : result.value().rows) {
    sigs.push_back(std::get<std::string>(row[0].scalar));
  }
  EXPECT_NE(std::find(sigs.begin(), sigs.end(),
                      "java.net.URLStreamHandler#getHostAddress/1"),
            sigs.end());
  EXPECT_NE(std::find(sigs.begin(), sigs.end(), "java.net.URLStreamHandler#hashCode/1"),
            sigs.end());
}

TEST(CypherOnCpg, ClassHierarchyQuery) {
  cpg::Cpg cpg = cpg::build_cpg(testing::urldns_program());
  auto result = run_query(cpg.db,
                          "MATCH (c:Class)-[:INTERFACE]->(i:Class {NAME: "
                          "\"java.io.Serializable\"}) RETURN c.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().rows.size(), 3u);  // HashMap, URL, EnumMap, String...
}

TEST(CypherOnCpg, SourceMethodsOfSerializableClasses) {
  cpg::Cpg cpg = cpg::build_cpg(testing::urldns_program());
  auto result = run_query(cpg.db,
                          "MATCH (c:Class {IS_SERIALIZABLE: true})-[:HAS]->"
                          "(m:Method {IS_SOURCE: true}) RETURN c.NAME, m.NAME");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar,
                                  Value{std::string("java.util.HashMap")}));
}

}  // namespace
}  // namespace tabby::cypher
