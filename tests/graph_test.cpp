// Tests for the embedded property-graph store and traversal framework: CRUD,
// adjacency, equality lookups, tombstones, persistence round trips and the
// Expander/Evaluator engine with all uniqueness modes.
#include <gtest/gtest.h>

#include <filesystem>

#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "graph/traversal.hpp"
#include "util/rng.hpp"

namespace tabby::graph {
namespace {

TEST(Graph, AddAndReadBack) {
  GraphDb db;
  NodeId a = db.add_node("Class", {{"NAME", Value{std::string("demo.A")}}});
  NodeId b = db.add_node("Method", {{"NAME", Value{std::string("run")}}});
  EdgeId e = db.add_edge(a, b, "HAS", {{"W", Value{std::int64_t{7}}}});

  EXPECT_EQ(db.node_count(), 2u);
  EXPECT_EQ(db.edge_count(), 1u);
  EXPECT_EQ(db.node(a).prop_string("NAME"), "demo.A");
  EXPECT_EQ(db.edge(e).from, a);
  EXPECT_EQ(db.edge(e).to, b);
  ASSERT_EQ(db.out_edges(a).size(), 1u);
  EXPECT_EQ(db.in_edges(b).size(), 1u);
  EXPECT_TRUE(db.out_edges(b).empty());
}

TEST(Graph, EdgeToMissingNodeThrows) {
  GraphDb db;
  NodeId a = db.add_node("X");
  EXPECT_THROW(db.add_edge(a, 999, "E"), std::out_of_range);
  EXPECT_THROW((void)db.node(42), std::out_of_range);
}

TEST(Graph, RemoveEdgeUnlinksAdjacency) {
  GraphDb db;
  NodeId a = db.add_node("X");
  NodeId b = db.add_node("X");
  EdgeId e = db.add_edge(a, b, "E");
  db.remove_edge(e);
  EXPECT_EQ(db.edge_count(), 0u);
  EXPECT_TRUE(db.out_edges(a).empty());
  EXPECT_TRUE(db.in_edges(b).empty());
  EXPECT_FALSE(db.edge_alive(e));
  db.remove_edge(e);  // idempotent
}

TEST(Graph, RemoveNodeRemovesIncidentEdges) {
  GraphDb db;
  NodeId a = db.add_node("X");
  NodeId b = db.add_node("X");
  NodeId c = db.add_node("X");
  db.add_edge(a, b, "E");
  db.add_edge(b, c, "E");
  db.add_edge(c, a, "E");
  db.remove_node(b);
  EXPECT_EQ(db.node_count(), 2u);
  EXPECT_EQ(db.edge_count(), 1u);
  EXPECT_TRUE(db.nodes_with_label("X").size() == 3u ||
              db.find_nodes("X", "none", Value{}).empty());  // label bucket pruned of b
  EXPECT_FALSE(db.node_alive(b));
}

TEST(Graph, TypedEdgeFilters) {
  GraphDb db;
  NodeId a = db.add_node("X");
  NodeId b = db.add_node("X");
  db.add_edge(a, b, "CALL");
  db.add_edge(a, b, "ALIAS");
  db.add_edge(a, b, "CALL");
  EXPECT_EQ(db.out_edges_typed(a, "CALL").size(), 2u);
  EXPECT_EQ(db.out_edges_typed(a, "ALIAS").size(), 1u);
  EXPECT_EQ(db.in_edges_typed(b, "CALL").size(), 2u);
  EXPECT_TRUE(db.find_edge(a, b, "ALIAS").has_value());
  EXPECT_FALSE(db.find_edge(b, a, "ALIAS").has_value());
}

TEST(Graph, IndexLookupMatchesScan) {
  GraphDb db;
  for (int i = 0; i < 100; ++i) {
    db.add_node("Method", {{"NAME", Value{std::string("m") + std::to_string(i % 10)}}});
  }
  std::vector<NodeId> scanned;
  db.for_each_node([&](const Node& n) {
    if (n.prop_string("NAME") == "m3") scanned.push_back(n.id);
  });
  auto found = db.find_nodes("Method", "NAME", Value{std::string("m3")});
  EXPECT_EQ(scanned, found);  // every match, in ascending id order
  EXPECT_EQ(found.size(), 10u);
}

TEST(Graph, IndexStaysInSyncWithPropertyUpdates) {
  GraphDb db;
  NodeId n = db.add_node("Method", {{"NAME", Value{std::string("before")}}});
  EXPECT_EQ(db.find_nodes("Method", "NAME", Value{std::string("before")}).size(), 1u);
  db.set_node_prop(n, "NAME", Value{std::string("after")});
  EXPECT_TRUE(db.find_nodes("Method", "NAME", Value{std::string("before")}).empty());
  EXPECT_EQ(db.find_nodes("Method", "NAME", Value{std::string("after")}).size(), 1u);
}

TEST(Graph, IndexIgnoresRemovedNodes) {
  GraphDb db;
  NodeId n = db.add_node("X", {{"K", Value{std::int64_t{5}}}});
  db.remove_node(n);
  EXPECT_TRUE(db.find_nodes("X", "K", Value{std::int64_t{5}}).empty());
}

TEST(Graph, BoolAndIntIndexKeysCompatible) {
  GraphDb db;
  db.add_node("X", {{"FLAG", Value{true}}});
  EXPECT_EQ(db.find_nodes("X", "FLAG", Value{true}).size(), 1u);
  EXPECT_TRUE(db.find_nodes("X", "FLAG", Value{false}).empty());
}

TEST(Graph, StatsCountByLabelAndType) {
  GraphDb db;
  NodeId a = db.add_node("Class");
  NodeId b = db.add_node("Method");
  NodeId c = db.add_node("Method");
  db.add_edge(a, b, "HAS");
  db.add_edge(a, c, "HAS");
  db.add_edge(b, c, "CALL");
  GraphStats s = db.stats();
  EXPECT_EQ(s.nodes_by_label["Class"], 1u);
  EXPECT_EQ(s.nodes_by_label["Method"], 2u);
  EXPECT_EQ(s.edges_by_type["HAS"], 2u);
  EXPECT_EQ(s.edges_by_type["CALL"], 1u);
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(to_string(Value{}), "null");
  EXPECT_EQ(to_string(Value{true}), "true");
  EXPECT_EQ(to_string(Value{std::int64_t{-5}}), "-5");
  EXPECT_EQ(to_string(Value{std::string("x")}), "\"x\"");
  EXPECT_EQ(to_string(Value{std::vector<std::int64_t>{1, 2}}), "[1,2]");
  EXPECT_EQ(to_string(Value{std::vector<std::string>{"a"}}), "[\"a\"]");
}

TEST(Serialize, RoundTripPreservesGraph) {
  GraphDb db;
  NodeId a = db.add_node("Class", {{"NAME", Value{std::string("A")}},
                                   {"FLAG", Value{true}},
                                   {"PP", Value{std::vector<std::int64_t>{0, 1, 1000000000}}}});
  NodeId b = db.add_node("Method", {{"D", Value{2.5}}});
  db.add_edge(a, b, "HAS", {{"LIST", Value{std::vector<std::string>{"x", "y"}}}});

  auto bytes = serialize(db);
  auto loaded = deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const GraphDb& g2 = loaded.value();
  EXPECT_EQ(g2.node_count(), 2u);
  EXPECT_EQ(g2.edge_count(), 1u);
  auto hits = g2.find_nodes("Class", "NAME", Value{std::string("A")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(g2.node(hits[0]).prop_bool("FLAG"));
}

TEST(Serialize, TombstonesAreCompactedAway) {
  GraphDb db;
  NodeId a = db.add_node("X");
  NodeId b = db.add_node("X");
  NodeId c = db.add_node("X");
  db.add_edge(a, b, "E");
  db.add_edge(b, c, "E");
  db.remove_node(b);
  auto loaded = deserialize(serialize(db));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_count(), 2u);
  EXPECT_EQ(loaded.value().edge_count(), 0u);
}

TEST(Serialize, CorruptInputRejected) {
  GraphDb db;
  db.add_node("X");
  auto bytes = serialize(db);
  bytes[0] = std::byte{0};
  EXPECT_FALSE(deserialize(bytes).ok());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_FALSE(deserialize(prefix).ok());
  }
}

TEST(Serialize, FileRoundTrip) {
  GraphDb db;
  db.add_node("X", {{"K", Value{std::int64_t{1}}}});
  auto path = std::filesystem::temp_directory_path() / "tabby_graph_test.tgdb";
  ASSERT_TRUE(save(db, path).ok());
  auto loaded = load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_count(), 1u);
  std::filesystem::remove(path);
}

// --- Traversal --------------------------------------------------------------

/// Builds a small DAG: 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4.
GraphDb diamond() {
  GraphDb db;
  for (int i = 0; i < 5; ++i) db.add_node("N");
  db.add_edge(0, 1, "E");
  db.add_edge(0, 2, "E");
  db.add_edge(1, 3, "E");
  db.add_edge(2, 3, "E");
  db.add_edge(3, 4, "E");
  return db;
}

Traverser<int>::ExpandFn forward_expand() {
  return [](const GraphDb& db, const Path& path, const int& state) {
    std::vector<Step<int>> steps;
    for (EdgeId e : db.out_edges(path.end())) {
      steps.push_back(Step<int>{e, db.edge(e).to, state + 1});
    }
    return steps;
  };
}

TEST(Traversal, FindsAllPathsToTarget) {
  GraphDb db = diamond();
  auto evaluate = [](const GraphDb&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate);
  auto results = t.run(0, 0);
  ASSERT_EQ(results.size(), 2u);  // two paths through the diamond
  for (const auto& r : results) {
    EXPECT_EQ(r.path.length(), 3u);
    EXPECT_EQ(r.state, 3);  // state threaded through expansions
  }
}

TEST(Traversal, NodeGlobalUniquenessLosesOnePath) {
  GraphDb db = diamond();
  auto evaluate = [](const GraphDb&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodeGlobal);
  // The GadgetInspector behaviour: node 3 is visited once, so only one of
  // the two diamond paths survives.
  EXPECT_EQ(t.run(0, 0).size(), 1u);
}

TEST(Traversal, NodePathUniquenessBreaksCycles) {
  GraphDb db;
  db.add_node("N");
  db.add_node("N");
  db.add_edge(0, 1, "E");
  db.add_edge(1, 0, "E");  // cycle
  auto evaluate = [](const GraphDb&, const Path&, const int&) {
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath);
  auto results = t.run(0, 0);  // must terminate
  EXPECT_TRUE(results.empty());
}

TEST(Traversal, MaxResultsStopsEarly) {
  GraphDb db = diamond();
  auto evaluate = [](const GraphDb&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_results = 1;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath, limits);
  EXPECT_EQ(t.run(0, 0).size(), 1u);
}

TEST(Traversal, ExpansionBudgetReportsExhaustion) {
  GraphDb db = diamond();
  auto evaluate = [](const GraphDb&, const Path&, const int&) {
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_expansions = 2;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::None, limits);
  t.run(0, 0);
  EXPECT_TRUE(t.exhausted_budget());
  EXPECT_GE(t.expansions(), 2u);
}

TEST(Traversal, EvaluatorCanIncludeAndContinue) {
  GraphDb db = diamond();
  auto evaluate = [](const GraphDb&, const Path&, const int&) {
    return Evaluation::IncludeAndContinue;  // every prefix path included
  };
  Traverser<int> t(db, forward_expand(), evaluate);
  auto results = t.run(0, 0);
  // Paths: [0], [0,1], [0,2], [0,1,3], [0,2,3], [0,1,3,4], [0,2,3,4]
  EXPECT_EQ(results.size(), 7u);
}

TEST(Traversal, StressRandomGraphTerminates) {
  GraphDb db;
  util::Rng rng(42);
  constexpr int kNodes = 200;
  for (int i = 0; i < kNodes; ++i) db.add_node("N");
  for (int i = 0; i < 800; ++i) {
    db.add_edge(rng.next_below(kNodes), rng.next_below(kNodes), "E");
  }
  auto evaluate = [](const GraphDb&, const Path& path, const int&) {
    if (path.length() >= 4) return Evaluation::ExcludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_expansions = 100000;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath, limits);
  t.run(0, 0);
  SUCCEED();  // termination is the assertion
}

}  // namespace
}  // namespace tabby::graph
