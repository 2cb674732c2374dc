// A Cypher-subset query language over the embedded graph store — the
// interface the paper's users get from Neo4j ("researchers can re-use the
// graph database query syntax for vulnerability identification", §II-B).
//
// Supported surface:
//   MATCH [p =] (a:Label {KEY: literal})-[r:TYPE*min..max]->(b:Label) ...
//   WHERE a.KEY = literal AND b.KEY <> literal AND a.KEY CONTAINS "text" ...
//   RETURN a, b.KEY, p [LIMIT n]
//
// Relationship patterns support both directions (-[..]->, <-[..]-, -[..]-),
// optional types, and variable-length ranges (*, *n, *n..m, *..m). Node
// inline property maps narrow the start candidates through find_nodes.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "util/result.hpp"

namespace tabby::util {
class Executor;
class MemoryBudget;
}  // namespace tabby::util

namespace tabby::cypher {

/// One result cell: a node, a relationship, a whole path, or a scalar
/// property value.
struct Binding {
  enum class Kind { Node, Relationship, Path, Scalar };
  Kind kind = Kind::Scalar;
  graph::NodeId node = graph::kNoNode;
  graph::EdgeId edge = graph::kNoEdge;
  graph::Path path;
  graph::Value scalar;

  static Binding of_node(graph::NodeId id) {
    Binding b;
    b.kind = Kind::Node;
    b.node = id;
    return b;
  }
  static Binding of_path(graph::Path p) {
    Binding b;
    b.kind = Kind::Path;
    b.path = std::move(p);
    return b;
  }
  static Binding of_scalar(graph::Value v) {
    Binding b;
    b.kind = Kind::Scalar;
    b.scalar = std::move(v);
    return b;
  }
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Binding>> rows;
  /// The chosen plan, rendered (`tabby query --explain`). Always filled:
  /// naive/disabled runs describe why planning declined.
  std::string plan;

  /// Human-readable rendering (nodes print their NAME/SIGNATURE property).
  std::string to_string(const graph::GraphDb& db) const;
  std::string to_string(const graph::FrozenGraph& db) const;
};

/// Knobs for one evaluation. The planner contract is strict: whatever the
/// settings, rows (content and order) are byte-identical to the naive
/// evaluator — planning only prunes provably-empty subtrees, so use_planner
/// is a performance escape hatch, never a semantics switch.
struct QueryOptions {
  /// Compile a Plan (cost-based start/anchor selection, backward
  /// reachability filters, predicate pushdown) before executing; false is
  /// the `--no-plan` escape hatch. A `cypher.plan` failpoint degrades a
  /// planner fault to naive evaluation rather than an error.
  bool use_planner = true;
  /// Parallelizes the backward prepass chunks; results are identical at any
  /// concurrency (commutative bitset merges). Null = serial.
  util::Executor* executor = nullptr;
  /// Meters the plan's filter bitsets and accumulated result rows (ledger
  /// only — queries never prune on pressure, that would change answers).
  util::MemoryBudget* memory = nullptr;
};

/// Parses and executes a query. Malformed queries report Error with a
/// byte offset; execution itself cannot fail.
util::Result<QueryResult> run_query(const graph::GraphDb& db, std::string_view query);
util::Result<QueryResult> run_query(const graph::GraphDb& db, std::string_view query,
                                    const QueryOptions& options);

/// Frozen-CSR evaluation: identical semantics and row order. Typed patterns
/// scan sorted edge segments; untyped patterns replay insertion order, so
/// every query prints byte-identically against either representation of the
/// same graph.
util::Result<QueryResult> run_query(const graph::FrozenGraph& db, std::string_view query);
util::Result<QueryResult> run_query(const graph::FrozenGraph& db, std::string_view query,
                                    const QueryOptions& options);

}  // namespace tabby::cypher
