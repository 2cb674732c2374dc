// Tests for the frozen CSR snapshot (src/graph/frozen.hpp, docs/GRAPH.md):
// accessor-level equivalence with the mutable GraphDb it freezes, byte-level
// determinism of the frame, the fail-closed validation contract (truncation,
// bit flips, version skew are structured errors, never UB), memory-budget
// charging, the cache's .tfzn publish/load/audit integration, and the
// end-to-end guarantee that cold runs (freeze in memory) and warm runs
// (attach the cached frame) are byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"
#include "support/random_graph.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

graph::FrozenGraph freeze_or_die(const graph::GraphDb& db, std::uint64_t key = 0,
                                 util::MemoryBudget* memory = nullptr) {
  auto result = graph::FrozenGraph::freeze(db, key, memory);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return std::move(result.value());
}

/// A small graph exercising every property encoding the column format has:
/// typed bool/int/real/string/int-list columns, a heterogeneous (Mixed)
/// column, string lists, explicit nulls, and absent entries.
graph::GraphDb kitchen_sink_graph() {
  graph::GraphDb db;
  auto a = db.add_node("Method");
  auto b = db.add_node("Method");
  auto c = db.add_node("Class");
  auto d = db.add_node("Field");
  db.set_node_prop(a, "NAME", graph::Value{std::string("readObject")});
  db.set_node_prop(b, "NAME", graph::Value{std::string("exec")});
  db.set_node_prop(a, "IS_SOURCE", graph::Value{true});
  db.set_node_prop(b, "IS_SINK", graph::Value{true});
  db.set_node_prop(c, "ACCESS", graph::Value{std::int64_t{33}});
  db.set_node_prop(c, "SCORE", graph::Value{2.5});
  db.set_node_prop(d, "TAGS", graph::Value{std::vector<std::string>{"a", "bb"}});
  // Heterogeneous key: int on one node, string on another -> Mixed column.
  db.set_node_prop(a, "MIXED", graph::Value{std::int64_t{7}});
  db.set_node_prop(b, "MIXED", graph::Value{std::string("seven")});
  db.set_node_prop(c, "MIXED", graph::Value{false});
  db.set_node_prop(d, "NOTHING", graph::Value{});  // explicit null
  auto e0 = db.add_edge(a, b, "CALL");
  auto e1 = db.add_edge(b, c, "CALL");
  db.add_edge(c, d, "CONTAINS");
  db.add_edge(a, c, "ALIAS");
  db.set_edge_prop(e0, "POLLUTED_POSITION", graph::Value{std::vector<std::int64_t>{0, -1}});
  db.set_edge_prop(e1, "POLLUTED_POSITION", graph::Value{std::vector<std::int64_t>{2}});
  db.set_edge_prop(e1, "ORDER", graph::Value{std::int64_t{1}});
  return db;
}

/// Randomized graph with tombstones (shared generator in tests/support/):
/// removals force the freeze to renumber node/edge ids densely, the part of
/// the mapping most worth fuzzing.
using testsupport::random_graph;

/// Asserts every accessor of `fg` agrees with `db`, modulo the documented
/// dense renumbering (live elements in ascending id order).
void expect_equivalent(const graph::GraphDb& db, const graph::FrozenGraph& fg) {
  ASSERT_EQ(fg.node_count(), db.node_count());
  ASSERT_EQ(fg.edge_count(), db.edge_count());

  // Dense id <-> store id mapping, in the documented order.
  std::vector<graph::NodeId> live_nodes;
  std::vector<graph::EdgeId> live_edges;
  for (graph::NodeId id = 0; id < db.node_capacity(); ++id)
    if (db.node_alive(id)) live_nodes.push_back(id);
  for (graph::EdgeId id = 0; id < db.edge_capacity(); ++id)
    if (db.edge_alive(id)) live_edges.push_back(id);
  std::vector<std::uint32_t> dense_node(db.node_capacity(), 0);
  std::vector<std::uint32_t> dense_edge(db.edge_capacity(), 0);
  for (std::size_t i = 0; i < live_nodes.size(); ++i)
    dense_node[live_nodes[i]] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < live_edges.size(); ++i)
    dense_edge[live_edges[i]] = static_cast<std::uint32_t>(i);

  for (std::size_t i = 0; i < live_edges.size(); ++i) {
    const auto& edge = db.edge(live_edges[i]);
    EXPECT_EQ(fg.edge_from(i), dense_node[edge.from]);
    EXPECT_EQ(fg.edge_to(i), dense_node[edge.to]);
    EXPECT_EQ(fg.edge_type_name(fg.edge_type(i)), edge.type);
  }

  for (std::size_t i = 0; i < live_nodes.size(); ++i) {
    const auto& node = db.node(live_nodes[i]);
    EXPECT_EQ(fg.label(i), node.label);

    // Untyped iteration must replay GraphDb's insertion order exactly.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
    fg.for_each_out_ordered(i, [&](std::uint32_t e, std::uint32_t nbr) {
      got.emplace_back(e, nbr);
    });
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
    for (graph::EdgeId e : db.out_edges(live_nodes[i]))
      want.emplace_back(dense_edge[e], dense_node[db.edge(e).to]);
    EXPECT_EQ(got, want) << "out adjacency of node " << live_nodes[i];

    got.clear();
    fg.for_each_in_ordered(i, [&](std::uint32_t e, std::uint32_t nbr) {
      got.emplace_back(e, nbr);
    });
    want.clear();
    for (graph::EdgeId e : db.in_edges(live_nodes[i]))
      want.emplace_back(dense_edge[e], dense_node[db.edge(e).from]);
    EXPECT_EQ(got, want) << "in adjacency of node " << live_nodes[i];

    // Typed slices preserve the filtered insertion order.
    for (std::uint16_t t = 0; t < fg.edge_type_count(); ++t) {
      std::string type(fg.edge_type_name(t));
      auto view = fg.out_edges_typed_view(i, t);
      auto typed = db.out_edges_typed(live_nodes[i], type);
      ASSERT_EQ(view.size(), typed.size());
      for (std::size_t j = 0; j < typed.size(); ++j) {
        EXPECT_EQ(view.edge[j], dense_edge[typed[j]]);
        EXPECT_EQ(view.nbr[j], dense_node[db.edge(typed[j]).to]);
      }
    }

    // Every property round-trips through the columnar encoding.
    for (const auto& [key, value] : node.props) {
      auto got_value = fg.node_prop(i, key);
      ASSERT_TRUE(got_value.has_value()) << key;
      EXPECT_TRUE(*got_value == value) << key;
      EXPECT_EQ(fg.node_prop_string(i, key), node.prop_string(key));
      EXPECT_EQ(fg.node_prop_bool(i, key), node.prop_bool(key));
      EXPECT_EQ(fg.node_prop_int(i, key, -7), node.prop_int(key, -7));
    }
    EXPECT_FALSE(fg.node_prop(i, "NO_SUCH_KEY").has_value());
  }

  for (std::size_t i = 0; i < live_edges.size(); ++i) {
    for (const auto& [key, value] : db.edge(live_edges[i]).props) {
      auto got_value = fg.edge_prop(i, key);
      ASSERT_TRUE(got_value.has_value()) << key;
      EXPECT_TRUE(*got_value == value) << key;
    }
  }

  // Label scans agree (ascending dense ids on both sides).
  for (std::uint16_t l = 0; l < fg.label_count(); ++l) {
    std::string label(fg.label_name(l));
    auto scan = fg.nodes_with_label(label);
    auto store_scan = db.nodes_with_label(label);
    ASSERT_EQ(scan.size(), store_scan.size()) << label;
    for (std::size_t j = 0; j < scan.size(); ++j)
      EXPECT_EQ(scan[j], dense_node[store_scan[j]]);
  }
  EXPECT_TRUE(fg.nodes_with_label("NoSuchLabel").empty());
}

TEST(FrozenGraph, KitchenSinkRoundTrip) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = freeze_or_die(db);
  expect_equivalent(db, fg);

  // find_nodes matches GraphDb semantics, including on the Mixed column.
  auto sinks = fg.find_nodes("Method", "IS_SINK", graph::Value{true});
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(fg.node_prop_string(sinks[0], "NAME"), "exec");
  EXPECT_EQ(fg.find_nodes("Method", "MIXED", graph::Value{std::string("seven")}).size(), 1u);
  EXPECT_EQ(fg.find_nodes("Class", "MIXED", graph::Value{false}).size(), 1u);
  EXPECT_TRUE(fg.find_nodes("Method", "IS_SINK", graph::Value{false}).empty());
}

TEST(FrozenGraph, FreezeIsDeterministicAndStoreStable) {
  graph::GraphDb db = random_graph(11);
  graph::FrozenGraph once = freeze_or_die(db, 99);
  graph::FrozenGraph twice = freeze_or_die(db, 99);
  ASSERT_EQ(once.frame().size(), twice.frame().size());
  EXPECT_EQ(std::memcmp(once.frame().data(), twice.frame().data(), once.frame().size()), 0);

  // Freezing a store round trip yields the same bytes: the store emission
  // order IS the dense renumbering order.
  auto bytes = graph::serialize(db);
  auto restored = graph::deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  graph::FrozenGraph thawed = freeze_or_die(restored.value(), 99);
  ASSERT_EQ(once.frame().size(), thawed.frame().size());
  EXPECT_EQ(std::memcmp(once.frame().data(), thawed.frame().data(), once.frame().size()), 0);
}

TEST(FrozenGraph, SaveMapFileAndFromBytesRoundTrip) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = freeze_or_die(db, 0xDEADBEEF);
  EXPECT_EQ(fg.content_key(), 0xDEADBEEFu);
  EXPECT_FALSE(fg.mapped());

  fs::path path = fs::temp_directory_path() / ("tabby_frozen_" + std::to_string(::getpid()));
  ASSERT_TRUE(fg.save(path).ok());
  ASSERT_EQ(fs::file_size(path), fg.frame().size());

  auto mapped = graph::FrozenGraph::map_file(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().content_key(), 0xDEADBEEFu);
  expect_equivalent(db, mapped.value());

  auto copied = graph::FrozenGraph::from_bytes(fg.frame());
  ASSERT_TRUE(copied.ok()) << copied.error().message;
  EXPECT_FALSE(copied.value().mapped());
  expect_equivalent(db, copied.value());
  fs::remove(path);
}

TEST(FrozenGraph, EquivalenceFuzz) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    graph::GraphDb db = random_graph(seed);
    graph::FrozenGraph fg = freeze_or_die(db);
    expect_equivalent(db, fg);
  }
}

TEST(FrozenGraph, TruncationIsACleanError) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = freeze_or_die(db);
  std::vector<std::byte> frame(fg.frame().begin(), fg.frame().end());
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{47},
                          frame.size() / 2, frame.size() - 1}) {
    auto result =
        graph::FrozenGraph::from_bytes(std::span<const std::byte>(frame.data(), len));
    ASSERT_FALSE(result.ok()) << "truncated to " << len << " bytes";
    EXPECT_FALSE(result.error().message.empty());
  }
}

TEST(FrozenGraph, EveryBitFlipIsDetected) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = freeze_or_die(db, 77);
  std::vector<std::byte> pristine(fg.frame().begin(), fg.frame().end());
  // Sample offsets across the whole frame (header, directory, sections,
  // trailing checksum included); the trailing FNV must catch each flip.
  std::size_t step = std::max<std::size_t>(1, pristine.size() / 64);
  for (std::size_t off = 0; off < pristine.size(); off += step) {
    std::vector<std::byte> frame = pristine;
    frame[off] ^= std::byte{0x40};
    auto result = graph::FrozenGraph::from_bytes(frame);
    EXPECT_FALSE(result.ok()) << "flip at offset " << off << " went undetected";
  }
  std::vector<std::byte> last = pristine;
  last.back() ^= std::byte{0x01};
  EXPECT_FALSE(graph::FrozenGraph::from_bytes(last).ok());
}

TEST(FrozenGraph, VersionSkewAndBadMagicAreStructuredErrors) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = freeze_or_die(db);
  std::vector<std::byte> frame(fg.frame().begin(), fg.frame().end());

  // Bump the version and re-sign so the checksum cannot mask the skew.
  auto resign = [](std::vector<std::byte>& f) {
    std::uint64_t sum = util::digest_bytes(
        std::span<const std::byte>(f.data(), f.size() - graph::kFrozenChecksumSize));
    std::memcpy(f.data() + f.size() - graph::kFrozenChecksumSize, &sum, sizeof sum);
  };
  std::vector<std::byte> stale = frame;
  std::uint16_t future = graph::kFrozenVersion + 1;
  std::memcpy(stale.data() + 4, &future, sizeof future);
  resign(stale);
  auto skewed = graph::FrozenGraph::from_bytes(stale);
  ASSERT_FALSE(skewed.ok());
  EXPECT_NE(skewed.error().message.find("version"), std::string::npos)
      << skewed.error().message;

  std::vector<std::byte> wrong = frame;
  std::uint32_t magic = 0x12345678;
  std::memcpy(wrong.data(), &magic, sizeof magic);
  resign(wrong);
  EXPECT_FALSE(graph::FrozenGraph::from_bytes(wrong).ok());

  // A version-1 frame, signed with the FNV-1a64 that version used, is
  // rejected by version before any checksum is computed: an old cache is a
  // clean version miss with a hint, never a "corrupt or tampered" error.
  std::vector<std::byte> legacy = frame;
  std::uint16_t v1 = 1;
  std::memcpy(legacy.data() + 4, &v1, sizeof v1);
  std::uint64_t fnv = util::fnv1a(
      std::span<const std::byte>(legacy.data(), legacy.size() - graph::kFrozenChecksumSize));
  std::memcpy(legacy.data() + legacy.size() - graph::kFrozenChecksumSize, &fnv, sizeof fnv);
  auto rejected = graph::FrozenGraph::from_bytes(legacy);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("version 1 predates"), std::string::npos)
      << rejected.error().message;
  EXPECT_EQ(rejected.error().message.find("checksum mismatch"), std::string::npos)
      << rejected.error().message;
}

TEST(FrozenGraph, MemoryBudgetChargesFrameForLifetime) {
  util::MemoryBudget budget;
  graph::GraphDb db = kitchen_sink_graph();
  {
    graph::FrozenGraph fg = freeze_or_die(db, 0, &budget);
    EXPECT_GE(budget.charged(), fg.frame().size());
  }
  EXPECT_EQ(budget.charged(), 0u);  // eviction == destruction == release
}

TEST(FrozenGraph, FinderAndCypherMatchStoreBackedRuns) {
  corpus::Component component = corpus::build_component("BeanShell1");
  cpg::Cpg cpg = cpg::build_cpg(component.link());
  graph::FrozenGraph fg = freeze_or_die(cpg.db);

  finder::FinderOptions fopts;
  auto store_report = finder::GadgetChainFinder(cpg.db, fopts).find_all();
  auto frozen_report = finder::GadgetChainFinder(fg, fopts).find_all();
  ASSERT_FALSE(store_report.chains.empty());
  ASSERT_EQ(frozen_report.chains.size(), store_report.chains.size());
  for (std::size_t i = 0; i < store_report.chains.size(); ++i)
    EXPECT_EQ(frozen_report.chains[i].to_string(), store_report.chains[i].to_string());

  for (const char* query : {"MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE",
                            "MATCH (m:Method {IS_SOURCE: true}) RETURN m.SIGNATURE LIMIT 3",
                            "MATCH (a:Method)-[:CALL]->(b:Method) RETURN b.SIGNATURE LIMIT 5"}) {
    auto store_rows = cypher::run_query(cpg.db, query);
    auto frozen_rows = cypher::run_query(fg, query);
    ASSERT_TRUE(store_rows.ok()) << query;
    ASSERT_TRUE(frozen_rows.ok()) << query;
    EXPECT_EQ(frozen_rows.value().to_string(fg), store_rows.value().to_string(cpg.db)) << query;
  }
}

// --- Cache + pipeline + CLI integration -------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// `out` without its leading "cache:" line.
std::string strip_cache_line(const std::string& out) {
  return out.rfind("cache:", 0) == 0 ? out.substr(out.find('\n') + 1) : out;
}

void flip_byte(const fs::path& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x5a));
}

class FrozenCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_frozen_cache_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_ = (dir_ / "one.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_).ok());
    cache_dir_ = (dir_ / "cache").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> frozen_frames() {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(fs::path(cache_dir_) / "snapshots"))
      if (entry.path().extension() == ".tfzn") out.push_back(entry.path());
    return out;
  }

  fs::path dir_;
  std::string jar_, cache_dir_;
};

TEST_F(FrozenCacheFixture, StoreAndLoadFrozenRoundTrip) {
  auto cache = cache::AnalysisCache::open(cache_dir_);
  ASSERT_TRUE(cache.ok()) << cache.error().message;

  graph::GraphDb db = kitchen_sink_graph();
  std::uint64_t key = 0xABCD;
  graph::FrozenGraph fg = freeze_or_die(db, key);
  ASSERT_TRUE(cache.value().store_frozen(key, fg).ok());

  std::string reason = "sentinel";
  auto loaded = cache.value().load_frozen(key, &reason);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(reason.empty());
  EXPECT_EQ(loaded->content_key(), key);
  expect_equivalent(db, *loaded);

  // Content-key mismatch on publish is an error, not a silent bad entry.
  EXPECT_FALSE(cache.value().store_frozen(key + 1, fg).ok());

  // A miss on an absent key leaves the corrupt reason empty.
  reason = "sentinel";
  EXPECT_FALSE(cache.value().load_frozen(key + 2, &reason).has_value());
  EXPECT_TRUE(reason.empty());

  // A bit-flipped frame is a miss WITH a structural reason.
  auto frames = frozen_frames();
  ASSERT_EQ(frames.size(), 1u);
  flip_byte(frames[0], fs::file_size(frames[0]) / 2);
  reason.clear();
  EXPECT_FALSE(cache.value().load_frozen(key, &reason).has_value());
  EXPECT_FALSE(reason.empty());
}

TEST_F(FrozenCacheFixture, AuditSeesFrozenFramesAndPrunesOrphans) {
  // Warm the cache through the pipeline so the .tfzn sits next to its .tsnp.
  CliRun cold = run({"find", jar_, "--cache", cache_dir_});
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_EQ(frozen_frames().size(), 1u);

  auto report = cache::audit_cache(cache_dir_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().frozen_checked, 1u);
  bool saw_frozen = false;
  for (const auto& entry : report.value().entries)
    saw_frozen |= entry.kind == cache::CacheAuditEntry::Kind::FrozenSnapshot;
  EXPECT_TRUE(saw_frozen);

  // Deleting the companion snapshot orphans the frame; prune reclaims it.
  for (const auto& entry : fs::directory_iterator(fs::path(cache_dir_) / "snapshots"))
    if (entry.path().extension() == ".tsnp") fs::remove(entry.path());
  auto orphaned = cache::audit_cache(cache_dir_, /*prune=*/true);
  ASSERT_TRUE(orphaned.ok()) << orphaned.error().message;
  EXPECT_EQ(orphaned.value().orphaned, 1u);
  EXPECT_GT(orphaned.value().reclaimed_bytes, 0u);
  EXPECT_TRUE(frozen_frames().empty());
}

TEST_F(FrozenCacheFixture, WarmFrozenStartSkipsTheStoreDecode) {
  // Each open runs on a fresh Engine, so nothing is resident between them.
  auto open = [&] {
    pipeline::EngineOptions options;
    options.cache_dir = cache_dir_;
    return pipeline::Engine(options).open({jar_}, {});
  };
  auto cold_open = open();
  ASSERT_TRUE(cold_open.ok()) << cold_open.error().message;
  const pipeline::Outcome& cold = cold_open.value()->outcome();
  EXPECT_FALSE(cold.warm);
  ASSERT_TRUE(cold.frozen.has_value());
  EXPECT_FALSE(cold.frozen->mapped());  // frozen in memory from the build

  auto warm_open = open();
  ASSERT_TRUE(warm_open.ok()) << warm_open.error().message;
  const pipeline::Outcome& warm = warm_open.value()->outcome();
  EXPECT_TRUE(warm.warm);
  ASSERT_TRUE(warm.frozen.has_value());
  EXPECT_TRUE(warm.frozen->mapped());  // the cached frame, attached
  // The graph bytes still carry the verified store blob, and the attached
  // frame is the cold run's freeze, bit for bit.
  EXPECT_EQ(warm.graph_bytes, cold.graph_bytes);
  EXPECT_TRUE(std::ranges::equal(warm.frozen->frame(), cold.frozen->frame()));

  // Corrupt the cached frame: the next warm run re-freezes from the store
  // decode with a warning — and self-heals by republishing a fresh frame.
  auto frames = frozen_frames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<char> before(fs::file_size(frames[0]));
  std::ifstream(frames[0], std::ios::binary).read(before.data(), before.size());
  flip_byte(frames[0], fs::file_size(frames[0]) - 3);
  auto healed_open = open();
  ASSERT_TRUE(healed_open.ok()) << healed_open.error().message;
  const pipeline::Outcome& healed = healed_open.value()->outcome();
  EXPECT_TRUE(healed.warm);
  ASSERT_TRUE(healed.frozen.has_value());
  EXPECT_FALSE(healed.frozen->mapped());  // re-frozen, not attached
  EXPECT_TRUE(std::ranges::equal(healed.frozen->frame(), cold.frozen->frame()));
  bool warned = false;
  for (const auto& warning : healed.warnings)
    warned |= warning.find("frozen") != std::string::npos;
  EXPECT_TRUE(warned);
  std::vector<char> after(fs::file_size(frames[0]));
  std::ifstream(frames[0], std::ios::binary).read(after.data(), after.size());
  EXPECT_EQ(before, after);  // byte-identical republish
}

TEST_F(FrozenCacheFixture, FailedFreezeIsARunError) {
  util::failpoint::arm();
  util::failpoint::activate("graph.freeze");
  auto cold = pipeline::Engine().open({jar_}, {});
  util::failpoint::disarm();
  ASSERT_FALSE(cold.ok());
  EXPECT_NE(cold.error().message.find("graph freeze failed"), std::string::npos)
      << cold.error().message;
}

// A cache directory written by the FNV-1a-era build (snapshot and verdict
// entries v1, frozen frame v1, each signed with FNV-1a64) must
// be a clean version miss that republishes current entries: same chains and
// verdicts, and never a checksum or corruption diagnostic.
TEST_F(FrozenCacheFixture, OldFormatCacheMissesAndRepublishes) {
  CliRun cold = run({"find", jar_, "--cache", cache_dir_, "--verify"});
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_NE(cold.out.find("auto-verify:"), std::string::npos) << cold.out;

  // Rewrite every entry in place as the previous format: old version field,
  // re-signed with FNV-1a64 where the checksum covers the whole file. (The
  // snapshot's header checksum sits mid-file; its version field is checked
  // before it, exactly as in every other format.)
  struct Legacy {
    const char* extension;
    std::uint16_t version;
    bool whole_file_checksum;
  };
  const Legacy formats[] = {{".tsnp", 1, false},
                            {".tvdt", 1, true},
                            {".tfzn", 1, true}};
  std::map<std::string, std::vector<char>> current;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir_)) {
    if (!entry.is_regular_file()) continue;
    for (const Legacy& legacy : formats) {
      if (entry.path().extension() != legacy.extension) continue;
      std::vector<char> bytes(fs::file_size(entry.path()));
      std::ifstream(entry.path(), std::ios::binary).read(bytes.data(), bytes.size());
      current[entry.path().string()] = bytes;
      std::memcpy(bytes.data() + 4, &legacy.version, sizeof legacy.version);
      if (legacy.whole_file_checksum) {
        std::uint64_t fnv = util::fnv1a(
            std::as_bytes(std::span<const char>(bytes.data(), bytes.size() - 8)));
        std::memcpy(bytes.data() + bytes.size() - 8, &fnv, sizeof fnv);
      }
      std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
          .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }
  std::set<std::string> kinds;
  for (const auto& [path, bytes] : current) kinds.insert(fs::path(path).extension().string());
  EXPECT_EQ(kinds, (std::set<std::string>{".tfzn", ".tsnp", ".tvdt"}));

  CliRun upgraded = run({"find", jar_, "--cache", cache_dir_, "--verify", "--metrics"});
  ASSERT_EQ(upgraded.code, 0) << upgraded.err;
  EXPECT_EQ(strip_cache_line(upgraded.out), strip_cache_line(cold.out));
  EXPECT_NE(upgraded.out.find("snapshot miss"), std::string::npos) << upgraded.out;
  EXPECT_EQ(upgraded.err.find("checksum"), std::string::npos) << upgraded.err;
  EXPECT_EQ(upgraded.err.find("corrupt"), std::string::npos) << upgraded.err;
  EXPECT_NE(upgraded.err.find("metrics: counter cache.verdict_misses"), std::string::npos)
      << upgraded.err;

  // Republished: every entry is back in the current format, byte-identical
  // to the first publish (no entry carries a clock).
  for (const auto& [path, bytes] : current) {
    std::vector<char> now(fs::file_size(path));
    std::ifstream(path, std::ios::binary).read(now.data(), now.size());
    EXPECT_EQ(now, bytes) << path;
  }
  CliRun warm = run({"find", jar_, "--cache", cache_dir_, "--verify"});
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
  EXPECT_EQ(strip_cache_line(warm.out), strip_cache_line(cold.out));
}

TEST_F(FrozenCacheFixture, CliFindIsByteIdenticalColdVsWarm) {
  CliRun cold = run({"find", jar_});
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_FALSE(cold.out.empty());
  CliRun cold_cached = run({"find", jar_, "--cache", cache_dir_});
  ASSERT_EQ(cold_cached.code, 0) << cold_cached.err;
  EXPECT_EQ(strip_cache_line(cold_cached.out), cold.out);
  ASSERT_EQ(frozen_frames().size(), 1u);
  for (const char* jobs : {"1", "4"}) {
    // The warm runs attach the frame the cold run published.
    CliRun warm = run({"find", jar_, "--cache", cache_dir_, "--jobs", jobs});
    ASSERT_EQ(warm.code, 0) << warm.err;
    EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
    EXPECT_EQ(strip_cache_line(warm.out), cold.out) << "jobs=" << jobs;
  }

  const std::string query = "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE";
  CliRun query_cold = run({"query", jar_, query});
  CliRun query_warm = run({"query", jar_, query, "--cache", cache_dir_});
  ASSERT_EQ(query_cold.code, 0) << query_cold.err;
  ASSERT_EQ(query_warm.code, 0) << query_warm.err;
  EXPECT_EQ(strip_cache_line(query_warm.out), query_cold.out);
}

// `analyze --cache` publishes the frame next to the snapshot, so the next
// analyze or find attaches it instead of decoding the store and re-freezing.
TEST_F(FrozenCacheFixture, AnalyzeCacheHandsTheFrameToFind) {
  const std::string store = (dir_ / "cold.tgdb").string();
  CliRun analyze_cold = run({"analyze", jar_, "--store", store});
  CliRun find_cold = run({"find", jar_});
  ASSERT_EQ(analyze_cold.code, 0) << analyze_cold.err;
  ASSERT_EQ(find_cold.code, 0) << find_cold.err;

  CliRun published = run({"analyze", jar_, "--cache", cache_dir_});
  ASSERT_EQ(published.code, 0) << published.err;
  ASSERT_EQ(frozen_frames().size(), 1u);

  const std::string warm_store = (dir_ / "warm.tgdb").string();
  CliRun analyze_warm =
      run({"analyze", jar_, "--cache", cache_dir_, "--store", warm_store, "--metrics"});
  CliRun find_warm = run({"find", jar_, "--cache", cache_dir_, "--metrics"});
  for (const CliRun* warm : {&analyze_warm, &find_warm}) {
    ASSERT_EQ(warm->code, 0) << warm->err;
    EXPECT_NE(warm->out.find("snapshot hit"), std::string::npos) << warm->out;
    EXPECT_NE(warm->err.find("metrics: counter cache.frozen_hits = 1\n"), std::string::npos)
        << warm->err;
    EXPECT_EQ(warm->err.find("graph.freeze"), std::string::npos) << warm->err;
  }
  auto stats_lines = [](const std::string& out) {
    return out.substr(0, out.find("graph store written to "));
  };
  EXPECT_EQ(stats_lines(strip_cache_line(analyze_warm.out)), stats_lines(analyze_cold.out));
  EXPECT_EQ(strip_cache_line(find_warm.out), find_cold.out);
  std::ifstream cold_bytes(store, std::ios::binary), warm_bytes(warm_store, std::ios::binary);
  EXPECT_TRUE(std::equal(std::istreambuf_iterator<char>(cold_bytes), {},
                         std::istreambuf_iterator<char>(warm_bytes), {}));
}

}  // namespace
}  // namespace tabby
