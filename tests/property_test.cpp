// Cross-module property tests, swept over every Table IX component model:
// archive and text round trips, CPG structural invariants, chain soundness
// (every reported chain is a CALL/ALIAS-connected source-to-sink path whose
// Trigger_Condition survives), and persistence stability of search results.
#include <gtest/gtest.h>

#include "analysis/domain.hpp"
#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "graph/serialize.hpp"
#include "jir/parser.hpp"
#include "jir/printer.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

class ComponentProperty : public ::testing::TestWithParam<std::string> {
 public:
  static std::string sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
  }
};

TEST_P(ComponentProperty, ArchiveBinaryRoundTrip) {
  corpus::Component component = corpus::build_component(GetParam());
  auto bytes = jar::write_archive(component.jar);
  auto reread = jar::read_archive(bytes);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  ASSERT_EQ(reread.value().classes.size(), component.jar.classes.size());
  // Canonical text must be identical class-by-class.
  for (std::size_t i = 0; i < component.jar.classes.size(); ++i) {
    EXPECT_EQ(jir::to_text(reread.value().classes[i]), jir::to_text(component.jar.classes[i]));
  }
}

TEST_P(ComponentProperty, TextualRoundTrip) {
  corpus::Component component = corpus::build_component(GetParam());
  jir::Program program = component.link();
  std::string text = jir::to_text(program);
  auto reparsed = jir::parse_program(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(jir::to_text(reparsed.value()), text);
}

TEST_P(ComponentProperty, CpgStructuralInvariants) {
  corpus::Component component = corpus::build_component(GetParam());
  cpg::Cpg cpg = cpg::build_cpg(component.link());
  const graph::GraphDb& db = cpg.db;

  db.for_each_edge([&](const graph::Edge& e) {
    const graph::Node& from = db.node(e.from);
    const graph::Node& to = db.node(e.to);
    if (e.type == cpg::kHasEdge) {
      EXPECT_EQ(from.label, cpg::kClassLabel);
      EXPECT_EQ(to.label, cpg::kMethodLabel);
      // The method's CLASSNAME is its owning class's NAME.
      EXPECT_EQ(to.prop_string(std::string(cpg::kPropClassName)),
                from.prop_string(std::string(cpg::kPropName)));
    } else if (e.type == cpg::kExtendEdge || e.type == cpg::kInterfaceEdge) {
      EXPECT_EQ(from.label, cpg::kClassLabel);
      EXPECT_EQ(to.label, cpg::kClassLabel);
    } else if (e.type == cpg::kCallEdge) {
      EXPECT_EQ(from.label, cpg::kMethodLabel);
      EXPECT_EQ(to.label, cpg::kMethodLabel);
      // Every surviving CALL edge has a PP with at least one controllable
      // position (the PCG pruning invariant).
      const auto* pp = std::get_if<std::vector<std::int64_t>>(
          e.prop(std::string(cpg::kPropPollutedPosition)));
      ASSERT_NE(pp, nullptr);
      EXPECT_FALSE(pp->empty());
      bool any_controllable = false;
      for (std::int64_t w : *pp) any_controllable |= analysis::is_controllable(w);
      EXPECT_TRUE(any_controllable);
    } else if (e.type == cpg::kAliasEdge) {
      // ALIAS links methods with identical name and arity.
      EXPECT_EQ(from.prop_string(std::string(cpg::kPropName)),
                to.prop_string(std::string(cpg::kPropName)));
      EXPECT_EQ(from.prop_int(std::string(cpg::kPropParamCount)),
                to.prop_int(std::string(cpg::kPropParamCount)));
    }
  });

  // Every source node sits in a serializable class.
  for (graph::NodeId id : db.find_nodes(std::string(cpg::kMethodLabel),
                                        std::string(cpg::kPropIsSource), graph::Value{true})) {
    std::string owner = db.node(id).prop_string(std::string(cpg::kPropClassName));
    auto classes = db.find_nodes(std::string(cpg::kClassLabel), std::string(cpg::kPropName),
                                 graph::Value{owner});
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_TRUE(db.node(classes[0]).prop_bool(std::string(cpg::kPropSerializable))) << owner;
  }
}

TEST_P(ComponentProperty, ReportedChainsAreConnectedSourceToSinkPaths) {
  corpus::Component component = corpus::build_component(GetParam());
  cpg::Cpg cpg = cpg::build_cpg(component.link());
  finder::GadgetChainFinder finder(cpg.db);
  for (const finder::GadgetChain& chain : finder.find_all().chains) {
    ASSERT_GE(chain.nodes.size(), 2u);
    EXPECT_TRUE(cpg.db.node(chain.nodes.front()).prop_bool(std::string(cpg::kPropIsSource)));
    EXPECT_TRUE(cpg.db.node(chain.nodes.back()).prop_bool(std::string(cpg::kPropIsSink)));
    for (std::size_t i = 0; i + 1 < chain.nodes.size(); ++i) {
      // Forward CALL (caller -> callee) or reverse ALIAS (override <- decl).
      bool connected =
          cpg.db.find_edge(chain.nodes[i], chain.nodes[i + 1], cpg::kCallEdge).has_value() ||
          cpg.db.find_edge(chain.nodes[i + 1], chain.nodes[i], cpg::kAliasEdge).has_value();
      EXPECT_TRUE(connected) << chain.signatures[i] << " -/-> " << chain.signatures[i + 1];
    }
    // No node repeats (NodePath uniqueness).
    std::set<graph::NodeId> unique(chain.nodes.begin(), chain.nodes.end());
    EXPECT_EQ(unique.size(), chain.nodes.size());
  }
}

TEST_P(ComponentProperty, SearchResultsSurviveGraphPersistence) {
  corpus::Component component = corpus::build_component(GetParam());
  cpg::Cpg cpg = cpg::build_cpg(component.link());
  finder::GadgetChainFinder before(cpg.db);
  auto chains_before = before.find_all().chains;

  auto loaded = graph::deserialize(graph::serialize(cpg.db));
  ASSERT_TRUE(loaded.ok());
  finder::GadgetChainFinder after(loaded.value());
  auto chains_after = after.find_all().chains;

  ASSERT_EQ(chains_after.size(), chains_before.size());
  std::multiset<std::string> keys_before, keys_after;
  for (const auto& c : chains_before) keys_before.insert(c.key());
  for (const auto& c : chains_after) keys_after.insert(c.key());
  EXPECT_EQ(keys_before, keys_after);
}

TEST_P(ComponentProperty, PrunedGraphIsSubsetOfUnpruned) {
  corpus::Component component = corpus::build_component(GetParam());
  jir::Program program = component.link();
  cpg::Cpg pruned = cpg::build_cpg(program);
  cpg::CpgOptions raw_options;
  raw_options.prune_uncontrollable_calls = false;
  cpg::Cpg raw = cpg::build_cpg(program, raw_options);
  EXPECT_LE(pruned.stats.call_edges, raw.stats.call_edges);
  EXPECT_EQ(pruned.stats.call_edges + pruned.stats.pruned_call_sites >= raw.stats.call_edges,
            true);
  // Pruning must not change what the finder reports (TC checking already
  // rejects those edges): result sets are identical.
  finder::GadgetChainFinder on_pruned(pruned.db);
  finder::GadgetChainFinder on_raw(raw.db);
  std::multiset<std::string> a, b;
  for (const auto& c : on_pruned.find_all().chains) a.insert(c.key());
  for (const auto& c : on_raw.find_all().chains) b.insert(c.key());
  EXPECT_EQ(a, b);
}

// --- Content-digest properties backing the incremental cache keys ---------

/// The digest of an archive is a pure function of its bytes: computing it
/// serially, in reverse enumeration order, or concurrently across a worker
/// pool yields the same value per archive. (Archive *ordering* still matters
/// to the combined snapshot key — the linker's first-wins rule — but never
/// to the per-archive digests the key is folded from.)
TEST(DigestProperty, StableAcrossOrderingsAndJobCounts) {
  const std::vector<std::string>& names = corpus::component_names();
  std::vector<std::vector<std::byte>> archives;
  for (const std::string& name : names) {
    archives.push_back(jar::write_archive(corpus::build_component(name).jar));
  }

  std::vector<std::uint64_t> forward(archives.size()), reverse(archives.size()),
      parallel(archives.size());
  for (std::size_t i = 0; i < archives.size(); ++i) forward[i] = util::digest_bytes(archives[i]);
  for (std::size_t i = archives.size(); i-- > 0;) reverse[i] = util::digest_bytes(archives[i]);
  util::ThreadPool pool(4);
  pool.parallel_for(archives.size(),
                    [&](std::size_t i) { parallel[i] = util::digest_bytes(archives[i]); });

  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward, parallel);

  // Distinct components produce distinct digests (no accidental aliasing
  // that would let one component's snapshot answer for another).
  std::set<std::uint64_t> unique(forward.begin(), forward.end());
  EXPECT_EQ(unique.size(), forward.size());
}

/// Every digest step is a bijection of the word it absorbs and of the lane
/// or state it updates, and the fold and avalanche are bijections, so for
/// equal-length inputs a change confined to one aligned 8-byte word
/// *always* changes the digest. Checked exhaustively: every offset of an
/// archive, every length 0..130 (empty, tail only, exactly one 32-byte
/// block, blocks plus tail) with several bit patterns per byte, and every
/// offset of a 1 MiB buffer. A stale snapshot can therefore never be served
/// for a .tjar that was mutated in place.
TEST(DigestProperty, AnySingleByteMutationChangesTheDigest) {
  auto expect_every_byte_matters = [](std::vector<std::byte> bytes,
                                      std::initializer_list<std::uint8_t> flips) {
    const std::uint64_t original = util::digest_bytes(bytes);
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
      const std::byte saved = bytes[offset];
      for (std::uint8_t flip : flips) {
        bytes[offset] = saved ^ std::byte{flip};
        ASSERT_NE(util::digest_bytes(bytes), original)
            << "digest collision at offset " << offset << " of " << bytes.size()
            << " byte(s), flip 0x" << std::hex << int{flip};
      }
      bytes[offset] = saved;
    }
  };

  std::vector<std::byte> archive = jar::write_archive(corpus::build_component("BeanShell1").jar);
  ASSERT_FALSE(archive.empty());
  expect_every_byte_matters(archive, {0x01});

  util::Rng rng(42);
  for (std::size_t length = 0; length <= 130; ++length) {
    std::vector<std::byte> bytes(length);
    for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next_below(256));
    expect_every_byte_matters(bytes, {0x01, 0x80, 0xFF});
  }

  // 1 MiB: hashing it once per offset would be a terabyte, so flip the
  // first and last 64 bytes exhaustively and every 1021st byte between. The
  // prime stride is coprime to the 32-byte block, so it reaches every lane
  // and every byte position within a word.
  std::vector<std::byte> big(std::size_t{1} << 20);
  for (std::byte& b : big) b = static_cast<std::byte>(rng.next_below(256));
  const std::uint64_t original = util::digest_bytes(big);
  std::set<std::size_t> offsets;
  for (std::size_t i = 0; i < 64; ++i) offsets.insert({i, big.size() - 1 - i});
  for (std::size_t offset = 0; offset < big.size(); offset += 1021) offsets.insert(offset);
  for (std::size_t offset : offsets) {
    big[offset] ^= std::byte{0x01};
    EXPECT_NE(util::digest_bytes(big), original) << "digest collision at offset " << offset;
    big[offset] ^= std::byte{0x01};
  }

  // An input is not confused with its zero-extended copy: the length seeds
  // the state before the last partial word is zero-padded.
  std::vector<std::byte> zeros(13);
  EXPECT_NE(util::digest_bytes(std::span<const std::byte>(zeros).first(12)),
            util::digest_bytes(zeros));
}

/// Pinned digests of fixed inputs: every cache key, store trailer and frame
/// checksum depends on these exact values, so a drift in the construction
/// (constants, rotation, byte order, tail handling) must fail here rather
/// than silently turn every cache into misses or every store into errors.
/// The values were cross-checked against an independent re-implementation.
TEST(DigestProperty, GoldenValuesArePinned) {
  std::vector<std::byte> ramp(100);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<std::byte>(i);
  EXPECT_EQ(util::digest_hex(util::digest_bytes("")), "4f2c7808079ab827");
  EXPECT_EQ(util::digest_hex(util::digest_bytes("a")), "e4cb4944403ecda9");
  EXPECT_EQ(util::digest_hex(util::digest_bytes("tabby")), "32bef61706710afe");
  EXPECT_EQ(util::digest_hex(util::digest_bytes("0123456789abcdef0123456789abcdef")),
            "66efceff3a5e6ec0");
  EXPECT_EQ(util::digest_hex(util::digest_bytes(ramp)), "4692ae212deaf6bc");
}

TEST(DigestProperty, HexRenderingIsFixedWidthAndDistinct) {
  EXPECT_EQ(util::digest_hex(0), "0000000000000000");
  EXPECT_EQ(util::digest_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
  EXPECT_NE(util::digest_hex(util::digest_bytes("a")), util::digest_hex(util::digest_bytes("b")));
}

INSTANTIATE_TEST_SUITE_P(AllComponents, ComponentProperty,
                         ::testing::ValuesIn(corpus::component_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return ComponentProperty::sanitize(info.param);
                         });

}  // namespace
}  // namespace tabby
