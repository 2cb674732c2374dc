// Fuzz-style corruption coverage for the versioned graph-store format
// (graph/serialize). The store parses untrusted bytes, so every corruption —
// truncation at any offset, a flipped byte anywhere, a wrong magic, a
// version skew, a pre-versioning store, a zero-length file — must surface as
// a util::Result error with a useful message, and must never crash, leak or
// read out of bounds (this suite runs under the CI sanitizer job).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "graph/serialize.hpp"
#include "util/bytes.hpp"
#include "util/digest.hpp"

namespace tabby::graph {
namespace {

namespace fs = std::filesystem;

/// A small graph exercising every Value tag the format can carry.
GraphDb tiny_graph() {
  GraphDb db;
  PropertyMap props;
  props["null"] = Value{std::monostate{}};
  props["flag"] = Value{true};
  props["int"] = Value{std::int64_t{-42}};
  props["pi"] = Value{3.14159};
  props["name"] = Value{std::string{"node"}};
  props["ints"] = Value{std::vector<std::int64_t>{-1, 0, 7}};
  props["strs"] = Value{std::vector<std::string>{"a", "bc"}};
  NodeId a = db.add_node("Method", props);
  NodeId b = db.add_node("Method", {{"name", Value{std::string{"callee"}}}});
  db.add_edge(a, b, "CALL", {{"pp", Value{std::vector<std::int64_t>{0}}}});
  return db;
}

std::vector<std::byte> flip(std::vector<std::byte> bytes, std::size_t offset) {
  bytes[offset] ^= std::byte{0xFF};
  return bytes;
}

TEST(SerializeRobustness, RoundTripIsByteStable) {
  std::vector<std::byte> first = serialize(tiny_graph());
  auto loaded = deserialize(first);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(serialize(loaded.value()), first);

  // And for a realistic CPG, the property the warm `--store` path relies on.
  corpus::Component component = corpus::build_component("BeanShell1");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  auto reloaded = deserialize(store);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();
  EXPECT_EQ(serialize(reloaded.value()), store);
}

TEST(SerializeRobustness, ZeroLengthInputIsRejected) {
  auto r = deserialize({});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("truncated"), std::string::npos);
}

TEST(SerializeRobustness, TruncationAtEveryOffsetIsRejected) {
  std::vector<std::byte> store = serialize(tiny_graph());
  std::span<const std::byte> all(store);
  for (std::size_t len = 0; len < store.size(); ++len) {
    auto r = deserialize(all.first(len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed successfully";
  }
}

TEST(SerializeRobustness, TruncationOfRealStoreAtSectionBoundariesIsRejected) {
  corpus::Component component = corpus::build_component("C3P0");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  std::span<const std::byte> all(store);
  // Section boundaries: inside magic, after magic, after version, after the
  // declared length, the first payload byte, mid-payload, inside the
  // trailing checksum — plus a stride sweep across the whole store.
  std::vector<std::size_t> cuts{0, 2, 4, 6, 13, 14, 15, store.size() / 2, store.size() - 8,
                                store.size() - 1};
  for (std::size_t len = 0; len < store.size(); len += 97) cuts.push_back(len);
  for (std::size_t len : cuts) {
    auto r = deserialize(all.first(len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed successfully";
  }
}

TEST(SerializeRobustness, EverySingleByteFlipIsRejected) {
  // The checksum covers header and payload, so no single corrupted byte may
  // survive — including corruption of the checksum itself.
  std::vector<std::byte> store = serialize(tiny_graph());
  for (std::size_t offset = 0; offset < store.size(); ++offset) {
    auto r = deserialize(flip(store, offset));
    EXPECT_FALSE(r.ok()) << "flip at offset " << offset << " parsed successfully";
  }
}

TEST(SerializeRobustness, SampledByteFlipsOfRealStoreAreRejected) {
  corpus::Component component = corpus::build_component("C3P0");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  for (std::size_t offset = 0; offset < store.size(); offset += 131) {
    auto r = deserialize(flip(store, offset));
    EXPECT_FALSE(r.ok()) << "flip at offset " << offset << " parsed successfully";
  }
}

TEST(SerializeRobustness, BadMagicIsDiagnosed) {
  auto r = deserialize(flip(serialize(tiny_graph()), 0));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("magic"), std::string::npos) << r.error().to_string();
}

TEST(SerializeRobustness, ChecksumMismatchIsDiagnosed) {
  // Flip a payload byte: magic/version/length still parse, the checksum
  // must catch it before any payload decoding happens.
  std::vector<std::byte> store = serialize(tiny_graph());
  auto r = deserialize(flip(store, store.size() / 2));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("checksum mismatch"), std::string::npos)
      << r.error().to_string();
}

TEST(SerializeRobustness, TrailingGarbageIsDiagnosed) {
  std::vector<std::byte> store = serialize(tiny_graph());
  store.push_back(std::byte{0x00});
  auto r = deserialize(store);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("truncated or oversized"), std::string::npos)
      << r.error().to_string();
}

TEST(SerializeRobustness, FutureVersionIsRejectedWithDiagnostic) {
  std::vector<std::byte> store = serialize(tiny_graph());
  store[4] = std::byte{99};  // version field lives right after the magic
  store[5] = std::byte{0};
  auto r = deserialize(store);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("unsupported graph store version 99"), std::string::npos)
      << r.error().to_string();
}

// Regression: the pre-versioning (version 1) layout had no payload length
// and no checksum, and load() used to accept arbitrary bytes after the
// 6-byte prefix. Such stores, like version 2 ones, must fail closed with a
// message that tells the user how to recover.
TEST(SerializeRobustness, PreVersioningStoreIsRejectedWithHelpfulMessage) {
  util::ByteWriter legacy;
  legacy.u32(kGraphStoreMagic);
  legacy.u16(1);           // the old version field
  legacy.uvarint(1);       // node count
  legacy.bytes("Method");  // label
  legacy.uvarint(0);       // no props
  legacy.uvarint(0);       // edge count
  // Pad past the minimum store size so the version check, not the length
  // check, is what rejects it.
  for (int i = 0; i < 16; ++i) legacy.u8(0);
  auto r = deserialize(legacy.data());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("version 1 predates"), std::string::npos)
      << r.error().to_string();
  EXPECT_NE(r.error().to_string().find("tabby analyze --store"), std::string::npos)
      << r.error().to_string();

  // Version 2 (this layout with an FNV-1a64 trailer) is what every earlier
  // `analyze --store` wrote: rejected by version with the same hint, never
  // reported as a corrupt or tampered store.
  std::vector<std::byte> v2 = serialize(tiny_graph());
  v2[4] = std::byte{2};
  v2[5] = std::byte{0};
  std::uint64_t fnv = util::fnv1a(std::span<const std::byte>(v2).first(v2.size() - 8));
  for (int i = 0; i < 8; ++i) v2[v2.size() - 8 + i] = static_cast<std::byte>(fnv >> (8 * i));
  auto r2 = deserialize(v2);
  ASSERT_FALSE(r2.ok());
  const std::string message = r2.error().to_string();
  EXPECT_NE(message.find("version 2 predates"), std::string::npos) << message;
  EXPECT_NE(message.find("tabby analyze --store"), std::string::npos) << message;
  EXPECT_EQ(message.find("checksum mismatch"), std::string::npos) << message;
}

TEST(SerializeRobustness, LoadRejectsMissingEmptyAndGarbageFiles) {
  fs::path dir = fs::temp_directory_path() / ("tabby_ser_robust_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  auto missing = load(dir / "does_not_exist.tgdb");
  EXPECT_FALSE(missing.ok());

  {
    std::ofstream empty(dir / "empty.tgdb", std::ios::binary);
  }
  auto empty = load(dir / "empty.tgdb");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error().to_string().find("truncated"), std::string::npos);

  {
    std::ofstream text(dir / "garbage.tgdb", std::ios::binary);
    text << "this is not a graph store, just some text that is long enough";
  }
  auto garbage = load(dir / "garbage.tgdb");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error().to_string().find("magic"), std::string::npos);

  fs::remove_all(dir);
}

TEST(SerializeRobustness, SaveLoadRoundTripsThroughDisk) {
  fs::path dir = fs::temp_directory_path() / ("tabby_ser_disk_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  GraphDb db = tiny_graph();
  ASSERT_TRUE(save(db, dir / "ok.tgdb").ok());
  auto loaded = load(dir / "ok.tgdb");
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(serialize(loaded.value()), serialize(db));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tabby::graph
