// Tests for the TJAR binary archive substrate: round trips, classpath
// linking semantics, and robustness against corrupt/truncated input.
#include <gtest/gtest.h>

#include <filesystem>

#include "jar/archive.hpp"
#include "jir/builder.hpp"
#include "jir/printer.hpp"
#include "util/rng.hpp"

namespace tabby::jar {
namespace {

Archive sample_archive() {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("demo.Sample");
  cls.serializable();
  cls.field("data", "java.lang.Object");
  auto m = cls.method("readObject").param("java.io.ObjectInputStream").returns("void");
  m.field_load("v", "@this", "data");
  m.const_str("s", "payload");
  m.if_cmp("v", jir::CmpOp::Ne, "s", "end");
  m.invoke_virtual("r", "v", "java.lang.Object", "toString", {});
  m.mark("end");
  m.ret();
  jir::Program p = pb.build();

  Archive a;
  a.meta.name = "demo-sample";
  a.meta.version = "1.2.3";
  a.classes = p.classes();
  return a;
}

TEST(Archive, RoundTripPreservesEverything) {
  Archive original = sample_archive();
  auto bytes = write_archive(original);
  auto reread = read_archive(bytes);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();

  EXPECT_EQ(reread.value().meta.name, "demo-sample");
  EXPECT_EQ(reread.value().meta.version, "1.2.3");
  ASSERT_EQ(reread.value().classes.size(), original.classes.size());

  // Compare via the canonical text rendering.
  for (std::size_t i = 0; i < original.classes.size(); ++i) {
    EXPECT_EQ(jir::to_text(reread.value().classes[i]), jir::to_text(original.classes[i]));
  }
}

TEST(Archive, EmptyArchiveRoundTrips) {
  Archive empty;
  empty.meta.name = "empty";
  auto reread = read_archive(write_archive(empty));
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread.value().classes.empty());
}

TEST(Archive, FileRoundTrip) {
  Archive original = sample_archive();
  auto path = std::filesystem::temp_directory_path() / "tabby_test.tjar";
  ASSERT_TRUE(write_archive_file(original, path).ok());
  auto reread = read_archive_file(path);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  EXPECT_EQ(reread.value().meta.name, original.meta.name);
  std::filesystem::remove(path);
}

TEST(Archive, MissingFileFails) {
  auto result = read_archive_file("/nonexistent/path/file.tjar");
  EXPECT_FALSE(result.ok());
}

TEST(Archive, BadMagicRejected) {
  auto bytes = write_archive(sample_archive());
  bytes[0] = std::byte{0x00};
  EXPECT_FALSE(read_archive(bytes).ok());
}

TEST(Archive, UnsupportedVersionRejected) {
  auto bytes = write_archive(sample_archive());
  bytes[4] = std::byte{0xFF};  // version low byte
  EXPECT_FALSE(read_archive(bytes).ok());
}

TEST(Archive, EveryTruncationFailsCleanly) {
  auto bytes = write_archive(sample_archive());
  // Chop at a spread of prefixes; the reader must return an Error (never
  // crash or accept).
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_FALSE(read_archive(prefix).ok()) << "prefix length " << len;
  }
}

TEST(Archive, RandomByteFlipsNeverCrash) {
  auto bytes = write_archive(sample_archive());
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = bytes;
    std::size_t pos = rng.next_below(corrupted.size());
    corrupted[pos] = std::byte{static_cast<unsigned char>(rng.next_u64())};
    auto result = read_archive(corrupted);  // outcome may be ok or error
    if (result.ok()) {
      // If it parsed, the class list must at least be structurally sane.
      for (const auto& cls : result.value().classes) EXPECT_FALSE(cls.name.empty());
    }
  }
}

TEST(Archive, TrailingGarbageRejected) {
  auto bytes = write_archive(sample_archive());
  bytes.push_back(std::byte{0x01});
  EXPECT_FALSE(read_archive(bytes).ok());
}

TEST(Link, FirstArchiveWinsOnDuplicates) {
  jir::ProgramBuilder pb1;
  auto c1 = pb1.add_class("demo.Dup");
  c1.field("fromFirst", "int");
  Archive a1;
  a1.meta.name = "first";
  a1.classes = pb1.build().classes();

  jir::ProgramBuilder pb2;
  auto c2 = pb2.add_class("demo.Dup");
  c2.field("fromSecond", "int");
  auto c3 = pb2.add_class("demo.Unique");
  Archive a2;
  a2.meta.name = "second";
  a2.classes = pb2.build().classes();

  std::size_t skipped = 0;
  jir::Program linked = link({a1, a2}, &skipped);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(linked.class_count(), 2u);
  const jir::ClassDecl* dup = linked.find_class("demo.Dup");
  ASSERT_NE(dup, nullptr);
  ASSERT_EQ(dup->fields.size(), 1u);
  EXPECT_EQ(dup->fields[0].name, "fromFirst");
}

TEST(Link, MovedClasspathLinksLikeACopy) {
  // Two archives defining one class twice, plus classes of their own.
  Archive first = sample_archive();
  Archive second = sample_archive();
  second.meta.name = "second";
  second.classes.front().fields.push_back({"shadowed", jir::int_type(), {}});
  jir::ProgramBuilder pb;
  pb.add_class("demo.OnlyInSecond").field("x", "int");
  jir::Program extra = pb.build();
  second.classes.push_back(extra.classes().front());
  const std::vector<Archive> classpath{first, second};

  std::size_t copied_skipped = 0;
  jir::Program copied = link(classpath, &copied_skipped);
  std::vector<Archive> consumed = classpath;
  std::size_t moved_skipped = 0;
  jir::Program moved = link(std::move(consumed), &moved_skipped);

  EXPECT_GT(copied_skipped, 0u);
  EXPECT_EQ(moved_skipped, copied_skipped);
  // Same classes in the same order, compared through the archive codec
  // (which writes every field, method and statement).
  Archive copied_as_archive{{"linked", ""}, copied.classes()};
  Archive moved_as_archive{{"linked", ""}, moved.classes()};
  EXPECT_EQ(write_archive(moved_as_archive), write_archive(copied_as_archive));
  ASSERT_EQ(moved.class_count(), copied.class_count());
  for (std::size_t i = 0; i < moved.class_count(); ++i) {
    EXPECT_EQ(moved.classes()[i].name, copied.classes()[i].name);
  }
  const jir::ClassDecl* dup = moved.find_class(second.classes.front().name);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->find_field("shadowed"), nullptr);  // the first definition won
  EXPECT_NE(moved.find_class("demo.OnlyInSecond"), nullptr);
}

TEST(Link, EmptyClasspathYieldsEmptyProgram) {
  jir::Program p = link({});
  EXPECT_EQ(p.class_count(), 0u);
}

TEST(Archive, MethodCountHelper) {
  Archive a = sample_archive();
  EXPECT_EQ(a.method_count(),
            [&] {
              std::size_t n = 0;
              for (const auto& c : a.classes) n += c.methods.size();
              return n;
            }());
}

}  // namespace
}  // namespace tabby::jar
