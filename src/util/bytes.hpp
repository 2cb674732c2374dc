// Bounds-checked binary cursor primitives for the TJAR archive format.
// Readers treat the input as untrusted (the paper's pipeline parses Jar
// files it downloaded), so every read reports failure through Result instead
// of asserting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace tabby::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xFF));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xFFFF));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xFFFFFFFF));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  /// LEB128-style unsigned varint.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }
  void bytes(std::string_view s) {
    uvarint(s.size());
    raw(std::as_bytes(std::span<const char>(s)));
  }
  /// Appends bytes verbatim (no length prefix), in one bulk copy.
  void raw(std::span<const std::byte> data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  /// Overwrites 8 bytes at `at` (a placeholder written earlier) with `v`,
  /// little-endian: for a length that is only known after its payload.
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) buf_.at(at + i) = static_cast<std::byte>(v >> (8 * i));
  }

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  util::Result<std::uint8_t> u8() {
    if (pos_ >= data_.size()) return err("unexpected end of archive");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  util::Result<std::uint16_t> u16() {
    auto lo = u8();
    if (!lo.ok()) return lo.error();
    auto hi = u8();
    if (!hi.ok()) return hi.error();
    return static_cast<std::uint16_t>(lo.value() | (hi.value() << 8));
  }
  util::Result<std::uint32_t> u32() {
    auto lo = u16();
    if (!lo.ok()) return lo.error();
    auto hi = u16();
    if (!hi.ok()) return hi.error();
    return static_cast<std::uint32_t>(lo.value()) | (static_cast<std::uint32_t>(hi.value()) << 16);
  }
  util::Result<std::uint64_t> u64() {
    auto lo = u32();
    if (!lo.ok()) return lo.error();
    auto hi = u32();
    if (!hi.ok()) return hi.error();
    return static_cast<std::uint64_t>(lo.value()) | (static_cast<std::uint64_t>(hi.value()) << 32);
  }
  util::Result<std::uint64_t> uvarint() {
    // Hand-rolled rather than layered on u8(): varints are the hottest read
    // in store/archive parsing, and the per-byte Result round trips cost
    // real time on multi-megabyte loads.
    std::uint64_t out = 0;
    int shift = 0;
    while (pos_ < data_.size()) {
      std::uint8_t b = static_cast<std::uint8_t>(data_[pos_++]);
      if (shift >= 64) return err("varint overflow");
      out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return out;
      shift += 7;
    }
    return err("unexpected end of archive");
  }
  util::Result<std::int64_t> svarint() {
    auto raw = uvarint();
    if (!raw.ok()) return raw.error();
    std::uint64_t v = raw.value();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  util::Result<std::string> bytes() {
    auto len = uvarint();
    if (!len.ok()) return len.error();
    if (len.value() > remaining()) return err("string length exceeds archive size");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len.value());
    pos_ += len.value();
    return out;
  }

  /// Reads a count-prefixed collection size, rejecting absurd counts before
  /// any allocation happens (each element needs at least one byte).
  util::Result<std::size_t> count(std::string_view what) {
    auto n = uvarint();
    if (!n.ok()) return n.error();
    if (n.value() > remaining()) {
      return err("declared " + std::string(what) + " count exceeds archive size");
    }
    return static_cast<std::size_t>(n.value());
  }

 private:
  util::Error err(std::string message) const { return util::Error{std::move(message), pos_}; }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace tabby::util
