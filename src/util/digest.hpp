// Content digests for the incremental analysis cache and the on-disk
// checksums (graph store trailer, frozen frame, cache entry frames).
//
// digest_bytes() hashes a buffer a word at a time. It reads little-endian
// 8-byte words with a memcpy load (one real 64-bit load; byte-swapped on a
// big-endian host) and keeps 4 independent lanes, one word each per 32-byte
// block, each updated as
//     lane = rotl((lane ^ word) * P, r)
// Then it folds the lanes one after another into a state seeded with the
// length, absorbs the tail (up to 3 whole words, then the last partial word
// zero-padded) with the same step, and ends with an xor-shift/multiply
// avalanche. The lanes hide each other's multiply latency, which is what lets
// it hash at memory speed where byte-at-a-time FNV-1a waits one dependent
// multiply per byte.
//
// Guarantee: for a fixed lane or state, every step is a bijection of the
// word, and for a fixed word a bijection of the lane or state; the fold and
// the avalanche are bijections too. So for two inputs of the same length, a
// change confined to one aligned 8-byte word (bytes 8k..8k+7), in particular
// any single-byte change, always changes the digest. That makes it a sound
// cache key for "did this archive change" and a sound checksum for "was this
// file corrupted", which only ever compare contents of controlled
// provenance. It is not a cryptographic hash and offers no collision
// resistance against an adversary crafting inputs.
//
// The streaming Fnv1a builder stays for the small typed fingerprints
// (options, snapshot key, verdict key), where the fed sequence is a few
// dozen bytes and its field-by-field API matters more than throughput.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace tabby::util {

namespace digest_detail {

inline constexpr std::uint64_t kPrimeLane = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrimeFold = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kLaneSeeds[4] = {0x165667B19E3779F9ULL, 0x85EBCA77C2B2AE63ULL,
                                                0x27D4EB2F165667C5ULL, 0x61C8864E7A143579ULL};

inline std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
  return word;
}

inline std::uint64_t lane_step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl((lane ^ word) * kPrimeLane, 31);
}

inline std::uint64_t fold_step(std::uint64_t state, std::uint64_t word) {
  return std::rotl((state ^ word) * kPrimeFold, 27);
}

}  // namespace digest_detail

/// Word-at-a-time, 4-lane content digest of a buffer (see the header
/// comment for the construction and its guarantee). A pure function of the
/// bytes: job counts, alignment and host byte order never influence it.
inline std::uint64_t digest_bytes(std::span<const std::byte> data) {
  using namespace digest_detail;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t l0 = kLaneSeeds[0], l1 = kLaneSeeds[1], l2 = kLaneSeeds[2], l3 = kLaneSeeds[3];
  for (; n >= 32; p += 32, n -= 32) {
    l0 = lane_step(l0, load_le64(p));
    l1 = lane_step(l1, load_le64(p + 8));
    l2 = lane_step(l2, load_le64(p + 16));
    l3 = lane_step(l3, load_le64(p + 24));
  }
  std::uint64_t state = static_cast<std::uint64_t>(data.size()) * kPrimeLane;
  state = fold_step(state, l0);
  state = fold_step(state, l1);
  state = fold_step(state, l2);
  state = fold_step(state, l3);
  for (; n >= 8; p += 8, n -= 8) state = fold_step(state, load_le64(p));
  if (n > 0) {
    // The length is already in the state, so zero padding is unambiguous.
    std::byte last[8] = {};
    std::memcpy(last, p, n);
    state = fold_step(state, load_le64(last));
  }
  state ^= state >> 33;
  state *= 0xFF51AFD7ED558CCDULL;
  state ^= state >> 33;
  state *= 0xC4CEB9FE1A85EC53ULL;
  state ^= state >> 33;
  return state;
}

inline std::uint64_t digest_bytes(std::string_view s) {
  return digest_bytes(std::as_bytes(std::span<const char>(s)));
}

/// Streaming FNV-1a 64-bit hasher. Feed bytes/values in a fixed order; the
/// digest is a pure function of the fed byte sequence (job counts, thread
/// interleavings and wall clocks can never influence it).
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void update_byte(std::uint8_t b) {
    state_ ^= b;
    state_ *= kPrime;
  }
  void update(std::span<const std::byte> data) {
    for (std::byte b : data) update_byte(static_cast<std::uint8_t>(b));
  }
  void update(std::string_view s) {
    for (char c : s) update_byte(static_cast<std::uint8_t>(c));
  }
  /// Length-prefixed string: distinguishes ("ab","c") from ("a","bc").
  void update_sized(std::string_view s) {
    update_u64(s.size());
    update(s);
  }
  void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void update_bool(bool b) { update_byte(b ? 1 : 0); }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot FNV-1a over a buffer, the checksum of the retired formats (graph
/// store v2, frozen frame v1, cache entries v1). No format uses it; it
/// remains the simulated JDK's digest in the classpath key (see
/// pipeline::jdk_digest) and lets tests forge files in the retired formats.
/// Hash buffers with digest_bytes().
inline std::uint64_t fnv1a(std::span<const std::byte> data) {
  Fnv1a h;
  h.update(data);
  return h.digest();
}

/// Fixed-width lowercase hex rendering, the cache's file-name alphabet.
inline std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace tabby::util
