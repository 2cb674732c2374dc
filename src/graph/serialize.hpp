// Binary persistence for GraphDb snapshots — the stand-in for Neo4j's store
// files. Lets a CPG built once be re-queried across runs (the paper's
// "researchers can re-use the graph database query syntax").
#pragma once

#include <filesystem>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace tabby::graph {

// Store layout (little-endian, version 3):
//   magic    u32  = 0x54474442 ("TGDB")
//   version  u16  = 3
//   length   u64  payload size in bytes
//   payload       node and edge records (see serialize.cpp)
//   [stats]       optional cardinality-stats block (see below)
//   checksum u64  util::digest_bytes over every byte before it (header +
//                 payload + optional stats block)
// The optional stats block sits between payload and checksum:
//   magic    u32  = 0x54535453 ("TSTS")
//   length   u64  stats payload size in bytes
//   payload       CardinalityStats (see docs/GRAPH.md "Cardinality stats")
// deserialize() validates magic, version, declared length and checksum
// before touching the payload, so truncated, corrupted or pre-versioning
// stores fail closed with a diagnostic instead of undefined behavior.
// Version 2 had the same layout with an FNV-1a64 checksum; version 1 had no
// payload length or checksum. Both are rejected by version, before any
// checksum is computed, with a hint to regenerate the store.
// Stats-less stores (anything serialized before the planner existed, or
// with with_stats=false) still load; a present block must parse exactly and
// agree with the decoded graph or the whole store is rejected.
inline constexpr std::uint32_t kGraphStoreMagic = 0x54474442;
inline constexpr std::uint16_t kGraphStoreVersion = 3;
inline constexpr std::uint32_t kGraphStoreStatsMagic = 0x54535453;

std::vector<std::byte> serialize(const GraphDb& db, bool with_stats = true);
util::Result<GraphDb> deserialize(std::span<const std::byte> data);

// Cardinality-stats payload codec, shared between the store's tail block
// and the frozen frame's stats section (one wire format, two carriers).
void encode_stats(util::ByteWriter& out, const CardinalityStats& stats);
util::Result<CardinalityStats> decode_stats(util::ByteReader& in);

// Single-value wire encoding (tag byte + payload), shared with the frozen
// snapshot's Mixed property columns so one codec covers every Value
// alternative on disk. Tags: 0 null, 1 bool, 2 int (svarint), 3 double
// (uvarint of the bit pattern), 4 string, 5 int list, 6 string list.
void write_value(util::ByteWriter& out, const Value& v);
util::Result<Value> read_value(util::ByteReader& in);

util::Status save(const GraphDb& db, const std::filesystem::path& path);
util::Result<GraphDb> load(const std::filesystem::path& path);

}  // namespace tabby::graph
