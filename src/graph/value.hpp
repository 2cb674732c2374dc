// Property values for the embedded graph store. Mirrors the Neo4j property
// model far enough for Tabby's schema: scalars plus homogeneous lists (the
// Polluted_Position array lives on CALL edges as an int list).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tabby::graph {

using Value = std::variant<std::monostate, bool, std::int64_t, double, std::string,
                           std::vector<std::int64_t>, std::vector<std::string>>;

/// Ordered key -> Value map backed by a sorted flat vector. Covers the
/// std::map subset the graph layer uses while making one allocation per map
/// instead of one per entry: property maps are small (a dozen keys at most)
/// but exist on every node and edge, so allocation count — not lookup
/// complexity — dominates bulk loads like graph::deserialize. Iteration
/// stays in key order, keeping dumps and the serialized form byte-for-byte
/// deterministic exactly like the std::map it replaced.
class PropertyMap {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  PropertyMap() = default;
  PropertyMap(std::initializer_list<value_type> init) : items_(init) {
    std::stable_sort(items_.begin(), items_.end(),
                     [](const value_type& a, const value_type& b) { return a.first < b.first; });
    // First occurrence wins on duplicate keys, as with std::map insertion.
    items_.erase(
        std::unique(items_.begin(), items_.end(),
                    [](const value_type& a, const value_type& b) { return a.first == b.first; }),
        items_.end());
  }

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  iterator find(std::string_view key) {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(std::string_view key) const {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  Value& operator[](const std::string& key) {
    auto it = lower_bound(key);
    if (it == items_.end() || it->first != key) it = items_.insert(it, {key, Value{}});
    return it->second;
  }

  /// Append-fast insert for keys arriving in ascending order (the serialized
  /// form); out-of-order or duplicate keys degrade to a sorted insert that
  /// keeps the existing entry, matching std::map::emplace_hint.
  iterator emplace_hint(const_iterator, std::string key, Value value) {
    if (items_.empty() || items_.back().first < key) {
      items_.emplace_back(std::move(key), std::move(value));
      return items_.end() - 1;
    }
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return it;
    return items_.insert(it, {std::move(key), std::move(value)});
  }

  bool operator==(const PropertyMap&) const = default;

 private:
  iterator lower_bound(std::string_view key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& a, std::string_view k) { return std::string_view(a.first) < k; });
  }
  const_iterator lower_bound(std::string_view key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& a, std::string_view k) { return std::string_view(a.first) < k; });
  }

  std::vector<value_type> items_;
};

inline bool is_null(const Value& v) { return std::holds_alternative<std::monostate>(v); }

std::string to_string(const Value& v);

/// Loose scalar equality used by find_nodes lookups and Cypher `=`: exact
/// variant match except bool/int which compare numerically.
bool value_equals(const Value& a, const Value& b);

}  // namespace tabby::graph
