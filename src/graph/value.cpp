#include "graph/value.hpp"

#include "util/strings.hpp"

namespace tabby::graph {

std::string to_string(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) { return "null"; }
    std::string operator()(bool b) { return b ? "true" : "false"; }
    std::string operator()(std::int64_t i) { return std::to_string(i); }
    std::string operator()(double d) { return util::format_double(d, 6); }
    std::string operator()(const std::string& s) { return "\"" + s + "\""; }
    std::string operator()(const std::vector<std::int64_t>& xs) {
      std::string out = "[";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ",";
        out += std::to_string(xs[i]);
      }
      return out + "]";
    }
    std::string operator()(const std::vector<std::string>& xs) {
      std::string out = "[";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ",";
        out += "\"" + xs[i] + "\"";
      }
      return out + "]";
    }
  };
  return std::visit(Visitor{}, v);
}

bool value_equals(const Value& a, const Value& b) {
  if (a.index() == b.index()) return a == b;
  // bool vs int numeric comparison
  const bool* ab = std::get_if<bool>(&a);
  const bool* bb = std::get_if<bool>(&b);
  const std::int64_t* ai = std::get_if<std::int64_t>(&a);
  const std::int64_t* bi = std::get_if<std::int64_t>(&b);
  if (ab != nullptr && bi != nullptr) return static_cast<std::int64_t>(*ab) == *bi;
  if (ai != nullptr && bb != nullptr) return *ai == static_cast<std::int64_t>(*bb);
  return false;
}

}  // namespace tabby::graph
