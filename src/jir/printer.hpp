// Renders a Program / ClassDecl in the textual JIR surface syntax. The
// output round-trips through jir::parse_program, which the test suite checks
// property-style over generated corpora.
#pragma once

#include <cstdint>
#include <string>

#include "jir/model.hpp"

namespace tabby::jir {

std::string to_text(const Method& method);
std::string to_text(const ClassDecl& cls);
std::string to_text(const Program& program);

/// Content fingerprint of a class: util::digest_bytes over its canonical
/// text. A pure function of the declaration, so the incremental cache can
/// attribute a changed archive to the individual classes that changed.
std::uint64_t stable_fingerprint(const ClassDecl& cls);

}  // namespace tabby::jir
