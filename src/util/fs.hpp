// Whole-file IO shared by the archive reader and the analysis cache. Kept
// in util so the `fs.read` failpoint covers every byte the pipeline ingests
// from disk through one seam (see docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "util/failpoint.hpp"
#include "util/result.hpp"

namespace tabby::util {

/// Reads a whole file. Errors name the path; a fired `fs.read` failpoint
/// reports like an IO error mid-read.
inline Result<std::vector<std::byte>> read_file(const std::filesystem::path& path) {
  if (failpoint::poll("fs.read")) {
    return Error{"failpoint: injected read failure: " + path.string()};
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Error{"cannot open for read: " + path.string()};
  // A path that opens but is not a regular file (a directory, a pipe) has
  // no size: tellg reports -1, or on ext4 a directory's end is LLONG_MAX.
  std::streamsize size = in.tellg();
  std::error_code ec;
  if (size < 0 || !std::filesystem::is_regular_file(path, ec)) {
    return Error{"cannot read (not a regular file): " + path.string()};
  }
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Error{"read failed: " + path.string()};
  return bytes;
}

}  // namespace tabby::util
