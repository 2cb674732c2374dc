#include "pipeline/pipeline.hpp"

#include <filesystem>
#include <utility>

#include "corpus/jdk.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"

namespace tabby::pipeline {

namespace {

/// Renders the unit label for a partially-salvaged archive: which classes
/// survived out of how many the header declared.
std::string salvage_unit(const std::string& path, const jar::DecodeDegradation& degradation) {
  return path + " [kept " + std::to_string(degradation.classes_kept) + "/" +
         std::to_string(degradation.classes_kept + degradation.classes_dropped) + " classes]";
}

}  // namespace

std::uint64_t jdk_digest() {
  // The simulated JDK's digest stays FNV-1a: the benchmark's traced pass
  // (perfbench/) recomputes classpath keys with util::fnv1a over this
  // archive, and its resident opens must hit the snapshots it publishes.
  static const std::uint64_t digest = util::fnv1a(jar::write_archive(corpus::jdk_base_archive()));
  return digest;
}

ClasspathKey classpath_key(const std::vector<std::string>& jar_paths, bool with_jdk,
                           std::uint64_t options_fp) {
  obs::Span span("cache.digest");
  span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));
  ClasspathKey out;
  std::vector<std::uint64_t> digests;
  digests.reserve(jar_paths.size() + 1);
  if (with_jdk) digests.push_back(jdk_digest());
  for (const std::string& path : jar_paths) {
    auto digest = cache::AnalysisCache::digest_file(path);
    if (!digest.ok()) {
      out.unreadable.emplace_back(path, digest.error());
      continue;
    }
    out.digested.push_back(path);
    digests.push_back(digest.value());
  }
  out.key = cache::AnalysisCache::snapshot_key(options_fp, digests);
  return out;
}

std::string DegradedUnit::to_string() const {
  std::string out = "degraded: [" + stage + "] " + unit + ": " + error;
  if (bytes_skipped > 0) out += " (" + std::to_string(bytes_skipped) + " byte(s) skipped)";
  return out;
}

std::string DegradationReport::to_string() const {
  std::string out;
  for (const DegradedUnit& u : units) {
    out += u.to_string();
    out += '\n';
  }
  if (deadline_hit) out += "degraded: deadline exceeded; remaining work was skipped\n";
  if (partial_sinks > 0) {
    out += "degraded: " + std::to_string(partial_sinks) + " sink search(es) cut short\n";
  }
  if (frontier_pruned > 0) {
    out += "degraded: memory budget pressure; " + std::to_string(frontier_pruned) +
           " frontier branch(es) pruned\n";
  }
  if (unconfirmed_chains > 0) {
    out += "degraded: " + std::to_string(unconfirmed_chains) +
           " chain(s) left UNCONFIRMED by runtime re-validation\n";
  }
  return out;
}

std::unique_ptr<util::ThreadPool> make_pool(int jobs) {
  unsigned n = jobs > 0 ? static_cast<unsigned>(jobs) : util::ThreadPool::default_jobs();
  if (n <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(n);
}

util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor, FailurePolicy policy,
                                        DegradationReport* degradation,
                                        const util::Deadline& deadline) {
  TABBY_SPAN("pipeline.load_program");
  std::vector<jar::Archive> classpath;
  if (with_jdk) classpath.push_back(corpus::jdk_base_archive());
  std::vector<std::filesystem::path> files(paths.begin(), paths.end());

  if (policy == FailurePolicy::kStrict) {
    if (deadline.expired()) return util::Error{"deadline exceeded before classpath load"};
    std::vector<util::Result<jar::Archive>> archives = jar::read_archive_files(files, executor);
    for (std::size_t i = 0; i < archives.size(); ++i) {
      if (!archives[i].ok()) {
        return util::Error{paths[i] + ": " + archives[i].error().message,
                           archives[i].error().location};
      }
      classpath.push_back(std::move(archives[i].value()));
    }
    return jar::link(classpath);
  }

  DegradationReport local;
  DegradationReport& report = degradation != nullptr ? *degradation : local;
  std::vector<jar::SalvagedFile> salvaged = jar::read_archive_files_salvage(files, executor,
                                                                           deadline);
  std::size_t survivors = 0;
  std::optional<util::Error> first_loss;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < salvaged.size(); ++i) {
    jar::SalvagedFile& file = salvaged[i];
    if (file.read_error.has_value()) {
      report.add(paths[i], file.deadline_skipped ? "deadline" : "fs-read",
                 file.read_error->message);
      if (file.deadline_skipped) {
        // Deadline skips are degradation, never "garbage input": they must
        // not trip the nothing-survived fatal below.
        report.deadline_hit = true;
      } else {
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.read_error->message};
        }
      }
      continue;
    }
    if (file.degradation.error.has_value()) {
      if (file.archive.classes.empty()) {
        // Nothing salvageable: header or string-pool corruption.
        report.add(paths[i], "archive-decode", file.degradation.error->message,
                   file.degradation.bytes_skipped);
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.degradation.error->message};
        }
        continue;
      }
      report.add(salvage_unit(paths[i], file.degradation), "class-decode",
                 file.degradation.error->message, file.degradation.bytes_skipped);
      ++quarantined;
    }
    ++survivors;
    classpath.push_back(std::move(file.archive));
  }
  if (quarantined > 0) obs::counter_add("pipeline.units_quarantined", quarantined);
  if (!paths.empty() && survivors == 0 && first_loss.has_value()) {
    // Quarantine never silently answers "no chains" for a classpath that is
    // entirely garbage — when nothing survives, the run fails like strict.
    return *first_loss;
  }
  return jar::link(classpath);
}

}  // namespace tabby::pipeline
