// The benchmark's own span recorder. Spans are recorded from the benchmark
// around its calls into each layer (never inside the program): name, start,
// end, parent span and request id. A span opened with no enclosing span
// starts a new request; its descendants share the request id. Spans stay in
// memory and are written as one Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  long parent = -1;  // index into the recorder's spans, -1 for a request root
  std::uint64_t request = 0;
};

class Recorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// RAII span. It always measures its own duration (stop() returns it in
  /// seconds); it records only while the recorder is enabled.
  class Scope {
   public:
    Scope(Recorder& recorder, const char* name) : recorder_(recorder), start_(now_ns()) {
      if (!recorder_.enabled_) return;
      index_ = static_cast<long>(recorder_.spans_.size());
      SpanRecord span;
      span.name = name;
      span.start_ns = start_;
      span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
      span.request = span.parent < 0 ? ++recorder_.requests_
                                     : recorder_.spans_[span.parent].request;
      recorder_.spans_.push_back(std::move(span));
      recorder_.open_.push_back(index_);
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double stop() {
      if (end_ == 0) {
        end_ = now_ns();
        if (index_ >= 0) {
          recorder_.spans_[index_].end_ns = end_;
          recorder_.open_.pop_back();
        }
      }
      return static_cast<double>(end_ - start_) * 1e-9;
    }

   private:
    Recorder& recorder_;
    std::uint64_t start_;
    std::uint64_t end_ = 0;
    long index_ = -1;
  };

  /// Self time per layer over spans [from, spans().size()): each span's
  /// duration minus the part of it its child spans cover, summed by layer.
  /// A span's layer is its name up to the first '.'; "engine" spans belong
  /// to the pipeline layer.
  std::map<std::string, double> self_seconds(std::size_t from) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (s.parent >= static_cast<long>(from)) {
        child[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out[layer_of(s.name)] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9 - child[i];
    }
    return out;
  }

  static std::string layer_of(const std::string& name) {
    std::string layer = name.substr(0, name.find('.'));
    return layer == "engine" ? "pipeline" : layer;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span on one
  /// track, with the request id and parent span in "args".
  std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%ld,"
                    "\"request\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(), layer_of(s.name).c_str(),
                    static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                    static_cast<unsigned long long>(s.request));
      out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<long> open_;
  std::uint64_t requests_ = 0;
};

}  // namespace perfbench
