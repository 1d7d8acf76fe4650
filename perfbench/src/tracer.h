// In-memory span recorder for the benchmark's traced repetition.
//
// Spans are recorded only around calls the benchmark itself makes into
// the library's public functions (router, service, cluster, explorer,
// scenario and checker entry points); nothing inside the library is
// instrumented. A disabled Tracer makes every Scope a no-op, so the
// untraced repetitions run the same driver code with one branch per call.
//
// Self time of a span is its duration minus the durations of its direct
// children. Spans are kept in memory and written once, at the end, as
// Chrome trace-event JSON (Perfetto and chrome://tracing open it).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /// Index of the enclosing span, -1 at top level.
    std::int32_t parent = -1;
    /// Request the span serves (router op index, plan index); -1 = none.
    std::int64_t request = -1;
    /// Lane the call targets (shard index, stack index); -1 = none.
    std::int32_t lane = -1;
    /// Zero-duration marker (e.g. a put resolved by this poll).
    bool instant = false;
  };

  /// Ends its span on destruction; inert when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t request,
          std::int32_t lane)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, request, lane);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  Scope span(const char* name, std::int64_t request = -1,
             std::int32_t lane = -1) {
    return Scope(*this, name, request, lane);
  }

  /// Marker inside the innermost open span (no-op when disabled).
  void instant(const char* name, std::int64_t request) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.startNs = s.endNs = nowNs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.instant = true;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (seconds) per span name.
  std::map<std::string, double> selfSecondsByName() const {
    std::map<std::string, double> out;
    const std::vector<std::int64_t> self = selfNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!spans_[i].instant) out[spans_[i].name] += 1e-9 * self[i];
    }
    return out;
  }

  /// Self time (seconds) per (span name, lane).
  std::map<std::pair<std::string, std::int32_t>, double> selfSecondsByLane()
      const {
    std::map<std::pair<std::string, std::int32_t>, double> out;
    const std::vector<std::int64_t> self = selfNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!spans_[i].instant) {
        out[{spans_[i].name, spans_[i].lane}] += 1e-9 * self[i];
      }
    }
    return out;
  }

  /// Inclusive time (seconds) per span name.
  std::map<std::string, double> totalSecondsByName() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += 1e-9 * static_cast<double>(s.endNs - s.startNs);
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON. Returns false when the
  /// file cannot be written.
  bool writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"%s\","
                   "\"ts\":%.3f,",
                   i == 0 ? "" : ",\n", s.name, layerLength(s.name), s.name,
                   s.instant ? "i" : "X", 1e-3 * static_cast<double>(s.startNs));
      if (s.instant) {
        std::fputs("\"s\":\"t\",", f);
      } else {
        std::fprintf(f, "\"dur\":%.3f,",
                     1e-3 * static_cast<double>(s.endNs - s.startNs));
      }
      std::fprintf(f,
                   "\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,\"parent\":%d,"
                   "\"request\":%lld,\"lane\":%d}}",
                   i, s.parent, static_cast<long long>(s.request), s.lane);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::int32_t open(const char* name, std::int64_t request, std::int32_t lane) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.lane = lane;
    spans_.push_back(s);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    spans_.back().startNs = nowNs();
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    open_.pop_back();
  }

  std::vector<std::int64_t> selfNs() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].endNs - spans_[i].startNs;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
      }
    }
    return self;
  }

  /// Length of the layer prefix of a span name ("router" of "router.put").
  static int layerLength(const char* name) {
    int n = 0;
    while (name[n] != '\0' && name[n] != '.') ++n;
    return n;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
