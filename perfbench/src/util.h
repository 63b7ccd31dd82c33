// Shared plumbing of the perfbench harness: timing, sample statistics, the
// metric sheet printed as the run's final JSON line, the span recorder of
// traced runs and the check log every output check reports into.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Mean of the faster half of `values` (the lower half, or the upper half
/// when `higher_is_faster`); 0 when empty. The machine is shared, and
/// other tenants' load only ever slows a stretch of a run down, so the
/// faster half is the part that repeats from run to run (README.md,
/// "Statistics").
inline double FasterHalfMean(std::vector<double> values,
                             bool higher_is_faster = false) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (higher_is_faster) std::reverse(values.begin(), values.end());
  const size_t half = (values.size() + 1) / 2;
  double sum = 0;
  for (size_t i = 0; i < half; ++i) sum += values[i];
  return sum / static_cast<double>(half);
}

/// Latency samples of one operation class, in nanoseconds.
class Samples {
 public:
  void Add(int64_t nanos) { values_.push_back(nanos); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  double FasterHalfMean() const {
    return perfbench::FasterHalfMean({values_.begin(), values_.end()});
  }
  /// Nearest-rank percentile (q in [0, 100]); 0 when empty.
  double Percentile(double q) {
    if (values_.empty()) return 0;
    std::sort(values_.begin(), values_.end());
    size_t rank = static_cast<size_t>(q / 100.0 * values_.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return static_cast<double>(values_[rank - 1]);
  }

 private:
  std::vector<int64_t> values_;
};

/// Samples kept per slice of a run. The machine's speed drifts over
/// seconds, so a run interleaves its phases in slices and reports a
/// latency percentile as the faster-half mean over slices of each slice's
/// percentile: slow stretches that hit fewer than half of the slices then
/// leave the figure where the other slices put it.
class SlicedSamples {
 public:
  void StartSlice() { slices_.emplace_back(); }
  void Add(int64_t nanos) { slices_.back().Add(nanos); }
  /// Pools slice k of `other` into slice k of this one.
  void Merge(const SlicedSamples& other) {
    if (slices_.size() < other.slices_.size()) {
      slices_.resize(other.slices_.size());
    }
    for (size_t k = 0; k < other.slices_.size(); ++k) {
      slices_[k].Append(other.slices_[k]);
    }
  }
  double FasterHalf(double q) {
    std::vector<double> per_slice;
    for (Samples& s : slices_) {
      if (s.count() > 0) per_slice.push_back(s.Percentile(q));
    }
    return FasterHalfMean(std::move(per_slice));
  }
  Samples Pooled() const {
    Samples all;
    for (const Samples& s : slices_) all.Append(s);
    return all;
  }

 private:
  std::vector<Samples> slices_;
};

/// Named metrics with units, printed in name order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const { return values_.at(name).first; }

  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, entry] : values_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", entry.first);
      out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entry.second + "\"}";
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One span at a layer boundary: recorded by the harness around a call
/// into a layer's public function (traced runs only).
struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int64_t parent;   ///< Index of the enclosing span, -1 at the root.
  uint64_t request;  ///< Spans of one operation share this id.
};

/// In-memory span recorder. Disabled recorders cost one branch per call,
/// and every end-to-end metric comes from a run with the recorder off.
/// Single-threaded: each load thread owns its recorder.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  int64_t Open(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNanos(), 0, open_, request});
    open_ = static_cast<int64_t>(spans_.size()) - 1;
    return open_;
  }
  void Close(int64_t index) {
    if (index < 0) return;
    spans_[index].end = NowNanos();
    open_ = spans_[index].parent;
  }

  /// Durations of every span called `name`.
  Samples Durations(const std::string& name) const {
    Samples out;
    for (const Span& s : spans_) {
      if (name == s.name) out.Add(s.end - s.start);
    }
    return out;
  }
  void Append(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  /// Writes "request name start end parent self_nanos" rows (self time =
  /// duration minus the part covered by direct children).
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::fprintf(f, "request\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.end - s.start - child[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  int64_t open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), index_(tracer->Open(name, request)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// Collects output-check failures; a run is correct when none fired.
class CheckLog {
 public:
  /// Records `error` when non-empty; returns whether the check passed.
  bool Expect(const std::string& error) {
    ++checks_;
    if (error.empty()) return true;
    if (errors_.size() < 20) errors_.push_back(error);
    ++failures_;
    return false;
  }
  bool ok() const { return failures_ == 0; }
  uint64_t checks() const { return checks_; }
  uint64_t failures() const { return failures_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
