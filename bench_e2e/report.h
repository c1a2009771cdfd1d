// Metric bookkeeping of bench_e2e: named values with units, output checks,
// operation counts, and the two printers (`name value unit` lines and the
// --json document that run.py and compare.py read).

#ifndef ACTIVEITER_BENCH_E2E_REPORT_H_
#define ACTIVEITER_BENCH_E2E_REPORT_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace activeiter {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank quantile: the smallest sample with at least q·n samples at
/// or below it, so every reported value is one that was measured. With 128
/// samples q = 0.9 leaves twelve samples above the reported one. 0 for no
/// samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

/// Call latencies cut into windows of kWindowCalls consecutive calls. Each
/// window keeps its p50, p90 and p99; the reported value is the median over
/// windows, so host noise that hits a few windows is outvoted rather than
/// dragging the whole run's tail. A trailing partial window is dropped.
class WindowedLatency {
 public:
  static constexpr size_t kWindowCalls = 10000;

  void Record(Clock::duration d) {
    window_.push_back(Micros(d));
    ++count_;
    if (window_.size() == kWindowCalls) {
      p50_.push_back(Quantile(window_, 0.5));
      p90_.push_back(Quantile(window_, 0.9));
      p99_.push_back(Quantile(window_, 0.99));
      window_.clear();
    }
  }

  void Merge(const WindowedLatency& other) {
    p50_.insert(p50_.end(), other.p50_.begin(), other.p50_.end());
    p90_.insert(p90_.end(), other.p90_.begin(), other.p90_.end());
    p99_.insert(p99_.end(), other.p99_.begin(), other.p99_.end());
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }
  size_t windows() const { return p50_.size(); }
  double P50() const { return Quantile(p50_, 0.5); }
  /// The tenth percentile over windows of each window's median. Other
  /// tenants of a shared host slow a varying share of the windows: in ten
  /// runs on a 4-vCPU virtual machine the median window's p50 spread by
  /// 21–31% between runs of the settled replays, this one by 5–7%.
  double QuietP50() const { return Quantile(p50_, 0.1); }
  double P90() const { return Quantile(p90_, 0.5); }
  double P99() const { return Quantile(p99_, 0.5); }

 private:
  std::vector<double> window_;
  std::vector<double> p50_;
  std::vector<double> p90_;
  std::vector<double> p99_;
  uint64_t count_ = 0;
};

inline double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// a / b, or 0 when b is 0 (idle layers report 0, never NaN).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Runs `fn` inside a benchmark-side trace span (a no-op when `tracer` is
/// null), adds its wall time to `*total_ms` and returns its result.
template <typename F>
auto Timed(Tracer* tracer, const char* span, double* total_ms, F&& fn) {
  TraceSpan trace(tracer, span);
  const Clock::time_point begin = Clock::now();
  auto result = fn();
  *total_ms += Millis(Clock::now() - begin);
  return result;
}

/// Hands freed heap back to the OS between rounds, so every round starts
/// from the footprint of a fresh process and peak_rss_mb measures one
/// round's live system rather than what earlier rounds left in the
/// allocator's arenas.
inline void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Input seed of round `round` of a run seeded `seed`: every round draws a
/// fresh pair, carve and query stream, so one run averages over several
/// inputs while the same `seed` always reproduces the same rounds.
inline uint64_t RoundSeed(uint64_t seed, size_t round) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + round;
  return SplitMix64(&state);
}

/// The metrics, checks and operation counts of one workload run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  /// Records an output check; a failed one is printed to stderr at once
  /// and makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << "CHECK FAILED: " << what << "\n";
    failed_checks_.push_back(what);
  }

  /// Operations the load issued (queries, submitted batches, folds) and
  /// those that did not succeed.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failed_checks_.empty(); }

  void Print(std::ostream& out) const {
    char line[256];
    for (const auto& [name, metric] : metrics_) {
      std::snprintf(line, sizeof(line), "%s %.17g %s\n", name.c_str(),
                    metric.first, metric.second.c_str());
      out << line;
    }
    out << "ops.attempted " << attempted_ << " count\n"
        << "ops.failed " << failed_ << " count\n";
  }

  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
                 "\"attempted\": %llu, \"failed\": %llu, \"failed_checks\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < failed_checks_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                   JsonEscape(failed_checks_[i]).c_str());
    }
    std::fprintf(f, "], \"metrics\": {");
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   first ? "" : ",", name.c_str(), metric.first,
                   metric.second.c_str());
      first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::string JsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failed_checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace e2e
}  // namespace activeiter

#endif  // ACTIVEITER_BENCH_E2E_REPORT_H_
