// Support code of the application benchmark: wall clocks, order
// statistics, the benchmark's own span recorder and the result printer.
// Nothing here calls into the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of a sample; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// In-memory span recorder for the traced run: workload → solve → layer
/// call, each span with its parent and the solve id it belongs to.  Spans
/// are kept in memory and written once, as a Chrome trace_event file, when
/// the run ends.  A null recorder makes every Scope a no-op, so the
/// untraced run pays one pointer test per layer call.
class Spans {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t solve_id = 0;
    std::int64_t parent = -1;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
  };

  class Scope {
   public:
    Scope(Spans* s, const char* name, std::uint64_t solve_id = 0) : s_(s) {
      if (s_ != nullptr) idx_ = s_->open(name, solve_id);
    }
    ~Scope() {
      if (s_ != nullptr) s_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::size_t idx_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(
      const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name && s.t1_ns >= s.t0_ns)
        out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e6);
    return out;
  }

  /// Chrome trace_event JSON (complete events, µs timestamps).
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%lld,\"solve\":%llu}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.t0_ns - base) / 1e3,
                   static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.solve_id));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::size_t open(const char* name, std::uint64_t solve_id) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    // A solve's layer calls inherit its id.
    if (solve_id == 0 && parent >= 0)
      solve_id = spans_[static_cast<std::size_t>(parent)].solve_id;
    spans_.push_back(Span{name, solve_id, parent, now_ns(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    spans_[idx].t1_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Metrics of one run, printed by name with their units: one readable
/// line each, then the single-line JSON result the caller parses.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Row& r : rows_)
      std::printf("%-40s %.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      // JSON has no NaN/Inf; a non-finite reading is a benchmark bug and
      // is reported as an incorrect run rather than printed.
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.name.c_str(),
                  std::isfinite(r.value) ? r.value : 0.0, r.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  [[nodiscard]] bool all_finite() const {
    for (const Row& r : rows_)
      if (!std::isfinite(r.value)) return false;
    return true;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

}  // namespace perfbench
