// Pure helpers shared by every phase: the percentile reporter and the
// open-loop send schedule (unit-tested in tests/report_test.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank index (1-based) of the `permille`/1000 quantile of n samples.
[[nodiscard]] inline std::size_t quantile_rank(std::size_t n, int permille) {
  const std::size_t r = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples strictly beyond the `permille` quantile's rank.
[[nodiscard]] inline std::size_t beyond(std::size_t n, int permille) {
  return n == 0 ? 0 : n - quantile_rank(n, permille);
}

/// The `permille` quantile of `v` (nearest rank; NaN when empty).
[[nodiscard]] inline double quantile(std::vector<double> v, int permille) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[quantile_rank(v.size(), permille) - 1];
}

[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 500); }

/// A latency distribution as reported: the median, and the highest of the
/// standard percentiles that still has at least `kMinBeyond` samples beyond
/// it, with the sample count. A tail read from fewer samples is noise.
struct Summary {
  static constexpr std::size_t kMinBeyond = 10;
  std::size_t n = 0;
  double p50 = std::nan("");
  int tail_permille = 0;  // 0 = too few samples for any tail
  double tail = std::nan("");
};

[[nodiscard]] inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v[quantile_rank(s.n, 500) - 1];
  for (const int pm : {999, 990, 950, 900, 750}) {
    if (beyond(s.n, pm) >= Summary::kMinBeyond) {
      s.tail_permille = pm;
      s.tail = v[quantile_rank(s.n, pm) - 1];
      break;
    }
  }
  return s;
}

/// The `permille` quantile only when it has kMinBeyond samples beyond it,
/// NaN otherwise — for metrics whose name fixes the percentile.
[[nodiscard]] inline double fixed_tail(const std::vector<double>& v, int permille) {
  return beyond(v.size(), permille) >= Summary::kMinBeyond ? quantile(v, permille)
                                                            : std::nan("");
}

/// Open-loop schedule: request i is due at t0 + i / rate, whatever happened
/// to earlier requests. Latency is measured from the due time, so a stall
/// also charges the requests it delayed.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;
  OpenLoopSchedule(Clock::time_point t0, double rate_per_s) : t0_(t0), rate_(rate_per_s) {}

  [[nodiscard]] Clock::time_point due(std::size_t i) const {
    const auto ns = static_cast<std::int64_t>(std::llround(static_cast<double>(i) * 1e9 / rate_));
    return t0_ + std::chrono::nanoseconds(ns);
  }
  [[nodiscard]] double rate() const { return rate_; }

 private:
  Clock::time_point t0_;
  double rate_;
};

[[nodiscard]] inline double ms_between(std::chrono::steady_clock::time_point a,
                                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One offered-rate step of the warm ladder, as the pass rule sees it.
struct StepVerdictInput {
  std::size_t attempted = 0;
  std::size_t failed = 0;       // refused, shed, transport error or error result
  double tail_ms = 0;           // fixed p99 (NaN when too few samples)
  double end_lag_ms = 0;        // median lateness of the step's last tenth of sends
};

/// A step passes when nothing failed, the p99 is measurable and under the
/// limit, and the backlog did not grow: the step's last sends went out
/// within `lag_limit_ms` of their due times.
[[nodiscard]] inline bool step_passes(const StepVerdictInput& s, double limit_ms,
                                      double lag_limit_ms) {
  return s.attempted > 0 && s.failed == 0 && !std::isnan(s.tail_ms) && s.tail_ms < limit_ms &&
         s.end_lag_ms <= lag_limit_ms;
}

}  // namespace perfbench
