// Fixed-size log-linear histogram of unsigned 32-bit samples (latencies in
// microseconds, typically).
//
// Values below 2^kSubBits land in exact buckets; above that, every power of
// two is split into 2^kSubBits linear sub-buckets, so a reported quantile is
// within 1/2^kSubBits (6.25%) of the true sample. The footprint is constant
// (kBuckets counters) however many samples arrive, so a long-running daemon
// keeps counting and its percentiles keep following the traffic — unlike a
// capped sample vector, which freezes once full. Not synchronized: callers
// that record from several threads hold their own lock.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace pp {

class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr std::uint32_t kSub = 1U << kSubBits;
  /// kSub exact buckets, then kSub sub-buckets per power of two above.
  static constexpr std::size_t kBuckets = kSub + (32 - kSubBits) * kSub;

  void record(std::uint32_t v) {
    ++buckets_[index(v)];
    ++count_;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint32_t max() const { return max_; }

  /// The sample at rank round(p * (count - 1)), reported as its bucket's
  /// lower bound (exact below kSub, within 6.25% above); 0 when empty.
  [[nodiscard]] std::uint32_t quantile(double p) const {
    if (count_ == 0) return 0;
    const auto rank =
        static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return lower_bound(i);
    }
    return max_;
  }

  [[nodiscard]] static std::size_t index(std::uint32_t v) {
    if (v < kSub) return v;
    const int msb = std::bit_width(v) - 1;  // >= kSubBits
    const int shift = msb - kSubBits;
    const std::uint32_t sub = (v >> shift) - kSub;  // 0 .. kSub-1
    return kSub + static_cast<std::size_t>(shift) * kSub + sub;
  }

  [[nodiscard]] static std::uint32_t lower_bound(std::size_t i) {
    if (i < kSub) return static_cast<std::uint32_t>(i);
    const std::size_t shift = (i - kSub) / kSub;
    const std::size_t sub = (i - kSub) % kSub;
    return static_cast<std::uint32_t>((kSub + sub) << shift);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint32_t max_ = 0;
};

}  // namespace pp
