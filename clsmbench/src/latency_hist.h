// Fixed-memory latency histogram for the benchmark's per-op-type
// percentiles. Log-linear buckets (64 sub-buckets per power of two, so a
// bucket is at most 1/64 ≈ 1.6% wide) over nanoseconds: recording is one
// increment, memory never grows with the run length, and percentiles
// interpolate linearly inside the bucket they fall in.
#ifndef CLSMBENCH_LATENCY_HIST_H_
#define CLSMBENCH_LATENCY_HIST_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace clsmbench {

class LatencyHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kNumBuckets = static_cast<int>(kSub + (64 - kSubBits) * kSub);

  void Add(uint64_t nanos) {
    buckets_[Index(nanos)]++;
    count_++;
  }

  void Merge(const LatencyHist& other) {
    for (int i = 0; i < kNumBuckets; i++) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  // Value (nanoseconds) at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0;
    for (int i = 0; i < kNumBuckets; i++) {
      if (buckets_[i] == 0) continue;
      const double next = seen + static_cast<double>(buckets_[i]);
      if (next >= rank) {
        const double frac = (rank - seen) / static_cast<double>(buckets_[i]);
        return static_cast<double>(Lower(i)) + frac * static_cast<double>(Width(i));
      }
      seen = next;
    }
    return static_cast<double>(Lower(kNumBuckets - 1));
  }

  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<int>(kSub + static_cast<uint64_t>(e - kSubBits) * kSub + sub);
  }
  static uint64_t Lower(int i) {
    if (i < static_cast<int>(kSub)) return static_cast<uint64_t>(i);
    const int e = (i - static_cast<int>(kSub)) / static_cast<int>(kSub) + kSubBits;
    const uint64_t sub = static_cast<uint64_t>(i) & (kSub - 1);
    return (kSub + sub) << (e - kSubBits);
  }
  static uint64_t Width(int i) {
    if (i < static_cast<int>(kSub)) return 1;
    const int e = (i - static_cast<int>(kSub)) / static_cast<int>(kSub) + kSubBits;
    return uint64_t{1} << (e - kSubBits);
  }

 private:
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kNumBuckets, 0);  // 30 KiB
  uint64_t count_ = 0;
};

// Median over the non-empty histograms of quantile q within each; 0 when
// all are empty.
inline double WindowedQuantile(const std::vector<LatencyHist>& windows, double q) {
  std::vector<double> v;
  for (const LatencyHist& h : windows) {
    if (h.count() > 0) v.push_back(h.Quantile(q));
  }
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace clsmbench

#endif  // CLSMBENCH_LATENCY_HIST_H_
