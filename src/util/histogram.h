// Latency histogram with logarithmic-ish fixed buckets, used by the
// benchmark harness to report the percentile series the paper plots
// (e.g. 90th-percentile latency in Figs 5b/6b).
#ifndef CLSM_UTIL_HISTOGRAM_H_
#define CLSM_UTIL_HISTOGRAM_H_

#include <cstdint>

namespace clsm {

class Histogram {
 public:
  // Bucket geometry is shared with the lock-free sharded histograms in
  // src/obs (they count into the same bucket domain and merge here for
  // percentile math).
  static constexpr int kNumBuckets = 154;

  Histogram() { Clear(); }

  void Clear();
  void Add(double value);
  void Merge(const Histogram& other);

  // Index of the bucket value falls into (binary search over the limits).
  static int BucketIndex(double value);
  // Upper bound of bucket b (its values lie in (BucketLimit(b-1), limit]).
  static double BucketLimit(int b) { return kBucketLimit[b]; }

  // Merge a raw per-bucket count array (same kBucketLimit domain) plus its
  // moments, as accumulated by an external sharded histogram. The
  // percentile series stays exact to bucket width.
  void MergeBucketCounts(const uint64_t counts[kNumBuckets], uint64_t num, double sum, double min,
                         double max);

  double Median() const;
  double Percentile(double p) const;
  double Average() const;
  double Min() const { return min_; }
  double Max() const { return max_; }
  double Num() const { return num_; }
  double Sum() const { return sum_; }
  // Raw per-bucket count (Prometheus exposition renders these as the
  // cumulative _bucket series; values are whole counts stored as double).
  double BucketCount(int b) const { return buckets_[b]; }

 private:
  static const double kBucketLimit[kNumBuckets];

  double min_;
  double max_;
  double num_;
  double sum_;

  double buckets_[kNumBuckets];
};

}  // namespace clsm

#endif  // CLSM_UTIL_HISTOGRAM_H_
