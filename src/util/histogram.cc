#include "src/util/histogram.h"

#include <algorithm>

namespace clsm {

const double Histogram::kBucketLimit[kNumBuckets] = {
    1,       2,       3,       4,       5,       6,       7,       8,       9,       10,
    12,      14,      16,      18,      20,      25,      30,      35,      40,      45,
    50,      60,      70,      80,      90,      100,     120,     140,     160,     180,
    200,     250,     300,     350,     400,     450,     500,     600,     700,     800,
    900,     1000,    1200,    1400,    1600,    1800,    2000,    2500,    3000,    3500,
    4000,    4500,    5000,    6000,    7000,    8000,    9000,    10000,   12000,   14000,
    16000,   18000,   20000,   25000,   30000,   35000,   40000,   45000,   50000,   60000,
    70000,   80000,   90000,   100000,  120000,  140000,  160000,  180000,  200000,  250000,
    300000,  350000,  400000,  450000,  500000,  600000,  700000,  800000,  900000,  1000000,
    1200000, 1400000, 1600000, 1800000, 2000000, 2500000, 3000000, 3500000, 4000000, 4500000,
    5000000, 6000000, 7000000, 8000000, 9000000, 1e7,     1.2e7,   1.4e7,   1.6e7,   1.8e7,
    2e7,     2.5e7,   3e7,     3.5e7,   4e7,     4.5e7,   5e7,     6e7,     7e7,     8e7,
    9e7,     1e8,     1.2e8,   1.4e8,   1.6e8,   1.8e8,   2e8,     2.5e8,   3e8,     3.5e8,
    4e8,     4.5e8,   5e8,     6e8,     7e8,     8e8,     9e8,     1e9,     1.2e9,   1.4e9,
    1.6e9,   1.8e9,   2e9,     2.5e9,   3e9,     3.5e9,   4e9,     4.5e9,   5e9,     6e9,
    7e9,     8e9,     9e9,     1e10};

void Histogram::Clear() {
  min_ = kBucketLimit[kNumBuckets - 1];
  max_ = 0;
  num_ = 0;
  sum_ = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    buckets_[i] = 0;
  }
}

void Histogram::Add(double value) {
  // Linear search is fine: values are latencies, small indices dominate.
  int b = 0;
  while (b < kNumBuckets - 1 && kBucketLimit[b] <= value) {
    b++;
  }
  buckets_[b] += 1.0;
  if (min_ > value) {
    min_ = value;
  }
  if (max_ < value) {
    max_ = value;
  }
  num_++;
  sum_ += value;
}

int Histogram::BucketIndex(double value) {
  // First bucket whose limit exceeds value; the last bucket absorbs
  // everything beyond the table.
  const double* end = kBucketLimit + kNumBuckets - 1;
  return static_cast<int>(std::upper_bound(kBucketLimit, end, value) - kBucketLimit);
}

void Histogram::MergeBucketCounts(const uint64_t counts[kNumBuckets], uint64_t num, double sum,
                                  double min, double max) {
  if (num == 0) {
    return;
  }
  if (min < min_) {
    min_ = min;
  }
  if (max > max_) {
    max_ = max;
  }
  num_ += static_cast<double>(num);
  sum_ += sum;
  for (int b = 0; b < kNumBuckets; b++) {
    buckets_[b] += static_cast<double>(counts[b]);
  }
}

void Histogram::Merge(const Histogram& other) {
  if (other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  num_ += other.num_;
  sum_ += other.sum_;
  for (int b = 0; b < kNumBuckets; b++) {
    buckets_[b] += other.buckets_[b];
  }
}

double Histogram::Median() const { return Percentile(50.0); }

double Histogram::Percentile(double p) const {
  double threshold = num_ * (p / 100.0);
  double sum = 0;
  for (int b = 0; b < kNumBuckets; b++) {
    sum += buckets_[b];
    if (sum >= threshold) {
      // Interpolate within bucket b.
      double left_point = (b == 0) ? 0 : kBucketLimit[b - 1];
      double right_point = kBucketLimit[b];
      double left_sum = sum - buckets_[b];
      double right_sum = sum;
      double pos = 0;
      double right_left_diff = right_sum - left_sum;
      if (right_left_diff != 0) {
        pos = (threshold - left_sum) / right_left_diff;
      }
      double r = left_point + (right_point - left_point) * pos;
      if (r < min_) {
        r = min_;
      }
      if (r > max_) {
        r = max_;
      }
      return r;
    }
  }
  return max_;
}

double Histogram::Average() const {
  if (num_ == 0.0) {
    return 0;
  }
  return sum_ / num_;
}

}  // namespace clsm
