#include "src/obs/metrics.h"

#include <functional>
#include <thread>

namespace clsm {

const char* OpMetricName(OpMetric m) {
  switch (m) {
    case OpMetric::kPut:
      return "put";
    case OpMetric::kGet:
      return "get";
    case OpMetric::kDelete:
      return "delete";
    case OpMetric::kRmw:
      return "rmw";
    case OpMetric::kIterNext:
      return "iter_next";
    case OpMetric::kWalAppend:
      return "wal_append";
    case OpMetric::kMemInsert:
      return "mem_insert";
    case OpMetric::kRollWait:
      return "roll_wait";
    case OpMetric::kFlush:
      return "flush";
    case OpMetric::kCompaction:
      return "compaction";
  }
  return "unknown";
}

#if defined(CLSM_HAVE_CNTVCT)
double LatencyClock::NanosPerTick() {
  // The generic timer's frequency is architecturally discoverable — no
  // calibration spin needed.
  static const double scale = [] {
    uint64_t freq_hz;
    asm volatile("mrs %0, cntfrq_el0" : "=r"(freq_hz));
    return freq_hz != 0 ? 1e9 / static_cast<double>(freq_hz) : 1.0;
  }();
  return scale;
}
#elif defined(CLSM_HAVE_RDTSC)
double LatencyClock::NanosPerTick() {
  // Calibrated once per process against steady_clock over a ~200us spin
  // (sub-0.1% error; the TSC is invariant on x86-64). Thread-safe magic
  // static; the winner pays the spin, everyone else a guard-acquire load.
  static const double scale = [] {
    const uint64_t t0 = __rdtsc();
    const auto c0 = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point c1;
    do {
      c1 = std::chrono::steady_clock::now();
    } while (c1 - c0 < std::chrono::microseconds(200));
    const uint64_t t1 = __rdtsc();
    const double nanos =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0).count());
    return t1 > t0 ? nanos / static_cast<double>(t1 - t0) : 1.0;
  }();
  return scale;
}
#endif

size_t ThreadShardHash() {
  thread_local const size_t hash = std::hash<std::thread::id>()(std::this_thread::get_id());
  return hash;
}

void LatencyCell::MergeInto(Histogram* out) const {
  const uint64_t num = count.load(std::memory_order_relaxed);
  if (num == 0) {
    return;
  }
  uint64_t counts[Histogram::kNumBuckets];
  int lo = -1, hi = -1;
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    counts[b] = buckets[b].load(std::memory_order_relaxed);
    if (counts[b] != 0) {
      if (lo < 0) {
        lo = b;
      }
      hi = b;
    }
  }
  if (lo < 0) {
    return;  // counts raced to zero; nothing to merge
  }
  const double min = lo > 0 ? Histogram::BucketLimit(lo - 1) : 0.0;
  const double max = Histogram::BucketLimit(hi);
  const double sum = static_cast<double>(sum_nanos.load(std::memory_order_relaxed));
  out->MergeBucketCounts(counts, num, sum, min, max);
}

void LatencyCell::Reset() {
  count.store(0, std::memory_order_relaxed);
  sum_nanos.store(0, std::memory_order_relaxed);
  for (auto& b : buckets) {
    b.store(0, std::memory_order_relaxed);
  }
}

uint64_t StatsRegistry::Count(OpMetric op) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.cells[static_cast<int>(op)].count.load(std::memory_order_relaxed);
  }
  return n;
}

void StatsRegistry::AggregateInto(OpMetric op, Histogram* out) const {
  for (const Shard& s : shards_) {
    s.cells[static_cast<int>(op)].MergeInto(out);
  }
}

void StatsRegistry::Reset() {
  for (Shard& s : shards_) {
    for (LatencyCell& c : s.cells) {
      c.Reset();
    }
  }
}

}  // namespace clsm
