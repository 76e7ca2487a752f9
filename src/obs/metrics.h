// Lock-free, per-thread-sharded latency metrics (the PR-2 observability
// substrate). Hot paths pay one relaxed counter add plus one relaxed
// histogram-bucket bump on a shard owned (statistically) by the calling
// thread; aggregation merges every shard into a util/histogram for the
// percentile series the paper's figures plot (p50/p95/p99/p999).
//
// Units: all recorded values are wall-clock NANOSECONDS; exporters divide
// by 1000 when presenting microseconds.
#ifndef CLSM_OBS_METRICS_H_
#define CLSM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define CLSM_HAVE_RDTSC 1
#elif defined(__aarch64__)
// The generic timer's virtual counter: constant-rate, monotonic across
// cores, readable from EL0 in a few cycles — the aarch64 analogue of the
// invariant TSC.
#define CLSM_HAVE_CNTVCT 1
#endif

#include "src/util/histogram.h"

namespace clsm {

// One latency series per public operation and per internal write-path
// phase. Keep OpMetricName() in sync.
enum class OpMetric : int {
  // public ops
  kPut = 0,
  kGet,
  kDelete,
  kRmw,
  kIterNext,
  // internal phases
  kWalAppend,   // serializing + enqueueing the log record
  kMemInsert,   // skip-list insertion into Cm
  kRollWait,    // put blocked on backpressure (Cm full / L0 stop)
  kFlush,       // C'm -> level-0 merge
  kCompaction,  // one background compaction job (any level)
};
constexpr int kNumOpMetrics = static_cast<int>(OpMetric::kCompaction) + 1;

// Stable machine-readable name ("put", "wal_append", ...).
const char* OpMetricName(OpMetric m);

inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Tick source for the hot-path latency probes. clock_gettime costs
// ~25-40ns per read even through the vDSO — two reads per Get is most of
// the instrumentation overhead budget (<5%) on a sub-microsecond memtable
// hit. On x86-64 the TSC is invariant/constant-rate on every CPU this
// targets, reads in ~8ns, and is converted to nanoseconds with a scale
// calibrated once against steady_clock. On aarch64 the generic timer's
// virtual counter (cntvct_el0) plays the same role, scaled by the
// architecturally reported frequency (cntfrq_el0). Every other target
// falls back to steady_clock behind the same interface — slower probes,
// identical semantics — so the build and the probe-overhead story hold on
// any architecture. Long-interval timing (flushes, compactions, stalls)
// stays on MonotonicNanos: the clock cost is noise there and wall-clock
// semantics are simpler.
class LatencyClock {
 public:
  static uint64_t Ticks() {
#if defined(CLSM_HAVE_RDTSC)
    return __rdtsc();
#elif defined(CLSM_HAVE_CNTVCT)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return MonotonicNanos();
#endif
  }

  static uint64_t ToNanos(uint64_t ticks) {
#if defined(CLSM_HAVE_RDTSC) || defined(CLSM_HAVE_CNTVCT)
    return static_cast<uint64_t>(static_cast<double>(ticks) * NanosPerTick());
#else
    return ticks;
#endif
  }

 private:
  static double NanosPerTick();  // calibrated / read once on first use
};

// Stable per-thread hash (of the thread id, computed once per thread)
// that the sharded accumulators — StatsRegistry and RpcServerStats —
// reduce modulo their shard count. Distinct threads may collide on a
// shard: the counters stay correct, only contention rises.
size_t ThreadShardHash();

// One latency series' cell on one shard: sample count, sum and the
// Histogram buckets, all relaxed atomics. No per-sample min/max: the
// extremes are recovered from the occupied bucket range when merging,
// exact to bucket width, keeping Record to counter adds plus one bucket
// bump. Shared by StatsRegistry and RpcServerStats.
struct LatencyCell {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum_nanos{0};
  std::atomic<uint64_t> buckets[Histogram::kNumBuckets] = {};

  void Record(uint64_t nanos) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
    buckets[Histogram::BucketIndex(static_cast<double>(nanos))].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Merge this cell into *out. Racy-by-design monitoring read, like the
  // DbStats counters.
  void MergeInto(Histogram* out) const;

  void Reset();
};

class StatsRegistry {
 public:
  static constexpr int kNumShards = 16;

  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // Record one sample of `nanos` for op. Wait-free: relaxed adds on the
  // calling thread's shard.
  void Record(OpMetric op, uint64_t nanos) {
    shards_[ThreadShardHash() % kNumShards].cells[static_cast<int>(op)].Record(nanos);
  }

  // Total samples recorded for op across all shards.
  uint64_t Count(OpMetric op) const;

  // Merge every shard's buckets for op into *out (values in nanoseconds).
  void AggregateInto(OpMetric op, Histogram* out) const;

  void Reset();

 private:
  struct alignas(64) Shard {
    LatencyCell cells[kNumOpMetrics];
  };

  Shard shards_[kNumShards];
};

// RAII latency probe: records the scope's duration into registry (no-op
// when registry is null, so call sites need no branching).
class ScopedLatency {
 public:
  ScopedLatency(StatsRegistry* registry, OpMetric op)
      : registry_(registry), op_(op), start_(registry != nullptr ? LatencyClock::Ticks() : 0) {}
  ~ScopedLatency() {
    if (registry_ != nullptr) {
      registry_->Record(op_, LatencyClock::ToNanos(LatencyClock::Ticks() - start_));
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  StatsRegistry* registry_;
  OpMetric op_;
  uint64_t start_;
};

}  // namespace clsm

#endif  // CLSM_OBS_METRICS_H_
