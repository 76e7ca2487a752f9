// Serving-tier observability substrate: one lock-free accumulator for the
// KV front end's per-request metrics (the RPC analogue of StatsRegistry).
// KvService threads record one relaxed-add bundle per request — latency
// bucket, request/byte counters, response-status counter — on a shard
// owned (statistically) by the handling thread; exporters aggregate the
// shards into the `rpc` stats block and the clsm_rpc_* Prometheus
// families. The same object carries the runtime request-trace sampler
// state so the admin server can flip sampling on a live service through
// the DB's late-bound handle (the service attaches after the admin server
// is already up).
//
// Units: latencies are recorded in NANOSECONDS (the StatsRegistry
// convention); exporters convert.
#ifndef CLSM_OBS_RPC_STATS_H_
#define CLSM_OBS_RPC_STATS_H_

#include <atomic>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/util/histogram.h"

namespace clsm {

// One metrics series per KV protocol opcode. Keep RpcOpName() in sync;
// kOther absorbs unknown/undecodable opcodes so malformed traffic is
// still accounted.
enum class RpcOp : int {
  kGet = 0,
  kPut,
  kDelete,
  kScan,
  kSnapCreate,
  kSnapRelease,
  kStats,
  kPing,
  kOther,
};
constexpr int kNumRpcOps = static_cast<int>(RpcOp::kOther) + 1;

// Stable machine-readable name ("get", "snap_create", ...).
const char* RpcOpName(RpcOp op);

// Response status classes, matching the wire statuses in kv_protocol.h
// (kKvOk/kKvNotFoundStatus/kKvError/kKvBadRequest). Keep
// RpcStatusClassName() in sync.
enum class RpcStatusClass : int {
  kOk = 0,
  kNotFound,
  kError,
  kBadRequest,
};
constexpr int kNumRpcStatusClasses = static_cast<int>(RpcStatusClass::kBadRequest) + 1;

const char* RpcStatusClassName(RpcStatusClass c);

// Thread-sharded counters + histograms for the serving path. All methods
// are thread-safe; reads are racy-by-design monitoring snapshots, like
// DbStats. The object is shared between the KvService that records into
// it and the DB/admin surface that exports it (via shared_ptr, so scrapes
// stay valid across service shutdown).
class RpcServerStats {
 public:
  static constexpr int kNumShards = 8;

  RpcServerStats() = default;
  RpcServerStats(const RpcServerStats&) = delete;
  RpcServerStats& operator=(const RpcServerStats&) = delete;

  // Record one completed request: latency sample plus request/byte/status
  // counters, all relaxed adds on the calling thread's shard.
  void RecordRequest(RpcOp op, RpcStatusClass status, uint64_t latency_nanos,
                     uint64_t bytes_in, uint64_t bytes_out) {
    OpShard& s = shards_[ThreadShardHash() % kNumShards].ops[static_cast<int>(op)];
    s.latency.Record(latency_nanos);
    s.bytes_in.fetch_add(bytes_in, std::memory_order_relaxed);
    s.bytes_out.fetch_add(bytes_out, std::memory_order_relaxed);
    s.responses[static_cast<int>(status)].fetch_add(1, std::memory_order_relaxed);
  }

  // --- aggregated reads (sum across shards) ---

  uint64_t Requests(RpcOp op) const;
  uint64_t BytesIn(RpcOp op) const;
  uint64_t BytesOut(RpcOp op) const;
  uint64_t Responses(RpcOp op, RpcStatusClass status) const;
  uint64_t TotalRequests() const;
  uint64_t TotalBytesIn() const;
  uint64_t TotalBytesOut() const;
  // All responses in the kError or kBadRequest classes.
  uint64_t TotalErrors() const;

  // Merge every shard's latency buckets for op into *out (nanoseconds),
  // recovering min/max from the occupied bucket range.
  void AggregateLatency(RpcOp op, Histogram* out) const;

  void Reset();

  // --- request-trace sampler (runtime-adjustable) ---

  // Sampling probability in parts-per-million: 0 = tracing off,
  // >= 1'000'000 = trace every request. Seeded from
  // Options::rpc_trace_sample_rate; POST /control/rpctrace/{start,stop}
  // flips it on a live service.
  void SetTraceSamplePpm(uint32_t ppm) {
    trace_sample_ppm.store(ppm, std::memory_order_relaxed);
  }
  uint32_t TraceSamplePpm() const { return trace_sample_ppm.load(std::memory_order_relaxed); }

  // Per-request sampling decision (thread-local xorshift, no locks).
  bool SampleTrace();

  // --- gauges and lifecycle counters (plain atomics, relaxed) ---

  std::atomic<int64_t> in_flight{0};           // requests between decode start and response write
  std::atomic<int64_t> connections_active{0};  // live KV connections
  std::atomic<uint64_t> connections_total{0};  // accepted KV connections
  std::atomic<uint64_t> sheds{0};              // connections refused at the cap
  std::atomic<uint64_t> slow_requests_total{0};       // over rpc_slow_threshold_micros
  std::atomic<uint64_t> slow_requests_reported{0};    // admitted by the rate limiter
  std::atomic<uint64_t> slow_requests_suppressed{0};  // over the per-second budget
  std::atomic<uint64_t> trace_spans{0};               // sampled request spans emitted
  std::atomic<uint32_t> trace_sample_ppm{0};

 private:
  struct OpShard {
    LatencyCell latency;  // its count is the request count
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> responses[kNumRpcStatusClasses] = {};
  };
  struct alignas(64) Shard {
    OpShard ops[kNumRpcOps];
  };

  Shard shards_[kNumShards];
};

}  // namespace clsm

#endif  // CLSM_OBS_RPC_STATS_H_
