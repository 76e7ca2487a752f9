#include "src/obs/rpc_stats.h"

#include <functional>
#include <thread>

#include "src/obs/metrics.h"

namespace clsm {

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kGet:
      return "get";
    case RpcOp::kPut:
      return "put";
    case RpcOp::kDelete:
      return "delete";
    case RpcOp::kScan:
      return "scan";
    case RpcOp::kSnapCreate:
      return "snap_create";
    case RpcOp::kSnapRelease:
      return "snap_release";
    case RpcOp::kStats:
      return "stats";
    case RpcOp::kPing:
      return "ping";
    case RpcOp::kOther:
      return "other";
  }
  return "unknown";
}

const char* RpcStatusClassName(RpcStatusClass c) {
  switch (c) {
    case RpcStatusClass::kOk:
      return "ok";
    case RpcStatusClass::kNotFound:
      return "not_found";
    case RpcStatusClass::kError:
      return "error";
    case RpcStatusClass::kBadRequest:
      return "bad_request";
  }
  return "unknown";
}

uint64_t RpcServerStats::Requests(RpcOp op) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.ops[static_cast<int>(op)].latency.count.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t RpcServerStats::BytesIn(RpcOp op) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.ops[static_cast<int>(op)].bytes_in.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t RpcServerStats::BytesOut(RpcOp op) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.ops[static_cast<int>(op)].bytes_out.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t RpcServerStats::Responses(RpcOp op, RpcStatusClass status) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.ops[static_cast<int>(op)].responses[static_cast<int>(status)].load(
        std::memory_order_relaxed);
  }
  return n;
}

uint64_t RpcServerStats::TotalRequests() const {
  uint64_t n = 0;
  for (int op = 0; op < kNumRpcOps; op++) {
    n += Requests(static_cast<RpcOp>(op));
  }
  return n;
}

uint64_t RpcServerStats::TotalBytesIn() const {
  uint64_t n = 0;
  for (int op = 0; op < kNumRpcOps; op++) {
    n += BytesIn(static_cast<RpcOp>(op));
  }
  return n;
}

uint64_t RpcServerStats::TotalBytesOut() const {
  uint64_t n = 0;
  for (int op = 0; op < kNumRpcOps; op++) {
    n += BytesOut(static_cast<RpcOp>(op));
  }
  return n;
}

uint64_t RpcServerStats::TotalErrors() const {
  uint64_t n = 0;
  for (int op = 0; op < kNumRpcOps; op++) {
    n += Responses(static_cast<RpcOp>(op), RpcStatusClass::kError);
    n += Responses(static_cast<RpcOp>(op), RpcStatusClass::kBadRequest);
  }
  return n;
}

void RpcServerStats::AggregateLatency(RpcOp op, Histogram* out) const {
  for (const Shard& s : shards_) {
    s.ops[static_cast<int>(op)].latency.MergeInto(out);
  }
}

void RpcServerStats::Reset() {
  for (Shard& s : shards_) {
    for (OpShard& h : s.ops) {
      h.latency.Reset();
      h.bytes_in.store(0, std::memory_order_relaxed);
      h.bytes_out.store(0, std::memory_order_relaxed);
      for (auto& r : h.responses) {
        r.store(0, std::memory_order_relaxed);
      }
    }
  }
  sheds.store(0, std::memory_order_relaxed);
  connections_total.store(0, std::memory_order_relaxed);
  slow_requests_total.store(0, std::memory_order_relaxed);
  slow_requests_reported.store(0, std::memory_order_relaxed);
  slow_requests_suppressed.store(0, std::memory_order_relaxed);
  trace_spans.store(0, std::memory_order_relaxed);
  // in_flight / connections_active are live gauges, not counters: leave
  // them alone so a mid-flight reset cannot strand them negative.
}

bool RpcServerStats::SampleTrace() {
  const uint32_t ppm = trace_sample_ppm.load(std::memory_order_relaxed);
  if (ppm == 0) {
    return false;
  }
  if (ppm >= 1'000'000) {
    return true;
  }
  // Per-thread xorshift64*, seeded once from the thread id and the
  // monotonic clock — no locks, no shared state on the hot path.
  thread_local uint64_t rng = [] {
    uint64_t seed = std::hash<std::thread::id>()(std::this_thread::get_id());
    seed ^= MonotonicNanos();
    return seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  }();
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return (rng * 0x2545f4914f6cdd1dull) % 1'000'000 < ppm;
}

}  // namespace clsm
