// LsmDbChassis — the one store body under cLSM and every baseline
// architecture it is compared against (paper §5). The variants differ in
// in-memory concurrency control alone, so everything else lives here
// once:
//  * open-time recovery (engine open, fresh WAL, flush of the recovered
//    memtable or commit of the log rotation, obsolete-file sweep) and
//    teardown;
//  * the component state — Pm, P'm, their WALs — the memtable roll's
//    fresh-log half and the flush of P'm to level 0;
//  * the mem -> imm -> disk read search and the iterator assembly;
//  * per-op attribution: the op prologue (door check, PerfContext start,
//    entry tick) and the FinishOp epilogue;
//  * observability: DbStats, the latency registry, the write throttle,
//    the GetProperty keys, the stats exporters' source, the periodic
//    reporter, the admin server and the serving tier's RpcAttachment.
//
// A variant supplies its write, read, snapshot and RMW paths and four
// hooks, none on an op path: RestoreSequence and CurrentSequence (its
// timestamp source, which also bounds snapshot GC), ClearImmutable (P'm
// cleared under its own lock) and StartMaintenance (its maintenance
// thread, plus cLSM's compaction scheduler).
#ifndef CLSM_CORE_LSM_DB_CHASSIS_H_
#define CLSM_CORE_LSM_DB_CHASSIS_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/db.h"
#include "src/core/snapshot.h"
#include "src/core/stats.h"
#include "src/lsm/storage_engine.h"
#include "src/lsm/write_controller.h"
#include "src/obs/metrics.h"
#include "src/obs/op_trace.h"
#include "src/obs/perf_context.h"
#include "src/obs/slow_op.h"
#include "src/obs/stats_export.h"
#include "src/obs/stats_reporter.h"
#include "src/server/admin_server.h"
#include "src/server/rpc_attachment.h"

namespace clsm {

class ActiveTimestampSet;
class WriteBatch;

class LsmDbChassis : public DB {
 public:
  ~LsmDbChassis() override;

  // Runs the open sequence on a freshly constructed variant and hands it
  // to *dbptr on success.
  static Status Open(std::unique_ptr<LsmDbChassis> db, DB** dbptr);

  std::string GetProperty(const Slice& property) override;
  bool FillStatsSource(StatsJsonSource* out) override {
    *out = StatsSource();
    return true;
  }
  void ResetStats() override;
  std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) override {
    return rpc_.Attach(std::move(stats), std::move(trace));
  }

 protected:
  // leveldb_gate selects the throttle's LevelDB semantics: fail writers on
  // any latched background error, and let the L0 hard stop block only the
  // roll (LevelDB rolls from the write path). cLSM passes false.
  LsmDbChassis(const Options& options, const std::string& dbname, bool leveldb_gate);

  // --- variant hooks ---
  // Continue the variant's timestamp source after `last`, the largest
  // sequence recovered from the manifest and the WALs.
  virtual void RestoreSequence(SequenceNumber last) = 0;
  // The variant's current timestamp: persisted with every flush, the
  // snapshot-GC bound when no snapshot is installed, and clsm.last-ts.
  virtual SequenceNumber CurrentSequence() = 0;
  // afterMerge: clear P'm (imm_ and imm_exists_) under the variant's
  // exclusive lock.
  virtual void ClearImmutable() = 0;
  // Start the maintenance thread (and any compaction workers).
  virtual void StartMaintenance() = 0;

  // Stops the admin server, the reporter, the maintenance thread and the
  // compaction workers. Idempotent. Each variant's destructor calls it
  // first: all of them run variant code.
  void StopBackgroundWork();

  // --- op prologue and epilogue ---
  // Degraded read-only mode: once a hard error is latched new writes can
  // no longer be made durable, so they fail at the door (one lock-free
  // load on the happy path).
  Status CheckWritable() const {
    return engine_.bg_error()->writes_blocked() ? engine_.bg_error()->status() : Status::OK();
  }
  // Publishes the perf level (resetting the thread-local context) and
  // takes the entry tick once for every sink — latency histograms,
  // PerfContext timers, slow-op logging, op tracing. Returns 0 when no
  // sink needs timing.
  uint64_t StartOp() {
    PerfContextStartOp(perf_level_);
    return (metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled())
               ? LatencyClock::Ticks()
               : 0;
  }
  // Closes the PerfContext (total_nanos), emits a rate-bounded slow-op
  // record when the op crossed Options::slow_op_threshold_micros, and
  // appends a trace record when a listener opted into per-op records.
  // value_size is clamped to the trace record's 32 bits. No-op when
  // start_ticks is 0.
  void FinishOp(DbOpType op, const Slice& key, uint64_t value_size, OpOutcome outcome,
                uint64_t start_ticks, bool stalled);
  static OpOutcome ReadOutcome(const Status& s) {
    return s.ok() ? OpOutcome::kOk : (s.IsNotFound() ? OpOutcome::kNotFound : OpOutcome::kError);
  }
  // Total key + value bytes of a batch, in 64 bits: a >= 4 GiB batch must
  // not wrap.
  static uint64_t BatchBytes(const WriteBatch& batch);

  // --- reads ---
  // Loads and references Pm and P'm. The caller keeps the pointers stable
  // meanwhile: an epoch guard, or the variant's mutex.
  void RefComponents(MemTable** mem, MemTable** imm) {
    *mem = mem_.load(std::memory_order_acquire);
    (*mem)->Ref();
    *imm = imm_.load(std::memory_order_acquire);
    if (*imm != nullptr) {
      (*imm)->Ref();
    }
  }
  // Get's search: Pm, then P'm, then disk, stopping at the first component
  // holding a version of lkey; bumps the gets_from_* counters, splits the
  // PerfContext time into mem_search / disk_search, and drops the caller's
  // references on mem and imm.
  Status SearchAndUnref(const ReadOptions& options, const LookupKey& lkey, MemTable* mem,
                        MemTable* imm, std::string* value, SequenceNumber* seq_found);
  // RMW's read step: the latest version of key across Pm, P'm and disk.
  // The caller's lock keeps the components stable. *seq is that version's
  // timestamp (0 if none); a deletion reads as NotFound with *seq != 0.
  Status GetLatest(const Slice& key, std::string* value, SequenceNumber* seq);
  // A scan at seq over the referenced mem/imm (whose references pass to
  // the iterator) and the current disk version.
  Iterator* NewIteratorAt(const ReadOptions& options, MemTable* mem, MemTable* imm,
                          SequenceNumber seq);

  // --- maintenance ---
  // The memtable roll's preparation (beforeMerge), done outside any lock:
  // the fresh memtable and its WAL (just a file number with the WAL off).
  // Returns false, with kMemtableRoll latched, when the WAL cannot open.
  struct Roll {
    MemTable* mem = nullptr;
    std::unique_ptr<AsyncLogger> logger;
    uint64_t log_number = 0;
  };
  bool PrepareRoll(Roll* roll);
  // The roll's pointer swap, Pm -> P'm, under the variant's exclusive
  // lock. Returns the retired memtable's size for NotifyMemtableRoll,
  // which the caller sends after unlocking.
  size_t InstallRoll(Roll* roll);
  // merge + afterMerge: closes P'm's WAL (a failed final sync aborts the
  // flush before the log could be retired), writes P'm to level 0, clears
  // it (ClearImmutable) and retires it once no reader holds it.
  void FlushImmutable();
  SequenceNumber SmallestLiveSnapshot() { return snapshots_.OldestTimestamp(CurrentSequence()); }
  bool MemFull() const {
    MemTable* m = mem_.load(std::memory_order_acquire);
    return m != nullptr && m->ApproximateMemoryUsage() >= engine_.options().write_buffer_size;
  }

  // WriteThrottle client over the component state; each variant adds how
  // its writers wait.
  class ComponentGate : public WriteThrottle::Client {
   public:
    explicit ComponentGate(LsmDbChassis* db) : db_(db) {}
    bool MemFull() override { return db_->MemFull(); }
    double MemFillFraction() override;
    bool ImmExists() override { return db_->imm_exists_.load(std::memory_order_acquire); }
    void KickMaintenance() override { db_->maintenance_cv_.notify_one(); }

   private:
    LsmDbChassis* const db_;
  };

  const std::string dbname_;
  // Admin-server internal listeners (slow-op ring for GET /slowops, trace
  // controller for POST /control/trace/*). Declared before engine_: they
  // are appended to the Options listener list the engine is built with
  // (WantsOperationRecords is sampled once at open), so they must exist
  // first. Null when Options::admin_port < 0 — a disabled admin server
  // costs the op paths nothing.
  std::shared_ptr<SlowOpRingListener> admin_slow_ring_;
  std::shared_ptr<TraceController> admin_trace_;
  StorageEngine engine_;

  // Component pointers (Figure 2b): Pm and P'm. Variants swap them under
  // their exclusive lock and read them under an epoch guard or their lock.
  std::atomic<MemTable*> mem_{nullptr};
  std::atomic<MemTable*> imm_{nullptr};
  std::atomic<bool> imm_exists_{false};  // fast-path view of imm_ != null
  // WAL of Pm, swapped together with it.
  std::atomic<AsyncLogger*> logger_{nullptr};
  std::atomic<uint64_t> log_number_{0};
  std::unique_ptr<AsyncLogger> imm_logger_;  // P'm's retired WAL, draining
  SnapshotList snapshots_;  // installed snapshot handles

  // Maintenance machinery. The sticky background error lives in
  // engine_.bg_error(), shared with the engine's own background threads.
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  std::condition_variable work_done_cv_;
  std::atomic<bool> shutting_down_{false};
  std::thread maintenance_thread_;

  DbStats stats_;
  StatsRegistry registry_;
  // Shared admission gate (hard stalls + rate limiting); built after
  // stats_, which it captures.
  std::unique_ptr<WriteThrottle> throttle_;
  // Cached Options::latency_metrics: when false, op paths skip every clock
  // read (the <5%-overhead escape hatch).
  const bool metrics_on_;
  // Active-set slot gauges for the stats export (cLSM only).
  const ActiveTimestampSet* active_set_ = nullptr;

  // --- per-op attribution, all cached at open ---
  const PerfLevel perf_level_;
  const uint64_t slow_op_threshold_nanos_;  // 0 = slow-op logging off
  bool trace_ops_ = false;       // some listener wants per-op records
  bool attributed_ops_ = false;  // some sink needs op entry/exit times
  SlowOpRateLimiter slow_op_limiter_;

 private:
  Status Init();
  // Pm's WAL for a roll or the open: a fresh log, or only a file number
  // with the WAL disabled. False (with *s set) when the log cannot open.
  bool PrepareLog(Roll* roll, Status* s);

  // The one place that knows which observability state feeds the stats
  // exporters; both the clsm.stats.json property and /metrics render
  // from it.
  StatsJsonSource StatsSource();

  RpcAttachment rpc_;
  std::unique_ptr<StatsReporter> reporter_;
  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0
};

}  // namespace clsm

#endif  // CLSM_CORE_LSM_DB_CHASSIS_H_
