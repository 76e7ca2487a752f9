#include "src/core/lsm_db_chassis.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "src/core/db_iter.h"
#include "src/core/write_batch.h"
#include "src/obs/instrumented_iter.h"
#include "src/obs/rpc_stats.h"
#include "src/table/merging_iterator.h"

namespace clsm {

LsmDbChassis::LsmDbChassis(const Options& options, const std::string& dbname)
    : dbname_(dbname),
      admin_slow_ring_(options.admin_port >= 0 ? std::make_shared<SlowOpRingListener>()
                                               : nullptr),
      admin_trace_(options.admin_port >= 0 ? std::make_shared<TraceController>() : nullptr),
      engine_(WithAdminListeners(options, admin_slow_ring_, admin_trace_), dbname),
      metrics_on_(options.latency_metrics),
      perf_level_(options.perf_level),
      slow_op_threshold_nanos_(options.slow_op_threshold_micros * 1000),
      slow_op_limiter_(options.slow_op_max_per_sec),
      // Slow RPC records land in the ring GET /slowops serves, next to the
      // engine's own slow-op records.
      rpc_(admin_slow_ring_) {
  engine_.SetStatsRegistry(metrics_on_ ? &registry_ : nullptr);
  throttle_ = std::make_unique<WriteThrottle>(&engine_, &stats_);
  throttle_->SetRegistry(metrics_on_ ? &registry_ : nullptr);
  trace_ops_ = engine_.listeners().has_op_listeners();
  attributed_ops_ = trace_ops_ || slow_op_threshold_nanos_ != 0;
}

Status LsmDbChassis::Open(std::unique_ptr<LsmDbChassis> db, DB** dbptr) {
  *dbptr = nullptr;
  Status s = db->Init();
  if (!s.ok()) {
    return s;
  }
  *dbptr = db.release();
  return Status::OK();
}

Status LsmDbChassis::Init() {
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine_.Open(&recovered, &max_seq);
  if (s.ok()) {
    RestoreSequence(max_seq);
    // Fresh WAL for the new mutable memtable.
    std::unique_ptr<AsyncLogger> logger;
    uint64_t log_number = 0;
    s = PrepareLog(&logger, &log_number);
    logger_.store(logger.release(), std::memory_order_release);
    log_number_.store(log_number, std::memory_order_relaxed);
  }
  if (s.ok()) {
    // Publish the recovered timestamp before any manifest edit is written
    // so the edit records the true last sequence (scans after a future
    // reopen depend on it).
    engine_.versions()->SetLastSequence(std::max(engine_.versions()->LastSequence(), max_seq));
    // Flush recovered WAL contents straight to level 0, then retire old
    // logs. Without any, still record the fresh log in the manifest so the
    // obsolete-file sweep cannot strand CURRENT pointing at a removed
    // manifest.
    s = recovered != nullptr && recovered->NumEntries() > 0
            ? engine_.FlushMemTable(recovered, log_number_)
            : engine_.CommitLogRotation(log_number_);
  }
  if (recovered != nullptr) {
    recovered->Unref();
  }
  if (!s.ok()) {
    return s;
  }
  engine_.RemoveObsoleteFiles(log_number_, /*include_tables=*/true);

  mem_.store(new MemTable(*engine_.icmp()), std::memory_order_release);
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  engine_.StartCompactionScheduler(
      engine_.options().compaction_threads, [this] { return SmallestLiveSnapshot(); },
      [this](const Status&) {
        // The engine already latched the error; wake stalled writers so
        // they observe it instead of waiting out the 1ms poll.
        std::lock_guard<std::mutex> l(maintenance_mutex_);
        work_done_cv_.notify_all();
      });
  const Options& options = engine_.options();
  if (options.stats_dump_period_sec > 0) {
    reporter_ = std::make_unique<StatsReporter>(
        Name(), options.stats_dump_period_sec,
        [this] {
          ReporterCounters c;
          c.writes = stats_.puts_total.load(std::memory_order_relaxed) +
                     stats_.deletes_total.load(std::memory_order_relaxed);
          c.gets = stats_.gets_total.load(std::memory_order_relaxed);
          c.flushes = stats_.flushes.load(std::memory_order_relaxed);
          c.compactions = engine_.compaction_stats()->TotalCompactions();
          c.stall_micros = stats_.TotalStallMicros();
          c.hard_stall_micros = stats_.stall_micros.load(std::memory_order_relaxed);
          c.rate_delay_micros = stats_.rate_limit_delay_micros.load(std::memory_order_relaxed);
          std::shared_ptr<RpcServerStats> rpc = rpc_.stats();
          c.rpc_requests = rpc != nullptr ? rpc->TotalRequests() : 0;
          return c;
        },
        [this] { return GetProperty("clsm.stats.json"); },
        options.stats_dump_deltas ? std::function<void()>([this] { ResetStats(); })
                                  : std::function<void()>());
  }
  if (options.admin_port >= 0) {
    AdminHooks hooks;
    hooks.db_name = Name();
    hooks.stats_json = [this] { return GetProperty("clsm.stats.json"); };
    hooks.perf_json = [this] { return GetProperty("clsm.perf.json"); };
    hooks.metrics_text = [this] { return BuildStatsPrometheus(StatsSource()); };
    hooks.reset_stats = [this] { ResetStats(); };
    hooks.bg_error = engine_.bg_error();
    hooks.trace = admin_trace_.get();
    rpc_.FillAdminHooks(&hooks);
    hooks.max_connections = options.admin_max_connections;
    admin_ = std::make_unique<AdminServer>(std::move(hooks));
    s = admin_->Start(options.admin_bind_address, options.admin_port);
  }
  return s;
}

void LsmDbChassis::StopBackgroundWork() {
  // The admin server's handlers and the reporter call GetProperty and walk
  // engine_ state; stop them first.
  admin_.reset();
  reporter_.reset();
  shutting_down_.store(true, std::memory_order_release);
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  // Compaction workers read the snapshot list and the variant's timestamp
  // source through SmallestLiveSnapshot.
  engine_.StopCompactionScheduler();
}

LsmDbChassis::~LsmDbChassis() {
  StopBackgroundWork();
  // Drain and close the WAL so everything enqueued is recoverable.
  delete logger_.exchange(nullptr, std::memory_order_acq_rel);  // dtor drains, syncs, closes
  imm_logger_.reset();
  for (std::atomic<MemTable*>* component : {&imm_, &mem_}) {
    MemTable* m = component->exchange(nullptr, std::memory_order_acq_rel);
    if (m != nullptr) {
      m->Unref();
    }
  }
}

void LsmDbChassis::FinishOp(DbOpType op, const Slice& key, uint64_t value_size,
                            OpOutcome outcome, uint64_t start_ticks, bool stalled) {
  // start_ticks == 0 means no attribution sink asked for timing at op
  // entry; there is nothing coherent to report.
  if (start_ticks == 0) {
    return;
  }
  const uint64_t total_nanos = LatencyClock::ToNanos(LatencyClock::Ticks() - start_ticks);
  PerfContext& ctx = tls_perf_context;
  if (ctx.timers_enabled()) {
    ctx.total_nanos = total_nanos;
  }
  if (!attributed_ops_) {
    return;
  }
  const uint64_t latency_micros = total_nanos / 1000;
  if (trace_ops_) {
    OperationInfo info;
    info.op = op;
    info.key = key;
    info.value_size = static_cast<uint32_t>(std::min<uint64_t>(value_size, UINT32_MAX));
    info.outcome = outcome;
    info.latency_micros = latency_micros;
    engine_.listeners().NotifyOperation(info);
  }
  if (slow_op_threshold_nanos_ != 0 && total_nanos >= slow_op_threshold_nanos_) {
    stats_.Bump(stats_.slow_ops_total);
    if (slow_op_limiter_.Admit(engine_.env()->NowMicros())) {
      // The record carries the PerfContext snapshot as-is; its `level`
      // field tells consumers whether the counters/timers were populated
      // for this op (at "off" they are not meaningful).
      SlowOpInfo info;
      info.op = op;
      info.key_prefix_hash = SlowOpKeyPrefixHash(key);
      info.latency_micros = latency_micros;
      info.perf = ctx;
      info.l0_files = engine_.NumLevelFiles(0);
      info.stalled = stalled;
      info.suppressed = slow_op_limiter_.suppressed();
      engine_.listeners().NotifySlowOperation(info);
      stats_.Bump(stats_.slow_ops_reported);
    } else {
      stats_.Bump(stats_.slow_ops_dropped);
    }
  }
}

uint64_t LsmDbChassis::BatchBytes(const WriteBatch& batch) {
  uint64_t bytes = 0;
  for (const WriteBatch::Op& op : batch.ops()) {
    bytes += op.key.size() + op.value.size();
  }
  return bytes;
}

Status LsmDbChassis::SearchAndUnref(const ReadOptions& options, const LookupKey& lkey,
                                    MemTable* mem, MemTable* imm, std::string* value,
                                    SequenceNumber* seq_found) {
  // Attribution split: mem_search covers the Pm/P'm probes, disk_search the
  // engine (table) lookup; for memtable hits the whole search is
  // mem_search.
  const bool pt = tls_perf_context.timers_enabled();
  const uint64_t search_t0 = pt ? LatencyClock::Ticks() : 0;
  uint64_t disk_t0 = 0;
  Status s;
  if (mem->Get(lkey, value, &s, seq_found)) {
    stats_.Bump(stats_.gets_from_mem);
  } else if (imm != nullptr && imm->Get(lkey, value, &s, seq_found)) {
    stats_.Bump(stats_.gets_from_imm);
  } else {
    disk_t0 = pt ? LatencyClock::Ticks() : 0;
    s = engine_.Get(options, lkey, value, seq_found);
    stats_.Bump(stats_.gets_from_disk);
  }
  if (pt) {
    const uint64_t end = LatencyClock::Ticks();
    PerfContext& ctx = tls_perf_context;
    ctx.mem_search_nanos += LatencyClock::ToNanos((disk_t0 != 0 ? disk_t0 : end) - search_t0);
    if (disk_t0 != 0) {
      ctx.disk_search_nanos += LatencyClock::ToNanos(end - disk_t0);
    }
  }
  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
  return s;
}

Status LsmDbChassis::GetLatest(const Slice& key, std::string* value, SequenceNumber* seq) {
  LookupKey lkey(key, kMaxSequenceNumber);
  *seq = 0;
  Status s;
  if (mem_.load(std::memory_order_acquire)->Get(lkey, value, &s, seq)) {
    return s;
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  if (imm != nullptr && imm->Get(lkey, value, &s, seq)) {
    return s;
  }
  return engine_.Get(ReadOptions(), lkey, value, seq);
}

namespace {
struct IterState {
  MemTable* mem;
  MemTable* imm;
  Version* version;
};

void CleanupIterState(void* arg1, void* arg2) {
  IterState* state = reinterpret_cast<IterState*>(arg1);
  state->mem->Unref();
  if (state->imm != nullptr) {
    state->imm->Unref();
  }
  if (state->version != nullptr) {
    state->version->Unref();
  }
  delete state;
}
}  // namespace

Iterator* LsmDbChassis::NewIteratorAt(const ReadOptions& options, MemTable* mem, MemTable* imm,
                                      SequenceNumber seq) {
  IterState* state = new IterState{mem, imm, nullptr};
  std::vector<Iterator*> children;
  children.push_back(mem->NewIterator());
  if (imm != nullptr) {
    children.push_back(imm->NewIterator());
  }
  state->version = engine_.AddVersionIterators(options, &children);
  Iterator* internal =
      NewMergingIterator(engine_.icmp(), children.data(), static_cast<int>(children.size()));
  internal->RegisterCleanup(&CleanupIterState, state, nullptr);
  return NewLatencyRecordingIterator(NewDBIterator(engine_.icmp()->user_comparator(), internal, seq),
                                     metrics_on_ ? &registry_ : nullptr);
}

Status LsmDbChassis::PrepareLog(std::unique_ptr<AsyncLogger>* logger, uint64_t* log_number) {
  if (engine_.options().disable_wal) {
    *log_number = engine_.versions()->NewFileNumber();
    return Status::OK();
  }
  return engine_.NewLog(log_number, logger);
}

void LsmDbChassis::MaintenanceLoop() {
  // Rolls and flushes only. Compactions are picked and dispatched by the
  // engine's worker pool, so a long merge never delays the Cm -> C'm roll.
  // Version-set mutation stays serialized because LogAndApply itself is
  // internally locked.
  while (true) {
    bool need_roll = false;
    bool need_flush = false;
    {
      std::unique_lock<std::mutex> l(maintenance_mutex_);
      while (!shutting_down_.load(std::memory_order_acquire)) {
        // With a hard error latched there is nothing useful to do: rolling
        // would orphan more WALs and flushing would retire a log whose
        // durability is unknown. Park until shutdown (or reopen).
        const bool blocked = engine_.bg_error()->writes_blocked();
        need_flush = !blocked && imm_exists_.load(std::memory_order_acquire);
        need_roll = !blocked && !need_flush && MemFull();
        if (need_roll || need_flush) {
          break;
        }
        maintenance_cv_.wait_for(l, std::chrono::milliseconds(2));
      }
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      // Final drain: flush nothing (WAL provides durability), just exit.
      return;
    }
    if (need_roll) {
      RollMemTable();
    }
    if (imm_exists_.load(std::memory_order_acquire) &&
        !engine_.bg_error()->writes_blocked()) {
      FlushImmutable();
    }
    work_done_cv_.notify_all();
  }
}

void LsmDbChassis::RollMemTable() {
  std::unique_ptr<AsyncLogger> logger;
  uint64_t log_number = 0;
  Status s = PrepareLog(&logger, &log_number);
  if (!s.ok()) {
    engine_.RecordBackgroundError(BgErrorReason::kMemtableRoll, s);
    return;
  }
  MemTable* fresh = new MemTable(*engine_.icmp());
  size_t retired_bytes = 0;
  RunExclusive([&] {
    MemTable* old_mem = mem_.load(std::memory_order_relaxed);
    imm_.store(old_mem, std::memory_order_release);  // P'm <- Pm
    mem_.store(fresh, std::memory_order_release);    // Pm <- new component
    imm_logger_.reset(logger_.exchange(logger.release(), std::memory_order_acq_rel));
    log_number_.store(log_number, std::memory_order_relaxed);
    imm_exists_.store(true, std::memory_order_release);
    retired_bytes = old_mem->ApproximateMemoryUsage();
  });
  stats_.Bump(stats_.memtable_rolls);
  engine_.listeners().NotifyMemtableRoll(retired_bytes);
}

void LsmDbChassis::FlushImmutable() {
  // Once a hard error is latched the WAL/flush pipeline can no longer be
  // trusted: leave P'm (and its WAL) in place — reads keep serving it, and
  // the next open replays the WAL.
  if (engine_.bg_error()->writes_blocked()) {
    return;
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  assert(imm != nullptr);

  // The flush edit persists the current timestamp: recovery restores it
  // as max(manifest last-sequence, replayed WAL timestamps).
  engine_.versions()->SetLastSequence(
      std::max(engine_.versions()->LastSequence(), CurrentSequence()));

  // Every record of P'm must be durably in its WAL before the table build
  // starts: Close() drains the queue, syncs and closes the file — and
  // reports failure. A failed final sync means acked synchronous writes
  // may exist only in this WAL, so the flush aborts before the table build
  // could retire the log.
  if (imm_logger_ != nullptr) {
    Status wal_status = imm_logger_->Close();
    imm_logger_.reset();
    if (!wal_status.ok()) {
      engine_.RecordBackgroundError(BgErrorReason::kWalSync, wal_status);
      return;
    }
  }
  stats_.Bump(stats_.flushes);

  if (!engine_.FlushMemTable(imm, log_number_).ok()) {
    return;  // FlushMemTable latched the error; P'm stays resident for reads
  }
  // afterMerge: Pd was already switched by the version install inside
  // FlushMemTable; now clear P'm and retire the old component once all
  // concurrent readers are done with it.
  RunExclusive([this] {
    imm_.store(nullptr, std::memory_order_release);
    imm_exists_.store(false, std::memory_order_release);
  });
  engine_.epochs()->Synchronize();
  imm->Unref();

  engine_.RemoveObsoleteFiles(log_number_);
  // The new level-0 file may have made a compaction pickable.
  engine_.SignalCompaction();
}

void LsmDbChassis::WaitForMaintenance() {
  while (true) {
    bool busy = imm_exists_.load(std::memory_order_acquire) || !engine_.CompactionsIdle();
    if (!busy) {
      // Pin the memtable while probing its size: the maintenance thread
      // frees rolled memtables only after an epoch Synchronize.
      EpochGuard guard(*engine_.epochs());
      busy = MemFull();
    }
    if (!busy) {
      return;
    }
    std::unique_lock<std::mutex> l(maintenance_mutex_);
    if (!engine_.bg_error()->ok()) {
      return;  // maintenance is wedged; nothing further to wait for
    }
    maintenance_cv_.notify_one();
    engine_.SignalCompaction();
    work_done_cv_.wait_for(l, std::chrono::milliseconds(1));
  }
}

// The WriteThrottle client over the component state. Writers that hold
// their variant's mutex (the LevelDB-style queue head) release it for every
// wait and sleep, so the maintenance thread can enter the exclusive
// section meanwhile.
class LsmDbChassis::ComponentGate final : public WriteThrottle::Client {
 public:
  ComponentGate(LsmDbChassis* db, std::unique_lock<std::mutex>* held) : db_(db), held_(held) {}

  bool MemFull() override { return db_->MemFull(); }
  double MemFillFraction() override {
    MemTable* m = db_->mem_.load(std::memory_order_acquire);
    return static_cast<double>(m->ApproximateMemoryUsage()) /
           static_cast<double>(std::max<size_t>(1, db_->engine_.options().write_buffer_size));
  }
  bool ImmExists() override { return db_->imm_exists_.load(std::memory_order_acquire); }
  bool ShuttingDown() override { return db_->shutting_down_.load(std::memory_order_acquire); }
  void KickMaintenance() override { db_->maintenance_cv_.notify_one(); }
  void WaitForProgress() override {
    Unheld unheld(held_);
    std::unique_lock<std::mutex> l(db_->maintenance_mutex_);
    db_->maintenance_cv_.notify_one();
    db_->work_done_cv_.wait_for(l, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    Unheld unheld(held_);
    const uint64_t t0 = MonotonicNanos();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    return MonotonicNanos() - t0;
  }

 private:
  // Releases the writer's held lock, if any, for one scope.
  struct Unheld {
    explicit Unheld(std::unique_lock<std::mutex>* held) : held(held) {
      if (held != nullptr) {
        held->unlock();
      }
    }
    ~Unheld() {
      if (held != nullptr) {
        held->lock();
      }
    }
    std::unique_lock<std::mutex>* const held;
  };

  LsmDbChassis* const db_;
  std::unique_lock<std::mutex>* const held_;
};

Status LsmDbChassis::Throttle(uint64_t bytes, bool* stalled_out,
                              std::unique_lock<std::mutex>* held) {
  ComponentGate gate(this, held);
  return throttle_->Gate(&gate, bytes, stalled_out);
}

std::string LsmDbChassis::GetProperty(const Slice& property) {
  if (property == Slice("clsm.levels")) {
    return engine_.versions()->LevelSummary();
  }
  if (property == Slice("clsm.mem-usage")) {
    // Pinned like WaitForMaintenance's probe: a roll and a flush may retire
    // this memtable while the admin server reads it.
    EpochGuard guard(*engine_.epochs());
    MemTable* mem = mem_.load(std::memory_order_acquire);
    return std::to_string(mem != nullptr ? mem->ApproximateMemoryUsage() : 0);
  }
  if (property == Slice("clsm.last-ts")) {
    return std::to_string(CurrentSequence());
  }
  if (property == Slice("clsm.stats")) {
    // Compactions are counted by the engine; mirror the total into the
    // legacy counter so the "maintenance:" line stays truthful.
    stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                             std::memory_order_relaxed);
    return stats_.ToString() + engine_.compaction_stats()->ToString();
  }
  if (property == Slice("clsm.stats.json")) {
    return BuildStatsJson(StatsSource());
  }
  if (property == Slice("clsm.perf.json")) {
    // The calling thread's per-op attribution context: the last operation
    // this thread ran against any DB with perf_level enabled.
    return tls_perf_context.ToJson();
  }
  if (property == Slice("clsm.stats.reset")) {
    ResetStats();
    return "OK";
  }
  if (property == Slice("clsm.stall-micros")) {
    return std::to_string(stats_.TotalStallMicros());
  }
  if (property == Slice("clsm.l0-files")) {
    return std::to_string(engine_.NumLevelFiles(0));
  }
  if (property == Slice("clsm.write-rate")) {
    // Current admitted rate in bytes/sec (max_rate when unthrottled).
    return std::to_string(throttle_->controller()->current_rate());
  }
  if (property == Slice("clsm.compaction-overlaps")) {
    return std::to_string(engine_.versions()->InFlightOverlapViolations());
  }
  if (property == Slice("clsm.compactions-inflight")) {
    return std::to_string(engine_.versions()->NumInFlightCompactions());
  }
  if (property == Slice("clsm.background-error")) {
    return engine_.bg_error()->ToString();
  }
  if (property == Slice("clsm.bg-error")) {
    // Baseline-compatible spelling: just the status string.
    return engine_.bg_error()->status().ToString();
  }
  if (property == Slice("clsm.admin-port")) {
    // The bound port (resolves Options::admin_port == 0); -1 if disabled.
    return std::to_string(admin_ != nullptr ? admin_->port() : -1);
  }
  return std::string();
}

StatsJsonSource LsmDbChassis::StatsSource() {
  stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                           std::memory_order_relaxed);
  StatsJsonSource src;
  src.db = Name();
  src.counters = &stats_;
  src.registry = &registry_;
  src.engine = &engine_;
  src.active_set = active_set_;
  src.throttle = throttle_.get();
  // Raw pointer is safe: the attachment holds the stats until replaced or
  // destroyed, and the source is consumed synchronously by the exporter.
  src.rpc = rpc_.stats().get();
  return src;
}

void LsmDbChassis::ResetStats() {
  stats_.Reset();
  registry_.Reset();
  slow_op_limiter_.Reset();
  rpc_.ResetStats();
}

}  // namespace clsm
