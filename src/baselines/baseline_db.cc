#include "src/baselines/baseline_db.h"

#include <chrono>
#include <thread>

namespace clsm {

BaselineDbBase::~BaselineDbBase() { StopBackgroundWork(); }

void BaselineDbBase::StartMaintenance() {
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
}

Status BaselineDbBase::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  stats_.Bump(stats_.puts_total);
  WriteBatch batch;
  batch.Put(key, value);
  return QueuedWrite(DbOpType::kPut, options, &batch, key, value.size());
}

Status BaselineDbBase::Delete(const WriteOptions& options, const Slice& key) {
  stats_.Bump(stats_.deletes_total);
  WriteBatch batch;
  batch.Delete(key);
  return QueuedWrite(DbOpType::kDelete, options, &batch, key, 0);
}

Status BaselineDbBase::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Bump(stats_.batches_total);
  return QueuedWrite(DbOpType::kWrite, options, updates, Slice(), BatchBytes(*updates));
}

Status BaselineDbBase::QueuedWrite(DbOpType op, const WriteOptions& options, WriteBatch* batch,
                                   const Slice& key, uint64_t bytes) {
  Status s = CheckWritable();
  if (!s.ok()) {
    return s;
  }
  const uint64_t t0 = StartOp();
  bool op_stalled = false;
  s = WriteLocked(options, batch, &op_stalled);
  if (metrics_on_ && op != DbOpType::kWrite) {
    registry_.Record(op == DbOpType::kPut ? OpMetric::kPut : OpMetric::kDelete,
                     LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(op, key, bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0, op_stalled);
  return s;
}

// LevelDB's single-writer queue with group commit: every writer enqueues
// and blocks; the queue head makes room, claims sequence numbers, applies
// the batch (and any batches grouped behind it) outside the mutex, then
// wakes the group. This is the "single synchronization point" whose
// contention the paper measures (§5.1: throughput decreases as threads
// contend for the writers queue).
Status BaselineDbBase::WriteLocked(const WriteOptions& options, WriteBatch* updates,
                                   bool* stalled_out) {
  Writer w(updates, options.sync || engine_.options().sync_logging);

  std::unique_lock<std::mutex> lock(mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    return w.status;
  }

  Status status = MakeRoomForWrite(lock, w.batch->ApproximateSize(), stalled_out);
  Writer* last_writer = &w;
  std::vector<Writer*> group;
  if (status.ok()) {
    // Group the queue's current contents into one logical write.
    size_t size = 0;
    for (Writer* candidate : writers_) {
      group.push_back(candidate);
      size += candidate->batch->ApproximateSize();
      last_writer = candidate;
      if (size > 1 << 20) {
        break;
      }
    }

    MemTable* mem = mem_.load(std::memory_order_acquire);
    AsyncLogger* logger = logger_.load(std::memory_order_acquire);
    const bool use_wal = !engine_.options().disable_wal;

    lock.unlock();
    // Single writer beyond this point (queue heads are serialized).
    bool any_sync = false;
    SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed);
    for (Writer* member : group) {
      any_sync = any_sync || member->sync;
      // One WAL record per member batch: each user batch recovers
      // all-or-nothing. Phase latencies are per member batch: mem_insert
      // covers the memtable adds (plus record encoding), wal_append the
      // logger enqueue.
      const bool pt = tls_perf_context.timers_enabled();
      const uint64_t t0 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      std::string record;
      for (const WriteBatch::Op& op : member->batch->ops()) {
        ++seq;
        mem->Add(seq, op.type, op.key, op.value);
        if (use_wal) {
          EncodeWalRecord(&record, seq, op.type, op.key, op.value);
        }
      }
      const uint64_t t1 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      if (use_wal && !record.empty()) {
        logger->AddRecordAsync(std::move(record));
      }
      if (metrics_on_) {
        registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t1 - t0));
        registry_.Record(OpMetric::kWalAppend,
                         LatencyClock::ToNanos(LatencyClock::Ticks() - t1));
      }
      if (pt && member == &w) {
        // PerfContext is thread-local: only the group head's own batch can
        // be attributed to it. Followers' batches applied here belong to
        // threads parked in the queue; their contexts only see total time.
        tls_perf_context.mem_insert_nanos += LatencyClock::ToNanos(t1 - t0);
        tls_perf_context.wal_append_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t1);
      }
    }
    // Publish once, after every entry of every batch in the group is in the
    // memtable: a snapshot taken mid-group reads at the old sequence and can
    // never observe a torn batch.
    last_sequence_.store(seq, std::memory_order_release);
    if (use_wal && any_sync) {
      status = logger->AddRecordSync(std::string());
    }
    lock.lock();
  }

  // Wake the whole group.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) {
      break;
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  return status;
}

void BaselineDbBase::SlowdownWait(std::unique_lock<std::mutex>& lock) {
  // LevelDB's 1ms write-delay once the slowdown trigger is reached.
  lock.unlock();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  lock.lock();
}

// WriteThrottle adapter for the LevelDB-style variants: the caller is the
// single-writer queue head holding mutex_; sleeps release it (followers
// keep waiting on their queue CVs), and memtable rolls happen inline under
// the mutex.
class BaselineDbBase::GateClient final : public ComponentGate {
 public:
  GateClient(BaselineDbBase* db, std::unique_lock<std::mutex>& lock)
      : ComponentGate(db), db_(db), lock_(lock) {}

  void WaitForProgress() override {
    db_->maintenance_cv_.notify_one();
    db_->work_done_cv_.wait_for(lock_, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    const uint64_t t0 = MonotonicNanos();
    lock_.unlock();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    lock_.lock();
    return MonotonicNanos() - t0;
  }
  uint64_t LegacySlowdownSleep() override {
    // Virtual dispatch through the variant hook: bLSM bounds the sleep by
    // L0 pressure instead of a flat 1ms.
    const uint64_t t0 = MonotonicNanos();
    db_->SlowdownWait(lock_);
    return MonotonicNanos() - t0;
  }
  bool TryMakeRoom() override {
    db_->RollMemTableLocked();
    db_->maintenance_cv_.notify_one();
    return true;
  }

 private:
  BaselineDbBase* const db_;
  std::unique_lock<std::mutex>& lock_;
};

Status BaselineDbBase::MakeRoomForWrite(std::unique_lock<std::mutex>& lock, uint64_t bytes,
                                        bool* stalled_out) {
  GateClient client(this, lock);
  return throttle_->Gate(&client, bytes, stalled_out);
}

void BaselineDbBase::RollMemTableLocked() {
  Roll roll;
  if (PrepareRoll(&roll)) {
    engine_.listeners().NotifyMemtableRoll(InstallRoll(&roll));
  }
}

void BaselineDbBase::ClearImmutable() {
  std::lock_guard<std::mutex> l(mutex_);
  imm_.store(nullptr, std::memory_order_release);
  imm_exists_.store(false, std::memory_order_release);
}

void BaselineDbBase::MaintenanceLoop() {
  while (!shutting_down_.load(std::memory_order_acquire)) {
    const bool blocked = engine_.bg_error()->writes_blocked();
    bool need_flush = !blocked && imm_exists_.load(std::memory_order_acquire);
    bool need_compact = !blocked && engine_.NeedsCompaction();
    if (!need_flush && !need_compact) {
      std::unique_lock<std::mutex> l(maintenance_mutex_);
      maintenance_cv_.wait_for(l, std::chrono::milliseconds(2));
      continue;
    }
    if (need_flush) {
      FlushImmutable();
    }
    if (need_compact && engine_.NeedsCompaction()) {
      bool did_work = false;
      // Failures latch inside RunCompaction (kCompaction/kManifestWrite).
      engine_.CompactOnce(SmallestLiveSnapshot(), &did_work);
    }
    work_done_cv_.notify_all();
  }
}

void BaselineDbBase::RefReadComponents(MemTable** mem, MemTable** imm) {
  if (ReadersTakeMutex()) {
    // Original LevelDB: the global mutex guards the pointer fetch — reads
    // block whenever a writer or the merge holds it.
    std::lock_guard<std::mutex> l(mutex_);
    RefComponents(mem, imm);
  } else {
    // RocksDB-style: readers cache metadata without locks.
    EpochGuard guard(*engine_.epochs());
    RefComponents(mem, imm);
  }
}

Status BaselineDbBase::GetInternal(const ReadOptions& options, const Slice& key,
                                   std::string* value) {
  const SequenceNumber seq = options.snapshot != nullptr
                                 ? static_cast<const SnapshotImpl*>(options.snapshot)->timestamp()
                                 : last_sequence_.load(std::memory_order_acquire);
  LookupKey lkey(key, seq);
  MemTable* mem;
  MemTable* imm;
  RefReadComponents(&mem, &imm);
  return SearchAndUnref(options, lkey, mem, imm, value, nullptr);
}

Status BaselineDbBase::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  stats_.Bump(stats_.gets_total);
  const uint64_t t0 = StartOp();
  Status s = GetInternal(options, key, value);
  if (metrics_on_) {
    registry_.Record(OpMetric::kGet, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kGet, key, s.ok() ? value->size() : 0, ReadOutcome(s), t0,
           /*stalled=*/false);
  return s;
}

Iterator* BaselineDbBase::NewIterator(const ReadOptions& options) {
  stats_.Bump(stats_.iterators_created);
  const SequenceNumber seq = options.snapshot != nullptr
                                 ? static_cast<const SnapshotImpl*>(options.snapshot)->timestamp()
                                 : last_sequence_.load(std::memory_order_acquire);
  MemTable* mem;
  MemTable* imm;
  RefReadComponents(&mem, &imm);
  return NewIteratorAt(options, mem, imm, seq);
}

const Snapshot* BaselineDbBase::GetSnapshot() {
  // LevelDB-style: writes are serialized, so the published last sequence is
  // itself a consistent cut — no Active-set machinery needed.
  stats_.Bump(stats_.snapshots_acquired);
  std::lock_guard<std::mutex> l(mutex_);
  return snapshots_.New(last_sequence_.load(std::memory_order_acquire));
}

void BaselineDbBase::ReleaseSnapshot(const Snapshot* snapshot) { snapshots_.Release(snapshot); }

Status BaselineDbBase::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                       const RmwFunction& f, bool* performed) {
  // Coarse default: atomicity via the global mutex (writes are serialized
  // anyway). The lock-striping variant (Fig 9's baseline) overrides this.
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Bump(stats_.rmw_total);
  Status door = CheckWritable();
  if (!door.ok()) {
    return door;
  }
  const uint64_t t0 = StartOp();
  bool did_write = false;
  uint64_t written_bytes = 0;
  {
    std::lock_guard<std::mutex> l(mutex_);
    // The mutex keeps the component pointers stable and the roll from
    // retiring them mid-read.
    std::string current;
    SequenceNumber seq_found = 0;
    std::optional<Slice> cur;
    if (GetLatest(key, &current, &seq_found).ok()) {
      cur = Slice(current);
    }
    std::optional<std::string> next = f(cur);
    if (next.has_value()) {
      MemTable* mem = mem_.load(std::memory_order_acquire);
      SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed) + 1;
      mem->Add(seq, kTypeValue, key, *next);
      if (!engine_.options().disable_wal) {
        std::string record;
        EncodeWalRecord(&record, seq, kTypeValue, key, *next);
        logger_.load(std::memory_order_acquire)->AddRecordAsync(std::move(record));
      }
      last_sequence_.store(seq, std::memory_order_release);
      did_write = true;
      written_bytes = next->size();
      if (performed != nullptr) {
        *performed = true;
      }
    }
  }
  if (metrics_on_) {
    registry_.Record(OpMetric::kRmw, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kRmw, key, written_bytes,
           did_write ? OpOutcome::kOk : OpOutcome::kNotFound, t0, /*stalled=*/false);
  return Status::OK();
}

void BaselineDbBase::WaitForMaintenance() {
  while (true) {
    if (!engine_.bg_error()->ok()) {
      return;  // maintenance is wedged; nothing further to wait for
    }
    const bool busy =
        imm_exists_.load(std::memory_order_acquire) || engine_.NeedsCompaction() || MemFull();
    if (!busy) {
      return;
    }
    maintenance_cv_.notify_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace clsm
