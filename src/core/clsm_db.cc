#include "src/core/clsm_db.h"

#include <algorithm>

#include "src/core/write_batch.h"
#include "src/sync/backoff.h"

namespace clsm {

Status ClsmDb::Open(const Options& options, const std::string& dbname, DB** dbptr) {
  return LsmDbChassis::Open(std::unique_ptr<LsmDbChassis>(new ClsmDb(options, dbname)), dbptr);
}

ClsmDb::ClsmDb(const Options& options, const std::string& dbname)
    : LsmDbChassis(options, dbname) {
  active_set_ = &active_;
}

ClsmDb::~ClsmDb() { StopBackgroundWork(); }

void ClsmDb::RestoreSequence(SequenceNumber last) {
  time_counter_.AdvanceTo(last);
  snap_time_.store(0, std::memory_order_relaxed);
}

void ClsmDb::RunExclusive(const std::function<void()>& section) {
  lock_.LockExclusive();
  section();
  lock_.UnlockExclusive();
}

SequenceNumber ClsmDb::GetTS() {
  // Algorithm 2, getTS: the rollback closes the Figure-4 race — if a
  // concurrent getSnap already chose a snapshot time at or after our
  // timestamp, writing at this timestamp could make the snapshot
  // inconsistent, so discard it and draw a fresh (larger) one.
  SpinBackoff backoff;
  while (true) {
    SequenceNumber ts = time_counter_.IncAndGet();
    active_.Add(ts);
    if (ts <= snap_time_.load(std::memory_order_seq_cst)) {
      active_.Remove(ts);
      stats_.Bump(stats_.getts_rollbacks);
      // Back off before redrawing: on few cores a hot rollback loop starves
      // the very scanner whose snapTime advance we are trying to clear.
      backoff.Pause();
    } else {
      return ts;
    }
  }
}

SequenceNumber ClsmDb::AcquireScanTimestamp() {
  // Algorithm 2, getSnap lines 9-14.
  SequenceNumber ts = time_counter_.Get();
  if (!engine_.options().linearizable_snapshots) {
    uint64_t tsa = active_.FindMin();
    if (tsa != ActiveTimestampSet::kNone) {
      // Exclude all in-flight puts: their writes may not be visible yet
      // (Figure 3), so the snapshot must predate them.
      ts = tsa - 1;
    }
  }
  // Linearizable mode omits the adjustment (§3.2.1): the snapshot time is
  // at least the counter value at the start of the call, and the wait loop
  // below rides out in-flight puts below it (they either complete or
  // roll back in getTS).
  // Atomically advance snapTime (never backward; concurrent getSnaps race).
  uint64_t cur = snap_time_.load(std::memory_order_seq_cst);
  while (cur < ts && !snap_time_.compare_exchange_weak(cur, ts, std::memory_order_seq_cst)) {
  }
  // Wait until every active put with a timestamp at or below snapTime
  // completes: after this loop all writes the snapshot includes (ts <=
  // snapTime) are visible. In serializable mode no active timestamp can
  // equal snapTime (it was chosen below the Active minimum), so this is the
  // paper's "findMin() < snapTime" wait; in linearizable mode the <= matters
  // — a put in flight at exactly snapTime is part of the snapshot.
  SpinBackoff backoff;
  while (true) {
    uint64_t min_active = active_.FindMin();
    if (min_active == ActiveTimestampSet::kNone ||
        min_active > snap_time_.load(std::memory_order_seq_cst)) {
      break;
    }
    // Back off between scans: the puts we are waiting on need CPU to
    // complete, and on the 1-core host a hot loop here burns the scanner's
    // whole quantum against them.
    backoff.Pause();
  }
  return snap_time_.load(std::memory_order_seq_cst);
}

Status ClsmDb::PutInternal(const WriteOptions& options, ValueType type, const Slice& key,
                           const Slice& value) {
  stats_.Bump(type == kTypeValue ? stats_.puts_total : stats_.deletes_total);
  Status door = CheckWritable();
  if (!door.ok()) {
    return door;
  }
  const uint64_t t0 = StartOp();
  const bool pt = tls_perf_context.timers_enabled();
  const DbOpType op = type == kTypeValue ? DbOpType::kPut : DbOpType::kDelete;
  bool op_stalled = false;
  Status throttle_status = Throttle(key.size() + value.size(), &op_stalled);
  if (!throttle_status.ok()) {
    FinishOp(op, key, value.size(), OpOutcome::kError, t0, op_stalled);
    return throttle_status;
  }
  // Phase boundaries: [t0, pt_a) throttle, [pt_a, t1) lock + getTS,
  // [t1, t2) memtable insert, [t2, t3) WAL append. The four segments are
  // contiguous, so their PerfContext timers sum to total_nanos (within
  // clock-read overhead) — the attribution invariant perf_context_test
  // checks.
  const uint64_t pt_a = pt ? LatencyClock::Ticks() : 0;

  // Algorithm 2, put.
  lock_.LockShared();
  SequenceNumber ts = GetTS();
  MemTable* mem = mem_.load(std::memory_order_acquire);
  const uint64_t t1 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
  mem->Add(ts, type, key, value);
  const uint64_t t2 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
  if (!engine_.options().disable_wal) {
    std::string record;
    EncodeWalRecord(&record, ts, type, key, value);
    AsyncLogger* logger = logger_.load(std::memory_order_acquire);
    if (options.sync || engine_.options().sync_logging) {
      Status s = logger->AddRecordSync(std::move(record));
      if (!s.ok()) {
        active_.Remove(ts);
        lock_.UnlockShared();
        FinishOp(op, key, value.size(), OpOutcome::kError, t0, op_stalled);
        return s;
      }
    } else {
      logger->AddRecordAsync(std::move(record));
    }
  }
  active_.Remove(ts);
  lock_.UnlockShared();
  if (metrics_on_ || pt) {
    const uint64_t t3 = LatencyClock::Ticks();
    if (metrics_on_) {
      registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t2 - t1));
      registry_.Record(OpMetric::kWalAppend, LatencyClock::ToNanos(t3 - t2));
      registry_.Record(type == kTypeValue ? OpMetric::kPut : OpMetric::kDelete,
                       LatencyClock::ToNanos(t3 - t0));
    }
    if (pt) {
      PerfContext& ctx = tls_perf_context;
      ctx.throttle_nanos += LatencyClock::ToNanos(pt_a - t0);
      ctx.lock_getts_nanos += LatencyClock::ToNanos(t1 - pt_a);
      ctx.mem_insert_nanos += LatencyClock::ToNanos(t2 - t1);
      ctx.wal_append_nanos += LatencyClock::ToNanos(t3 - t2);
    }
  }
  FinishOp(op, key, value.size(), OpOutcome::kOk, t0, op_stalled);
  return Status::OK();
}

Status ClsmDb::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  return PutInternal(options, kTypeValue, key, value);
}

Status ClsmDb::Delete(const WriteOptions& options, const Slice& key) {
  return PutInternal(options, kTypeDeletion, key, Slice());
}

Status ClsmDb::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Bump(stats_.batches_total);
  Status door = CheckWritable();
  if (!door.ok()) {
    return door;
  }
  const uint64_t t0 = StartOp();
  // Trace records carry the batch's total payload bytes in value_size (the
  // per-op key/value breakdown is not traced; replay skips kWrite records).
  const uint64_t batch_bytes = BatchBytes(*updates);
  bool op_stalled = false;
  Status throttle_status = Throttle(batch_bytes, &op_stalled);
  if (!throttle_status.ok()) {
    FinishOp(DbOpType::kWrite, Slice(), batch_bytes, OpOutcome::kError, t0, op_stalled);
    return throttle_status;
  }

  // Batches synchronize coarsely: exclusive mode excludes all puts and the
  // merge hooks, making the batch atomic with respect to snapshots (§4).
  lock_.LockExclusive();
  MemTable* mem = mem_.load(std::memory_order_acquire);
  AsyncLogger* logger = logger_.load(std::memory_order_acquire);
  SequenceNumber last_ts = 0;
  // The whole batch becomes one WAL record, so recovery replays it
  // all-or-nothing even if the crash tears the log tail.
  std::string record;
  for (const WriteBatch::Op& op : updates->ops()) {
    last_ts = time_counter_.IncAndGet();
    mem->Add(last_ts, op.type, op.key, op.value);
    if (!engine_.options().disable_wal) {
      EncodeWalRecord(&record, last_ts, op.type, op.key, op.value);
    }
  }
  Status s;
  if (!engine_.options().disable_wal && !record.empty()) {
    if (options.sync || engine_.options().sync_logging) {
      s = logger->AddRecordSync(std::move(record));
    } else {
      logger->AddRecordAsync(std::move(record));
    }
  }
  lock_.UnlockExclusive();
  FinishOp(DbOpType::kWrite, Slice(), batch_bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError,
           t0, op_stalled);
  return s;
}

Status ClsmDb::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  const uint64_t t0 = StartOp();
  SequenceNumber seq = kMaxSequenceNumber;
  if (options.snapshot != nullptr) {
    seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
  }
  LookupKey lkey(key, seq);

  // Algorithm 1, get: read the component pointers without any blocking.
  // The epoch guard covers only the pointer loads + refcount bumps; the
  // (potentially disk-bound) searches run outside any critical section.
  MemTable* mem;
  MemTable* imm;
  {
    EpochGuard guard(*engine_.epochs());
    RefComponents(&mem, &imm);
  }
  stats_.Bump(stats_.gets_total);
  Status s = SearchAndUnref(options, lkey, mem, imm, value, nullptr);
  if (metrics_on_) {
    registry_.Record(OpMetric::kGet, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kGet, key, s.ok() ? value->size() : 0, ReadOutcome(s), t0,
           /*stalled=*/false);
  return s;
}

Iterator* ClsmDb::NewIterator(const ReadOptions& options) {
  stats_.Bump(stats_.iterators_created);
  SequenceNumber seq;
  if (options.snapshot != nullptr) {
    seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
  } else {
    // Fresh serializable snapshot (not installed: the iterator protects its
    // own data by pinning the components; installation is only needed for
    // handles that outlive this call — see GetSnapshot). Acquired under the
    // shared lock, like getSnap, so the timestamp cannot land in the middle
    // of an exclusive-mode atomic batch.
    lock_.LockShared();
    seq = AcquireScanTimestamp();
    lock_.UnlockShared();
  }
  MemTable* mem;
  MemTable* imm;
  {
    EpochGuard guard(*engine_.epochs());
    RefComponents(&mem, &imm);
  }
  return NewIteratorAt(options, mem, imm, seq);
}

const Snapshot* ClsmDb::GetSnapshot() {
  // Algorithm 2, getSnap. The shared lock excludes the beforeMerge hook, so
  // installing the handle cannot race with the merge observing the list.
  stats_.Bump(stats_.snapshots_acquired);
  lock_.LockShared();
  SequenceNumber ts = AcquireScanTimestamp();
  const Snapshot* s = snapshots_.New(ts);
  lock_.UnlockShared();
  return s;
}

void ClsmDb::ReleaseSnapshot(const Snapshot* snapshot) { snapshots_.Release(snapshot); }

Status ClsmDb::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                               const RmwFunction& f, bool* performed) {
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Bump(stats_.rmw_total);
  Status door = CheckWritable();
  if (!door.ok()) {
    return door;
  }
  const uint64_t t0 = StartOp();
  bool op_stalled = false;
  Status throttle_status = Throttle(key.size(), &op_stalled);
  if (!throttle_status.ok()) {
    FinishOp(DbOpType::kRmw, key, 0, OpOutcome::kError, t0, op_stalled);
    return throttle_status;
  }

  // Algorithm 3: optimistic concurrency control. Holding the lock in shared
  // mode keeps the component pointers stable for the whole read-validate-
  // write attempt; conflicts with other writers are detected at the skip
  // list's bottom level and resolved by restarting with a fresh timestamp.
  lock_.LockShared();
  Status result;
  bool did_write = false;
  uint64_t written_bytes = 0;
  while (true) {
    std::string current;
    SequenceNumber ts_read = 0;
    std::optional<Slice> current_opt;
    if (GetLatest(key, &current, &ts_read).ok()) {
      current_opt = Slice(current);
    }
    std::optional<std::string> next = f(current_opt);
    if (!next.has_value()) {
      // User chose not to write; linearizes at the read.
      stats_.Bump(stats_.rmw_noop);
      break;
    }

    SequenceNumber tsn = GetTS();
    MemTable* mem = mem_.load(std::memory_order_acquire);
    if (mem->AddIfNoConflict(tsn, kTypeValue, key, *next, ts_read)) {
      if (!engine_.options().disable_wal) {
        std::string record;
        EncodeWalRecord(&record, tsn, kTypeValue, key, *next);
        AsyncLogger* logger = logger_.load(std::memory_order_acquire);
        if (options.sync || engine_.options().sync_logging) {
          result = logger->AddRecordSync(std::move(record));
        } else {
          logger->AddRecordAsync(std::move(record));
        }
      }
      active_.Remove(tsn);
      did_write = true;
      written_bytes = next->size();
      if (performed != nullptr) {
        *performed = true;
      }
      break;
    }
    // Conflict (Algorithm 3 lines 6/8/12): some concurrent operation
    // interfered between our read and our update. Retry; each retry implies
    // another operation made progress, preserving lock-freedom.
    stats_.Bump(stats_.rmw_conflicts);
    active_.Remove(tsn);
  }
  lock_.UnlockShared();
  if (metrics_on_) {
    registry_.Record(OpMetric::kRmw, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  // Trace outcome doubles as the replay decision: kOk means the user
  // function wrote (replay re-applies it), kNotFound means it declined.
  FinishOp(DbOpType::kRmw, key, written_bytes,
           !result.ok() ? OpOutcome::kError : (did_write ? OpOutcome::kOk : OpOutcome::kNotFound),
           t0, op_stalled);
  return result;
}

}  // namespace clsm
