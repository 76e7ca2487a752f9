#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"
#include "src/util/hash.h"

namespace clsm {

namespace {

// HyperLevelDB's key improvement over LevelDB (paper §6): fine-grained
// locking lets multiple writers insert into the memtable concurrently.
// Writers assign sequence numbers atomically and serialize only per key
// stripe; the memtable roll excludes in-flight inserts through the base's
// apply latch. The read path stays LevelDB's (brief global
// mutex), which is why this variant stops scaling on read-heavy loads.
class HyperStyleDb : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "hyperleveldb"; }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override {
    return ConcurrentWrite(options, kTypeValue, key, value);
  }

  Status Delete(const WriteOptions& options, const Slice& key) override {
    return ConcurrentWrite(options, kTypeDeletion, key, Slice());
  }

 private:
  static constexpr int kStripes = 16;

  // Bypasses the base's writer queue, so it runs the chassis op prologue
  // and epilogue itself.
  Status ConcurrentWrite(const WriteOptions& options, ValueType type, const Slice& key,
                         const Slice& value) {
    stats_.Bump(type == kTypeValue ? stats_.puts_total : stats_.deletes_total);
    Status s = CheckWritable();
    if (!s.ok()) {
      return s;
    }
    const uint64_t t0 = StartOp();
    bool stalled = false;
    // Slow path only when backpressure may apply (a full memtable, or the
    // controller throttled or due to resample its debt): take the global
    // mutex and run the admission gate.
    if (MemFull() || throttle_->GateLikelyNeeded()) {
      std::unique_lock<std::mutex> l(mutex_);
      s = Throttle(key.size() + value.size(), &stalled, &l);
    }
    if (s.ok()) {
      s = Insert(options, type, key, value);
    }
    if (metrics_on_) {
      registry_.Record(type == kTypeValue ? OpMetric::kPut : OpMetric::kDelete,
                       LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
    }
    FinishOp(type == kTypeValue ? DbOpType::kPut : DbOpType::kDelete, key, value.size(),
             s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0, stalled);
    return s;
  }

  // Fast path: concurrent insert under the apply latch + key stripe.
  Status Insert(const WriteOptions& options, ValueType type, const Slice& key,
                const Slice& value) {
    std::shared_lock<std::shared_mutex> applying(apply_latch_);
    MemTable* mem = mem_.load(std::memory_order_acquire);
    SequenceNumber seq = last_sequence_.fetch_add(1, std::memory_order_acq_rel) + 1;
    const bool pt = tls_perf_context.timers_enabled();
    const bool timed = metrics_on_ || pt;
    const uint64_t t1 = timed ? LatencyClock::Ticks() : 0;
    {
      std::lock_guard<std::mutex> stripe(stripes_[Hash(key) % kStripes]);
      mem->Add(seq, type, key, value);
    }
    const uint64_t t2 = timed ? LatencyClock::Ticks() : 0;
    Status s;
    if (!engine_.options().disable_wal) {
      std::string record;
      EncodeWalRecord(&record, seq, type, key, value);
      AsyncLogger* logger = logger_.load(std::memory_order_acquire);
      if (options.sync || engine_.options().sync_logging) {
        s = logger->AddRecordSync(std::move(record));
      } else {
        logger->AddRecordAsync(std::move(record));
      }
    }
    if (timed) {
      const uint64_t t3 = LatencyClock::Ticks();
      if (metrics_on_) {
        registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t2 - t1));
        registry_.Record(OpMetric::kWalAppend, LatencyClock::ToNanos(t3 - t2));
      }
      if (pt) {
        tls_perf_context.mem_insert_nanos += LatencyClock::ToNanos(t2 - t1);
        tls_perf_context.wal_append_nanos += LatencyClock::ToNanos(t3 - t2);
      }
    }
    return s;
  }

  std::mutex stripes_[kStripes];
};

}  // namespace

Status OpenHyperStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<HyperStyleDb>(options, dbname, dbptr);
}

}  // namespace clsm
