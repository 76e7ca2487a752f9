// The competitor concurrency architectures the paper evaluates against
// (§5): LevelDB, HyperLevelDB and RocksDB. bLSM needs no variant of its
// own: its in-memory concurrency control is LevelDB's, and its merge
// scheduling is the write controller every variant shares
// (src/lsm/write_controller.h). Every variant runs on the
// same LsmDbChassis as cLSM (src/core/lsm_db_chassis.h) — disk component,
// recovery, flushing, observability — so benchmark differences isolate
// the in-memory synchronization design, the paper's variable under test.
//
// The base implements the original LevelDB architecture faithfully:
//  * a global mutex protects critical sections at the beginning and end of
//    each read and write;
//  * writes are funneled through a single-writer queue with group commit;
//  * snapshots are a bare sequence read under the mutex (no Active set —
//    safe because writes are serialized).
// Maintenance is the chassis' for every variant: the roll/flush thread
// enters the exclusive section (RunExclusive) to swap the memtables.
// Subclasses override hooks to model each competitor's deviation.
#ifndef CLSM_BASELINES_BASELINE_DB_H_
#define CLSM_BASELINES_BASELINE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/core/lsm_db_chassis.h"
#include "src/core/write_batch.h"

namespace clsm {

class BaselineDbBase : public LsmDbChassis {
 public:
  BaselineDbBase(const Options& options, const std::string& dbname)
      : LsmDbChassis(options, dbname) {}

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;

 protected:
  // --- variant hooks ---
  // True: readers take the global mutex briefly (LevelDB, HyperLevelDB).
  // False: readers use epoch-protected pointer loads (RocksDB's thread-
  // local metadata caching, which avoids locks on the read path).
  virtual bool ReadersTakeMutex() const { return true; }

  // --- shared machinery ---
  struct Writer {
    explicit Writer(WriteBatch* b, bool s) : batch(b), sync(s) {}
    WriteBatch* batch;
    bool sync;
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  // One write op through the queue, inside the chassis prologue and
  // epilogue: door check, timing, latency series (kPut / kDelete; none for
  // batches) and FinishOp.
  Status QueuedWrite(DbOpType op, const WriteOptions& options, WriteBatch* batch,
                     const Slice& key, uint64_t bytes);
  // stalled_out (when non-null) is set to true if this writer, as queue
  // head, waited in the admission gate. Only queue heads pass the gate,
  // charging their own batch's bytes; followers in the group-commit queue
  // report false: their queue wait is ordinary contention, not
  // backpressure.
  Status WriteLocked(const WriteOptions& options, WriteBatch* updates,
                     bool* stalled_out = nullptr);
  // Loads and references Pm/P'm under the variant's read protection.
  void RefReadComponents(MemTable** mem, MemTable** imm);
  // Read at the last published sequence (or options.snapshot) without the
  // op prologue/epilogue.
  Status GetInternal(const ReadOptions& options, const Slice& key, std::string* value);

  // Chassis hooks.
  void RestoreSequence(SequenceNumber last) override { last_sequence_.store(last); }
  SequenceNumber CurrentSequence() override {
    return last_sequence_.load(std::memory_order_acquire);
  }
  // mutex_, then the apply latch in exclusive mode.
  void RunExclusive(const std::function<void()>& section) override;

  std::mutex mutex_;  // LevelDB's global lock
  // Held shared by every memtable insert made outside mutex_ (the queue
  // head's group apply, HyperLevelDB's concurrent inserts) so that the
  // exclusive section cannot retire the memtable and its WAL under them.
  // Taken after mutex_ when both are needed.
  std::shared_mutex apply_latch_;
  std::atomic<SequenceNumber> last_sequence_{0};
  std::deque<Writer*> writers_;  // guarded by mutex_
};

// Opens a baseline variant T (constructible from Options and dbname).
template <typename T>
Status OpenBaseline(const Options& options, const std::string& dbname, DB** dbptr) {
  // The most-derived destructor stops the background threads, before any
  // base destructor rewrites the vtable pointer they call hooks through.
  class Db final : public T {
   public:
    using T::T;
    ~Db() override { this->StopBackgroundWork(); }
  };
  return LsmDbChassis::Open(std::make_unique<Db>(options, dbname), dbptr);
}

}  // namespace clsm

#endif  // CLSM_BASELINES_BASELINE_DB_H_
