// ClsmDb — the paper's contribution (§3): scalable concurrency for an
// LSM data store.
//
//  * Gets never block: component pointers (Pm, P'm, Pd) are read under
//    epoch protection with per-component refcounts (§3.1).
//  * Puts run concurrently and lock-free against each other; they hold the
//    shared-exclusive lock in shared mode only to exclude the brief
//    beforeMerge/afterMerge pointer swaps (Algorithm 1).
//  * Snapshot scans are serializable multi-version reads driven by the
//    timeCounter / Active-set / snapTime protocol (Algorithm 2).
//  * Read-modify-write is atomic and non-blocking via optimistic CAS
//    insertion into the skip-list bottom level (Algorithm 3).
#ifndef CLSM_CORE_CLSM_DB_H_
#define CLSM_CORE_CLSM_DB_H_

#include <atomic>
#include <string>

#include "src/core/lsm_db_chassis.h"
#include "src/core/write_batch.h"
#include "src/sync/active_set.h"
#include "src/sync/shared_exclusive_lock.h"
#include "src/sync/time_counter.h"

namespace clsm {

class ClsmDb final : public LsmDbChassis {
 public:
  // Opens (creating or recovering) the store at dbname.
  static Status Open(const Options& options, const std::string& dbname, DB** dbptr);

  ~ClsmDb() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  const char* Name() const override { return "clsm"; }

  // Exposed for tests: the timestamp a fresh serializable scan would use.
  SequenceNumber AcquireScanTimestampForTest() { return AcquireScanTimestamp(); }

 private:
  ClsmDb(const Options& options, const std::string& dbname);

  // Chassis hooks.
  void RestoreSequence(SequenceNumber last) override;
  SequenceNumber CurrentSequence() override { return time_counter_.Get(); }
  // The shared-exclusive lock in exclusive mode: the beforeMerge /
  // afterMerge pointer swaps of Algorithm 1.
  void RunExclusive(const std::function<void()>& section) override;

  // Algorithm 2, getTS: acquire a fresh put timestamp, registered in the
  // Active set, retrying while it would invalidate a concurrent snapshot.
  SequenceNumber GetTS();

  // Algorithm 2 lines 9-14 (without installing a handle): pick a
  // serializable snapshot timestamp. With Options::linearizable_snapshots
  // the Active-set adjustment is omitted (§3.2.1), so the returned time is
  // never in the past of the call.
  SequenceNumber AcquireScanTimestamp();

  Status PutInternal(const WriteOptions& options, ValueType type, const Slice& key,
                     const Slice& value);

  // --- cLSM synchronization state ---
  SharedExclusiveLock lock_;       // "Lock" of Algorithms 1-3
  TimeCounter time_counter_;       // global timestamp source
  ActiveTimestampSet active_;      // in-flight put timestamps
  std::atomic<uint64_t> snap_time_{0};  // latest chosen snapshot timestamp
};

}  // namespace clsm

#endif  // CLSM_CORE_CLSM_DB_H_
