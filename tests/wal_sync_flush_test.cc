// Regression test for the WAL-sync-swallowed-at-flush data-loss bug.
//
// The retired WAL's final drain/sync/close happens at the flush boundary
// (FlushImmutable). Before the fix, ~AsyncLogger discarded the Sync()/
// Close() status and FlushImmutable proceeded to build the table and
// delete the log regardless — an I/O error on the last chance to make the
// log durable was silently swallowed while the recovery source for the
// immutable memtable was removed. The fix routes the close status out of
// the logger, aborts the flush, and latches a hard background error
// BEFORE the memtable is flushed and the log deleted.
//
// Assertions (all of which fail against the pre-fix code):
//  1. the flush aborts and a background error latches (reason wal_sync);
//  2. the next write is rejected with the latched error;
//  3. reads, iterators and snapshots keep working (degraded read-only);
//  4. after Heal + reopen, every acked synchronous write is readable.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/baselines/factory.h"
#include "src/core/clsm_db.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class WalSyncFlushTest : public ::testing::Test {
 protected:
  WalSyncFlushTest() : dir_("walsyncflush"), fault_env_(Env::Default()) {
    options_.env = &fault_env_;
    options_.write_buffer_size = 64 * 1024;
  }

  std::unique_ptr<DB> Open(DbVariant variant, const std::string& name) {
    DB* raw = nullptr;
    Status s = OpenDb(variant, options_, dir_.path() + "/" + name, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  // Polls the background-error property until it latches (or times out).
  static std::string WaitForBgError(DB* db) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::string bg = db->GetProperty("clsm.background-error");
    while (bg == "OK" && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      bg = db->GetProperty("clsm.background-error");
    }
    return bg;
  }

  // The shared scenario, parameterized over the DB variant: ack ten
  // synchronous writes, arm a single Sync failure, then drive async churn
  // until the memtable rolls and the flush boundary tries to retire the
  // old WAL. The churn puts never sync on their own (they are async) and
  // the table build's sync comes after the WAL close, so the armed
  // failure lands exactly on the final sync of the retired log.
  void RunScenario(DbVariant variant, const std::string& name) {
    auto db = Open(variant, name);
    WriteOptions wo;
    WriteOptions sync_wo;
    sync_wo.sync = true;
    ReadOptions ro;

    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Put(sync_wo, "acked" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    db->WaitForMaintenance();

    fault_env_.FailSyncs(1);
    for (int i = 0; i < 50000; i++) {
      if (db->GetProperty("clsm.background-error") != "OK") {
        break;
      }
      if (!db->Put(wo, "churn" + std::to_string(i), std::string(64, 'c')).ok()) {
        break;
      }
    }

    // (1) The failed final sync of the retired WAL must latch, not be
    // swallowed by the flush.
    const std::string bg = WaitForBgError(db.get());
    ASSERT_NE("OK", bg) << "WAL sync failure at the flush boundary was swallowed";
    EXPECT_NE(std::string::npos, bg.find("wal_sync")) << bg;
    EXPECT_NE(std::string::npos, bg.find("hard")) << bg;

    // (2) Writes fail fast with the latched error.
    Status put_status = db->Put(wo, "rejected", "x");
    EXPECT_FALSE(put_status.ok()) << "write accepted after durability was lost";
    EXPECT_FALSE(db->Delete(wo, "acked0").ok());

    // (3) Degraded mode: reads, iterators and snapshots still serve the
    // accepted data.
    std::string v;
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Get(ro, "acked" + std::to_string(i), &v).ok()) << i;
      EXPECT_EQ("v" + std::to_string(i), v);
    }
    const Snapshot* snap = db->GetSnapshot();
    ReadOptions snap_ro;
    snap_ro.snapshot = snap;
    EXPECT_TRUE(db->Get(snap_ro, "acked0", &v).ok());
    db->ReleaseSnapshot(snap);
    {
      std::unique_ptr<Iterator> it(db->NewIterator(ro));
      it->Seek("acked0");
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ("acked0", it->key().ToString());
    }

    // (4) Heal + reopen: recovery replays the retained WALs; every acked
    // synchronous write must be readable and service fully restored.
    fault_env_.Heal();
    db.reset();
    db = Open(variant, name);
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Get(ro, "acked" + std::to_string(i), &v).ok())
          << "acked sync write lost across reopen: acked" << i;
      EXPECT_EQ("v" + std::to_string(i), v);
    }
    EXPECT_TRUE(db->Put(wo, "fresh-after-reopen", "y").ok());
    EXPECT_TRUE(db->Get(ro, "fresh-after-reopen", &v).ok());
  }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;
  Options options_;
};

TEST_F(WalSyncFlushTest, ClsmSyncFailureAtFlushLatchesBeforeLogRemoval) {
  RunScenario(DbVariant::kClsm, "clsm");
}

TEST_F(WalSyncFlushTest, BaselineSyncFailureAtFlushLatchesBeforeLogRemoval) {
  RunScenario(DbVariant::kLevelDb, "leveldb");
}

// HyperLevelDB's puts bypass the writer queue on a lock-free fast path,
// which must still fail at the door once the error is latched (step 2).
// The legacy admission policy keeps the gate off that path while level 0
// is small, and the larger memtable is still far from full when the
// churn sees the latch, so only the door check can reject the write.
TEST_F(WalSyncFlushTest, HyperLevelDbSyncFailureAtFlushLatchesBeforeLogRemoval) {
  options_.write_rate_limit_mode = WriteRateLimitMode::kLegacy;
  options_.write_buffer_size = 1 << 20;
  RunScenario(DbVariant::kHyperLevelDb, "hyperleveldb");
}

}  // namespace
}  // namespace clsm
