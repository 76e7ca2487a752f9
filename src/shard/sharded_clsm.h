// ShardedClsm: N fully independent cLSM instances behind one DB interface.
//
// The paper's scalability story (§2, Figure 1) is per-node multicore
// scaling of ONE store; the deployment story on top is horizontal: hash
// keys across N instances, each with its own WAL, memtable, compaction
// scheduler, write controller and thread-slot registry. Per-shard
// independence is the point — one hot shard's compaction debt throttles
// only that shard's writers (Luo & Carey's stability argument), and
// maintenance parallelism multiplies with the shard count.
//
// What distinguishes this layer from naive partitioning (the §2.2
// drawbacks the old PartitionedDb deliberately exhibited):
//
//  * Atomic cross-shard snapshot cut. Writers hold cut_lock_ in shared
//    mode for the duration of each write; GetSnapshot takes it exclusively
//    and collects per-shard snapshots with no write in flight. Any write
//    completed before the cut is in every member snapshot, and no write
//    issued after the cut is in any of them — so cross-shard invariants
//    (write A then B; batch {A,B}) can never be observed torn. The lock is
//    the paper's own writer-preferring SharedExclusiveLock: snapshot
//    acquisition costs N member getSnap calls under a brief exclusive
//    section, writers pay one uncontended shared acquire.
//  * Merged cross-shard iterators: hash partitioning makes per-shard key
//    sets disjoint, so a plain user-key merge yields one ordered view. An
//    iterator without an explicit snapshot acquires a composite cut and
//    releases it when the iterator is destroyed.
//  * One observability surface: per-shard stats roll up into a single
//    clsm.stats.json document (sums/averages/merged histograms plus the
//    per-shard breakdown) and one /metrics exposition where every family
//    carries a shard="i" label. The wrapper runs the only admin server;
//    member admin ports are forced off.
//
// Members open under dbname/<prefix>0..N-1 via an injected opener (the
// variant factory lives above this layer), so any DB variant shards.
#ifndef CLSM_SHARD_SHARDED_CLSM_H_
#define CLSM_SHARD_SHARDED_CLSM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/server/admin_server.h"
#include "src/server/rpc_attachment.h"
#include "src/sync/shared_exclusive_lock.h"

namespace clsm {

// Opens one member store (signature of baselines/factory.h's OpenDb with
// the variant bound). Injected so this layer stays below the factory.
using ShardOpener =
    std::function<Status(const Options& options, const std::string& dbname, DB** dbptr)>;

struct ShardedOptions {
  int shards = 1;
  // Member directories are dbname/<subdir_prefix><i>. "part" keeps the
  // on-disk layout of pre-existing PartitionedDb stores reopenable.
  std::string subdir_prefix = "shard";
  // True reproduces the static resource split of paper §2.2 (write buffer
  // and block cache divided by N — what OpenPartitionedDb configures). False
  // (default) gives every shard the configured budget, the deployment
  // posture where shards are sized individually.
  bool split_resources = false;
  // DB::Name() of the wrapper and the db="..." label of its exposition.
  std::string name = "sharded-clsm";
  // Per-member compaction policy assignment. Empty (default) leaves every
  // member on Options::compaction_policy; otherwise member i runs
  // shard_policies[i % size()] — so {kTiered} makes every shard tiered,
  // and {kTiered, kLeveled} alternates. The stats rollup renders the
  // cross-shard "compaction_policy" text as the common value or "mixed".
  std::vector<CompactionPolicyKind> shard_policies;
};

class ShardedClsm final : public DB {
 public:
  // Opens sopt.shards members under dbname/ with `opener`. The wrapper
  // owns the only admin server (options.admin_port); members run with
  // admin disabled and their own everything else.
  static Status Open(const Options& options, const ShardedOptions& sopt,
                     const std::string& dbname, const ShardOpener& opener, DB** dbptr);

  ~ShardedClsm() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  const char* Name() const override { return name_.c_str(); }
  // "clsm.stats.json" renders the cross-shard rollup document;
  // "clsm.shard-count" / "clsm.admin-port" answer for the wrapper; any
  // other property concatenates the members' answers, one line per shard.
  std::string GetProperty(const Slice& property) override;
  void ResetStats() override;
  void WaitForMaintenance() override;
  std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) override {
    return rpc_.Attach(std::move(stats), std::move(trace));
  }

  int shards() const { return static_cast<int>(shards_.size()); }
  DB* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  size_t ShardFor(const Slice& key) const;

 private:
  struct CompositeSnapshot;

  ShardedClsm(std::string name, std::vector<std::unique_ptr<DB>> shards,
              std::shared_ptr<SlowOpRingListener> rpc_slow_ring);

  Status StartAdmin(const Options& options);
  std::vector<StatsJsonSource> ShardStatsSources();

  const std::string name_;
  std::vector<std::unique_ptr<DB>> shards_;

  // The snapshot-cut lock: writes shared, cuts exclusive (see file
  // comment). Iterators and reads never take it — member snapshots carry
  // their own consistency.
  SharedExclusiveLock cut_lock_;

  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0

  // Serving-tier observability, attached late by the KvService fronting
  // this wrapper (the production topology: one service, one sharded DB).
  // The wrapper owns the slow-request ring its /slowops serves (null when
  // its admin server is off) — members keep their own engine rings
  // internal.
  RpcAttachment rpc_;
};

}  // namespace clsm

#endif  // CLSM_SHARD_SHARDED_CLSM_H_
