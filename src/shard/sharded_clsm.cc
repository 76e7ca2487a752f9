#include "src/shard/sharded_clsm.h"

#include <algorithm>

#include "src/core/write_batch.h"
#include "src/lsm/bg_error.h"
#include "src/lsm/storage_engine.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/slow_op.h"
#include "src/obs/stats_export.h"
#include "src/table/merging_iterator.h"
#include "src/util/comparator.h"
#include "src/util/env.h"
#include "src/util/hash.h"

namespace clsm {

struct ShardedClsm::CompositeSnapshot : public Snapshot {
  // parts[i] belongs to shards_[i]; all taken inside one exclusive
  // cut_lock_ section, so together they are a single point in the global
  // write order.
  std::vector<const Snapshot*> parts;
};

namespace {

void ReleaseCompositeSnapshot(void* db, void* snapshot) {
  static_cast<ShardedClsm*>(db)->ReleaseSnapshot(static_cast<const Snapshot*>(snapshot));
}

}  // namespace

ShardedClsm::ShardedClsm(std::string name, std::vector<std::unique_ptr<DB>> shards,
                         std::shared_ptr<SlowOpRingListener> rpc_slow_ring)
    : name_(std::move(name)), shards_(std::move(shards)), rpc_(std::move(rpc_slow_ring)) {}

ShardedClsm::~ShardedClsm() {
  // The admin server's handlers walk the shards; stop it first.
  admin_.reset();
  shards_.clear();
}

Status ShardedClsm::Open(const Options& options, const ShardedOptions& sopt,
                         const std::string& dbname, const ShardOpener& opener, DB** dbptr) {
  *dbptr = nullptr;
  if (sopt.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  env->CreateDir(dbname);

  Options shard_options = options;
  // The wrapper runs the only admin server; a member admin server per
  // shard would cost N listener threads and N scrape targets.
  shard_options.admin_port = -1;
  // Likewise one periodic reporter at most — N interleaved stderr dumps
  // are noise. Benches wanting per-shard dumps configure members directly.
  shard_options.stats_dump_period_sec = 0;
  if (sopt.split_resources) {
    shard_options.write_buffer_size = std::max<size_t>(
        64 << 10, options.write_buffer_size / static_cast<size_t>(sopt.shards));
    shard_options.block_cache_size =
        options.block_cache_size / static_cast<size_t>(sopt.shards);
  }

  std::vector<std::unique_ptr<DB>> shards;
  for (int i = 0; i < sopt.shards; i++) {
    if (!sopt.shard_policies.empty()) {
      // Per-shard compaction policy (round-robin over the supplied list):
      // a write-heavy member can run tiered merging while its siblings
      // stay leveled.
      shard_options.compaction_policy =
          sopt.shard_policies[static_cast<size_t>(i) % sopt.shard_policies.size()];
    }
    DB* raw = nullptr;
    Status s = opener(shard_options, dbname + "/" + sopt.subdir_prefix + std::to_string(i), &raw);
    if (!s.ok()) {
      return s;
    }
    shards.emplace_back(raw);
  }
  auto* db = new ShardedClsm(
      sopt.name, std::move(shards),
      options.admin_port >= 0 ? std::make_shared<SlowOpRingListener>() : nullptr);
  Status s = db->StartAdmin(options);
  if (!s.ok()) {
    delete db;
    return s;
  }
  *dbptr = db;
  return Status::OK();
}

Status ShardedClsm::StartAdmin(const Options& options) {
  if (options.admin_port < 0) {
    return Status::OK();
  }
  AdminHooks hooks;
  hooks.db_name = name_;
  hooks.stats_json = [this] { return GetProperty("clsm.stats.json"); };
  hooks.metrics_text = [this] {
    std::shared_ptr<RpcServerStats> rpc = rpc_.stats();
    return BuildStatsPrometheusSharded(name_.c_str(), ShardStatsSources(), rpc.get());
  };
  // PerfContext is thread-local and process-wide; any member renders the
  // same cross-thread view.
  hooks.perf_json = [this] { return shards_[0]->GetProperty("clsm.perf.json"); };
  hooks.reset_stats = [this] { ResetStats(); };
  // /health reports degraded as soon as ANY shard latches a background
  // error; the worst severity wins the payload.
  hooks.bg_error_pick = [this]() -> const BackgroundErrorState* {
    const BackgroundErrorState* worst = nullptr;
    for (auto& shard : shards_) {
      StatsJsonSource src;
      if (!shard->FillStatsSource(&src) || src.engine == nullptr) {
        continue;
      }
      const BackgroundErrorState* bg = src.engine->bg_error();
      if (!bg->ok() && (worst == nullptr || bg->severity() > worst->severity())) {
        worst = bg;
      }
    }
    return worst;
  };
  // Per-shard slow-op rings and trace controllers stay member-internal;
  // /control/trace answers 404 on the sharded surface. /slowops serves the
  // wrapper's own ring, fed by the serving tier's slow-request records.
  rpc_.FillAdminHooks(&hooks);
  hooks.max_connections = options.admin_max_connections;
  admin_ = std::make_unique<AdminServer>(std::move(hooks));
  return admin_->Start(options.admin_bind_address, options.admin_port);
}

std::vector<StatsJsonSource> ShardedClsm::ShardStatsSources() {
  std::vector<StatsJsonSource> sources;
  sources.reserve(shards_.size());
  for (auto& shard : shards_) {
    StatsJsonSource src;
    if (shard->FillStatsSource(&src)) {
      sources.push_back(src);
    }
  }
  return sources;
}

size_t ShardedClsm::ShardFor(const Slice& key) const {
  // Same golden-ratio seed the old PartitionedDb used, so reopened "part"
  // directories keep routing the same keys to the same members.
  return Hash(key, 0x9e3779b9) % shards_.size();
}

Status ShardedClsm::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  SharedLockGuard cut(cut_lock_);
  return shards_[ShardFor(key)]->Put(options, key, value);
}

Status ShardedClsm::Delete(const WriteOptions& options, const Slice& key) {
  SharedLockGuard cut(cut_lock_);
  return shards_[ShardFor(key)]->Delete(options, key);
}

Status ShardedClsm::Write(const WriteOptions& options, WriteBatch* updates) {
  // Split by shard; each sub-batch is atomic within its member, and the
  // shared cut lock held across ALL member writes makes the whole batch
  // atomic with respect to snapshot cuts: a cut either precedes the first
  // sub-batch or follows the last.
  std::vector<WriteBatch> per_shard(shards_.size());
  for (const WriteBatch::Op& op : updates->ops()) {
    size_t s = ShardFor(op.key);
    if (op.type == kTypeDeletion) {
      per_shard[s].Delete(op.key);
    } else {
      per_shard[s].Put(op.key, op.value);
    }
  }
  Status result;
  SharedLockGuard cut(cut_lock_);
  for (size_t s = 0; s < shards_.size(); s++) {
    if (per_shard[s].Count() > 0) {
      Status st = shards_[s]->Write(options, &per_shard[s]);
      if (!st.ok() && result.ok()) {
        result = st;
      }
    }
  }
  return result;
}

Status ShardedClsm::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  size_t s = ShardFor(key);
  ReadOptions shard_options = options;
  if (options.snapshot != nullptr) {
    shard_options.snapshot = static_cast<const CompositeSnapshot*>(options.snapshot)->parts[s];
  }
  return shards_[s]->Get(shard_options, key, value);
}

Iterator* ShardedClsm::NewIterator(const ReadOptions& options) {
  // Without an explicit snapshot the scan still needs ONE view: N members
  // each defaulting to "their latest" would reintroduce the torn cut on
  // the read path. Acquire a composite cut and pin it to the iterator.
  const Snapshot* own_snapshot = nullptr;
  ReadOptions base = options;
  if (base.snapshot == nullptr) {
    own_snapshot = GetSnapshot();
    base.snapshot = own_snapshot;
  }
  const auto* composite = static_cast<const CompositeSnapshot*>(base.snapshot);
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); s++) {
    ReadOptions shard_options = base;
    shard_options.snapshot = composite->parts[s];
    children.push_back(shards_[s]->NewIterator(shard_options));
  }
  // Hash partitioning makes the children's key sets disjoint, so a plain
  // user-key merge yields one ordered view.
  Iterator* merged = NewMergingIterator(BytewiseComparator(), children.data(),
                                        static_cast<int>(children.size()));
  if (own_snapshot != nullptr) {
    merged->RegisterCleanup(&ReleaseCompositeSnapshot, this,
                            const_cast<Snapshot*>(own_snapshot));
  }
  return merged;
}

const Snapshot* ShardedClsm::GetSnapshot() {
  auto* snap = new CompositeSnapshot();
  snap->parts.reserve(shards_.size());
  // Exclusive: no write is in flight anywhere while the member snapshots
  // are collected, so they form one atomic cut (see header). Member
  // getSnap is cheap (a timestamp + Active-set scan), keeping the
  // exclusive section short.
  ExclusiveLockGuard cut(cut_lock_);
  for (auto& shard : shards_) {
    snap->parts.push_back(shard->GetSnapshot());
  }
  return snap;
}

void ShardedClsm::ReleaseSnapshot(const Snapshot* snapshot) {
  const auto* snap = static_cast<const CompositeSnapshot*>(snapshot);
  for (size_t s = 0; s < shards_.size(); s++) {
    shards_[s]->ReleaseSnapshot(snap->parts[s]);
  }
  delete snap;
}

Status ShardedClsm::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                    const RmwFunction& f, bool* performed) {
  SharedLockGuard cut(cut_lock_);
  return shards_[ShardFor(key)]->ReadModifyWrite(options, key, f, performed);
}

std::string ShardedClsm::GetProperty(const Slice& property) {
  if (property == Slice("clsm.stats.json")) {
    std::shared_ptr<RpcServerStats> rpc = rpc_.stats();
    return BuildStatsJsonSharded(name_.c_str(), ShardStatsSources(), rpc.get());
  }
  if (property == Slice("clsm.shard-count")) {
    return std::to_string(shards_.size());
  }
  if (property == Slice("clsm.admin-port")) {
    return std::to_string(admin_ != nullptr ? admin_->port() : -1);
  }
  // Everything else: the members' answers, one line per shard.
  std::string result;
  for (size_t s = 0; s < shards_.size(); s++) {
    std::string part = shards_[s]->GetProperty(property);
    if (part.empty()) {
      continue;
    }
    result += "shard" + std::to_string(s) + ": " + part;
    if (result.back() != '\n') {
      result += '\n';
    }
  }
  return result;
}

void ShardedClsm::ResetStats() {
  for (auto& shard : shards_) {
    shard->ResetStats();
  }
  rpc_.ResetStats();
}

void ShardedClsm::WaitForMaintenance() {
  for (auto& shard : shards_) {
    shard->WaitForMaintenance();
  }
}

}  // namespace clsm
