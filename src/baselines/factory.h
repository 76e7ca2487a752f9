// Uniform opener for every DB variant, used by tests, examples and the
// benchmark harness to run the same workload against all systems.
#ifndef CLSM_BASELINES_FACTORY_H_
#define CLSM_BASELINES_FACTORY_H_

#include <string>
#include <vector>

#include "src/core/db.h"

namespace clsm {

enum class DbVariant {
  kClsm,          // the paper's contribution
  kLevelDb,       // single-writer, global mutex
  kHyperLevelDb,  // fine-grained write locking
  kRocksDb,       // single-writer, lock-free reads
  kStripedRmw,    // LevelDB + lock-striping RMW baseline
};

// Human-readable id used in benchmark tables ("clsm", "leveldb", ...).
const char* VariantName(DbVariant variant);

// Parses a VariantName back; returns false on unknown names.
bool ParseVariant(const std::string& name, DbVariant* variant);

// All variants, in the order the paper's figures list them.
std::vector<DbVariant> AllVariants();

Status OpenDb(DbVariant variant, const Options& options, const std::string& dbname, DB** dbptr);

// Opens `shards` independent instances of `variant` behind the ShardedClsm
// router (src/shard/sharded_clsm.h): hash-routed keys, atomic cross-shard
// snapshot cuts, one rolled-up stats/admin surface named
// "sharded-<variant>". shards == 1 still goes through the router so the
// serving stack sees a uniform interface at every shard count.
Status OpenShardedDb(DbVariant variant, const Options& options, const std::string& dbname,
                     int shards, DB** dbptr);

// The single-machine horizontal-scaling configuration of paper §2.2, kept
// as a named variant for the benchmark tables: `partitions` instances of
// `variant` behind the ShardedClsm router, named "partitioned", with the
// write buffer and block cache divided by the partition count (static
// resource split) and member directories at dbname/partN.
Status OpenPartitionedDb(DbVariant variant, const Options& options, const std::string& dbname,
                         int partitions, DB** dbptr);

}  // namespace clsm

#endif  // CLSM_BASELINES_FACTORY_H_
