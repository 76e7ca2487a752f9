#include "src/baselines/factory.h"

#include "src/baselines/variants.h"
#include "src/core/clsm_db.h"
#include "src/shard/sharded_clsm.h"

namespace clsm {

const char* VariantName(DbVariant variant) {
  switch (variant) {
    case DbVariant::kClsm:
      return "clsm";
    case DbVariant::kLevelDb:
      return "leveldb";
    case DbVariant::kHyperLevelDb:
      return "hyperleveldb";
    case DbVariant::kRocksDb:
      return "rocksdb";
    case DbVariant::kStripedRmw:
      return "striped-rmw";
  }
  return "unknown";
}

bool ParseVariant(const std::string& name, DbVariant* variant) {
  for (DbVariant v : AllVariants()) {
    if (name == VariantName(v)) {
      *variant = v;
      return true;
    }
  }
  return false;
}

std::vector<DbVariant> AllVariants() {
  return {DbVariant::kRocksDb, DbVariant::kLevelDb, DbVariant::kHyperLevelDb, DbVariant::kClsm,
          DbVariant::kStripedRmw};
}

Status OpenDb(DbVariant variant, const Options& options, const std::string& dbname, DB** dbptr) {
  switch (variant) {
    case DbVariant::kClsm:
      return ClsmDb::Open(options, dbname, dbptr);
    case DbVariant::kLevelDb:
      return OpenLevelStyleDb(options, dbname, dbptr);
    case DbVariant::kHyperLevelDb:
      return OpenHyperStyleDb(options, dbname, dbptr);
    case DbVariant::kRocksDb:
      return OpenRocksStyleDb(options, dbname, dbptr);
    case DbVariant::kStripedRmw:
      return OpenStripedRmwDb(options, dbname, dbptr);
  }
  return Status::InvalidArgument("unknown variant");
}

namespace {
Status OpenSharded(DbVariant variant, const Options& options, const ShardedOptions& sopt,
                   const std::string& dbname, DB** dbptr) {
  return ShardedClsm::Open(
      options, sopt, dbname,
      [variant](const Options& o, const std::string& d, DB** out) {
        return OpenDb(variant, o, d, out);
      },
      dbptr);
}
}  // namespace

Status OpenShardedDb(DbVariant variant, const Options& options, const std::string& dbname,
                     int shards, DB** dbptr) {
  ShardedOptions sopt;
  sopt.shards = shards;
  sopt.name = std::string("sharded-") + VariantName(variant);
  return OpenSharded(variant, options, sopt, dbname, dbptr);
}

Status OpenPartitionedDb(DbVariant variant, const Options& options, const std::string& dbname,
                         int partitions, DB** dbptr) {
  ShardedOptions sopt;
  sopt.shards = partitions;
  sopt.subdir_prefix = "part";  // historical on-disk layout stays reopenable
  sopt.split_resources = true;  // §2.2's static resource split
  sopt.name = "partitioned";
  return OpenSharded(variant, options, sopt, dbname, dbptr);
}

}  // namespace clsm
