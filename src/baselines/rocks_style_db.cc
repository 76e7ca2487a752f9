#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// 2014-era RocksDB (paper §6): much effort went into reducing read-side
// critical sections — readers cache metadata in thread-local storage and
// avoid locks — while the write path remained a single-writer queue. We
// model the read optimization with the epoch-protected pointer loads and
// keep the base's write queue, matching the paper's observed shape: reads
// scale far past the hardware thread count (Fig 6a), writes stay flat
// (Fig 5a).
class RocksStyleDb final : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "rocksdb"; }

 protected:
  bool ReadersTakeMutex() const override { return false; }
};

}  // namespace

Status OpenRocksStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<RocksStyleDb>(options, dbname, dbptr);
}

}  // namespace clsm
