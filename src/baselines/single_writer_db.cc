#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// The base class *is* the original LevelDB architecture; this variant only
// names it.
class LevelStyleDb final : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "leveldb"; }
};

}  // namespace

Status OpenLevelStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<LevelStyleDb>(options, dbname, dbptr);
}

}  // namespace clsm
