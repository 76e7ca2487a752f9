#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// bLSM (paper §6): a single-writer prototype whose merge scheduler bounds
// the time a merge may block writes. Its in-memory concurrency control is
// LevelDB's — the base's single-writer queue and global mutex — and its
// bounded merge stalls are the shared write controller every variant runs
// (src/lsm/write_controller.h), which models bLSM's spring-and-gear
// scheduler: delays ramp with merge debt instead of cliffing. The variant
// is kept so the figures list bLSM by name.
class BlsmStyleDb : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "blsm"; }
};

}  // namespace

Status OpenBlsmStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<BlsmStyleDb>(options, dbname, dbptr);
}

}  // namespace clsm
