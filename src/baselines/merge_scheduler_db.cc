#include <chrono>
#include <thread>

#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// bLSM (paper §6): a single-writer prototype whose merge scheduler bounds
// the time a merge may block writes. We keep the base's single-writer queue
// and replace LevelDB's unbounded backpressure stalls with short, bounded
// delays proportional to how far level 0 has overshot its trigger — spring
// throttling in place of hard gates.
class BlsmStyleDb final : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "blsm"; }

 protected:
  void SlowdownWait(std::unique_lock<std::mutex>& lock) override {
    // Bounded, proportional delay: the scheduler never blocks a write for
    // longer than a few hundred microseconds at a time.
    const int l0 = engine_.NumLevelFiles(0);
    const int over = l0 - engine_.options().l0_slowdown_trigger;
    const int micros = std::min(500, 50 * std::max(1, over));
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
    lock.lock();
  }
};

}  // namespace

Status OpenBlsmStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<BlsmStyleDb>(options, dbname, dbptr);
}

}  // namespace clsm
