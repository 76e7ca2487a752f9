#include <mutex>

#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"
#include "src/util/hash.h"

namespace clsm {

namespace {

// The Fig 9 baseline: LevelDB augmented with a textbook read-modify-write
// built on lock striping (Gray & Reuter). Every write and RMW holds an
// exclusive granular lock for its key's stripe; reads are unchanged. The
// paper measures cLSM's optimistic RMW at ~2.5x this design.
class StripedRmwDb : public BaselineDbBase {
 public:
  using BaselineDbBase::BaselineDbBase;

  const char* Name() const override { return "leveldb-striped-rmw"; }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override {
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    return BaselineDbBase::Put(options, key, value);
  }

  Status Delete(const WriteOptions& options, const Slice& key) override {
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    return BaselineDbBase::Delete(options, key);
  }

  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override {
    if (performed != nullptr) {
      *performed = false;
    }
    stats_.Bump(stats_.rmw_total);
    Status s = CheckWritable();
    if (!s.ok()) {
      return s;
    }
    const uint64_t t0 = StartOp();
    bool stalled = false;
    bool did_write = false;
    uint64_t written_bytes = 0;
    {
      // Read-compute-write is atomic for this key because every writer of
      // the key serializes on the same stripe.
      std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
      std::string current;
      s = GetInternal(ReadOptions(), key, &current);
      std::optional<Slice> cur;
      if (s.ok()) {
        cur = Slice(current);
      }
      if (s.ok() || s.IsNotFound()) {
        s = Status::OK();
        std::optional<std::string> next = f(cur);
        if (next.has_value()) {
          WriteBatch batch;
          batch.Put(key, *next);
          s = WriteLocked(options, &batch, &stalled);
          if (s.ok()) {
            did_write = true;
            written_bytes = next->size();
            if (performed != nullptr) {
              *performed = true;
            }
          }
        }
      }
    }
    if (metrics_on_) {
      registry_.Record(OpMetric::kRmw, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
    }
    // Same trace outcome contract as the other variants: kOk when the
    // function wrote, kNotFound when it declined.
    FinishOp(DbOpType::kRmw, key, written_bytes,
             !s.ok() ? OpOutcome::kError : (did_write ? OpOutcome::kOk : OpOutcome::kNotFound),
             t0, stalled);
    return s;
  }

 private:
  static constexpr int kStripes = 256;

  size_t StripeFor(const Slice& key) const { return Hash(key) % kStripes; }

  std::mutex stripes_[kStripes];
};

}  // namespace

Status OpenStripedRmwDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return OpenBaseline<StripedRmwDb>(options, dbname, dbptr);
}

}  // namespace clsm
