// Tests of slow-op structured logging (src/obs/slow_op.h): operations
// crossing Options::slow_op_threshold_micros emit one OnSlowOperation
// record — driven here by a FaultInjectionEnv sync delay standing in for a
// degraded device — carrying latency, PerfContext phase detail and store
// state; dispatch is bounded by slow_op_max_per_sec; the bundled JSONL
// sink renders one line per record.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/slow_op.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class SlowOpCollector : public EventListener {
 public:
  void OnSlowOperation(const SlowOpInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(info);
  }

  std::vector<SlowOpInfo> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<SlowOpInfo> records_;
};

TEST(SlowOpRateLimiterTest, FixedWindowBound) {
  SlowOpRateLimiter limiter(2);
  uint64_t t = 5'000'000;  // arbitrary window
  EXPECT_TRUE(limiter.Admit(t));
  EXPECT_TRUE(limiter.Admit(t + 1));
  EXPECT_FALSE(limiter.Admit(t + 2));
  EXPECT_FALSE(limiter.Admit(t + 3));
  EXPECT_EQ(limiter.suppressed(), 2u);
  // Next one-second window: the budget refills.
  EXPECT_TRUE(limiter.Admit(t + 1'000'000));
  EXPECT_TRUE(limiter.Admit(t + 1'000'001));
  EXPECT_FALSE(limiter.Admit(t + 1'000'002));
  EXPECT_EQ(limiter.suppressed(), 3u);
}

TEST(SlowOpRateLimiterTest, ZeroMeansSuppressEverything) {
  SlowOpRateLimiter limiter(0);
  EXPECT_FALSE(limiter.Admit(1));
  EXPECT_FALSE(limiter.Admit(2'000'000));
  EXPECT_EQ(limiter.suppressed(), 2u);
}

TEST(SlowOpKeyHashTest, PrefixOnlyAndStable) {
  const uint64_t h = SlowOpKeyPrefixHash(Slice("abcdefgh"));
  EXPECT_EQ(h, SlowOpKeyPrefixHash(Slice("abcdefgh-long-suffix-differs")));
  EXPECT_NE(h, SlowOpKeyPrefixHash(Slice("abcdefgX")));
  EXPECT_NE(SlowOpKeyPrefixHash(Slice("")), 0u);  // FNV offset basis
}

class SlowOpDbTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  SlowOpDbTest() : dir_("slowop"), fault_env_(Env::Default()) {}

  std::unique_ptr<DB> OpenFresh(Options options, const std::string& tag) {
    options.env = &fault_env_;
    DB* raw = nullptr;
    Status s = OpenDb(GetParam(), options, dir_.path() + "/" + tag, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;
};

TEST_P(SlowOpDbTest, DegradedSyncDeviceFiresStructuredRecords) {
  auto collector = std::make_shared<SlowOpCollector>();
  const std::string jsonl = dir_.path() + "/slow.jsonl";
  Options options;
  options.slow_op_threshold_micros = 1000;
  options.slow_op_max_per_sec = 1000;  // effectively unbounded here
  options.perf_level = PerfLevel::kEnableTimers;
  options.listeners.push_back(collector);
  options.listeners.push_back(std::make_shared<SlowOpJsonlSink>(jsonl, &fault_env_));
  std::unique_ptr<DB> db = OpenFresh(options, "degraded");

  // Writes are fast on a healthy device: nothing crosses 1ms.
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "healthy-key", "v").ok());

  // A degraded device adds 5ms per fsync; synchronous puts now pay it
  // inside the op and must self-report.
  fault_env_.DelaySyncs(5000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  constexpr int kSlowPuts = 5;
  for (int i = 0; i < kSlowPuts; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "slow-key-" + std::to_string(i), "v").ok());
  }
  fault_env_.Heal();

  std::vector<SlowOpInfo> records = collector->Snapshot();
  ASSERT_GE(records.size(), static_cast<size_t>(kSlowPuts));
  for (const SlowOpInfo& r : records) {
    EXPECT_EQ(r.op, DbOpType::kPut);
    EXPECT_GE(r.latency_micros, 1000u);
    EXPECT_NE(r.key_prefix_hash, 0u);
    EXPECT_GE(r.l0_files, 0);
    // At kEnableTimers the snapshot explains the outlier: the WAL phase
    // (which contains the delayed sync wait) dominates.
    EXPECT_EQ(r.perf.level, PerfLevel::kEnableTimers);
    EXPECT_GE(r.perf.total_nanos, 1'000'000u);
    EXPECT_GT(r.perf.wal_append_nanos, 0u);
  }

  // Counters and the JSONL sink agree with the listener.
  const std::string stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"slow_ops_total\""), std::string::npos);
  EXPECT_EQ(stats.find("\"slow_ops_total\":0,"), std::string::npos) << stats;
  db.reset();  // close the sink's file before reading it back
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    lines++;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"op\":\"put\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"latency_micros\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"key_prefix_hash\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"perf\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, records.size());
}

TEST_P(SlowOpDbTest, RateBoundSuppressesButCounts) {
  auto collector = std::make_shared<SlowOpCollector>();
  Options options;
  options.slow_op_threshold_micros = 500;
  options.slow_op_max_per_sec = 1;  // one report per second, period
  options.listeners.push_back(collector);
  std::unique_ptr<DB> db = OpenFresh(options, "bounded");

  fault_env_.DelaySyncs(1000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  constexpr int kSlowPuts = 30;
  for (int i = 0; i < kSlowPuts; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "bounded-key-" + std::to_string(i), "v").ok());
  }
  fault_env_.Heal();

  // 30 slow ops at >= 1ms each span at most a few one-second windows:
  // reports are bounded by the window count, far under the slow-op count.
  const size_t reported = collector->Count();
  EXPECT_GE(reported, 1u);
  EXPECT_LE(reported, 10u) << "rate bound failed to hold";
  EXPECT_LT(reported, static_cast<size_t>(kSlowPuts));
  // Every slow op is counted even when its record is suppressed; the two
  // counters expose the gap the bound created.
  const std::string stats = db->GetProperty("clsm.stats.json");
  char expect_total[64];
  snprintf(expect_total, sizeof(expect_total), "\"slow_ops_total\":%d", kSlowPuts);
  EXPECT_NE(stats.find(expect_total), std::string::npos) << stats;
  char expect_reported[64];
  snprintf(expect_reported, sizeof(expect_reported), "\"slow_ops_reported\":%zu", reported);
  EXPECT_NE(stats.find(expect_reported), std::string::npos) << stats;
  // A record admitted after the bound engaged carries the cumulative
  // suppressed count (only observable when a second window opened).
  std::vector<SlowOpInfo> records = collector->Snapshot();
  if (records.size() >= 2) {
    EXPECT_GT(records.back().suppressed, 0u);
  }
}

TEST_P(SlowOpDbTest, ThresholdZeroDisablesDispatch) {
  auto collector = std::make_shared<SlowOpCollector>();
  Options options;
  options.slow_op_threshold_micros = 0;  // default: off
  options.listeners.push_back(collector);
  std::unique_ptr<DB> db = OpenFresh(options, "off");

  fault_env_.DelaySyncs(2000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "k" + std::to_string(i), "v").ok());
  }
  fault_env_.Heal();
  EXPECT_EQ(collector->Count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, SlowOpDbTest, ::testing::ValuesIn(AllVariants()),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           std::string name = VariantName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace clsm
