// The benchmark's workloads and the checks applied to every result.
#ifndef CLSMBENCH_WORKLOADS_H_
#define CLSMBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/db.h"
#include "src/util/status.h"

namespace clsmbench {

constexpr int kClients = 2;
// Bulk-loaded keys of the shared store (read, mixed, serve).
constexpr uint64_t kLoadKeys = 500'000;
// Key space of ingest's puts.
constexpr uint64_t kIngestKeys = 1'000'000;
// RMW counters live on their own keys, above every data key.
constexpr uint64_t kCounterKeys = 1000;
constexpr uint64_t kCounterBase = uint64_t{1} << 40;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // first failures, span file summary
};

bool IsWorkload(const std::string& name);
RunReport RunWorkload(const RunConfig& config);

// Checks results against what the benchmark wrote. Two modes:
//  * dense (the bulk-loaded store): every key in [0, num_keys) exists; a
//    value must carry its key's index, a valid checksum and either version
//    0 or a version some client thread had already issued.
//  * exact (ingest): client thread t is the only writer of the keys with
//    index % kClients == t and records the version of each completed put
//    (kBulkLoaded for a key only the bulk load wrote), so a key's expected
//    state is known exactly (0: never written, must be NotFound) to its
//    owner, and to everyone once the writers are done. A reader that does
//    not own a key only learns that it holds a version its owner issued
//    or the bulk load's if it was loaded; only a key never loaded may be
//    absent.
// `reader` is the calling client thread, or -1 when no client is writing.
// A scan taken while clients write passes kSnapshotReader: a snapshot is
// serializable, not linearizable (§3.2.1), so it may predate even the
// reader's own completed puts, and in exact mode nothing is known exactly.
class Verifier {
 public:
  static constexpr int kSnapshotReader = -2;
  static constexpr uint64_t kBulkLoaded = ~uint64_t{0};

  static Verifier Dense(uint64_t num_keys, const std::atomic<uint64_t>* issued);
  // Keys [0, loaded_keys) were bulk-loaded with version 0.
  static Verifier Exact(uint64_t num_keys, uint64_t loaded_keys,
                        const std::atomic<uint64_t>* last_version,
                        const std::atomic<uint64_t>* issued);

  // One Get of key `index` that returned status s (and value when ok).
  bool CheckGet(uint64_t index, const clsm::Status& s, const clsm::Slice& value,
                std::string* why, int reader = -1) const;
  // A range read that started at data key `start`, asked for `limit`
  // entries and returned `entries` (key, value) in order.
  bool CheckScan(uint64_t start, size_t limit,
                 const std::vector<std::pair<std::string, std::string>>& entries,
                 std::string* why, int reader = -1) const;
  // Full scan of the store with no client writing: every data key as
  // expected, and the RMW counters summing to rmw_performed (the
  // lost-update check).
  bool CheckStore(clsm::DB* db, uint64_t rmw_performed, std::string* why) const;

 private:
  Verifier() = default;
  // True when `thread` had issued `version` (its counter part) by now.
  bool Issued(int thread, uint64_t version) const;

  uint64_t num_keys_ = 0;
  uint64_t loaded_keys_ = 0;                             // exact mode
  const std::atomic<uint64_t>* issued_ = nullptr;        // per client thread
  const std::atomic<uint64_t>* last_version_ = nullptr;  // exact mode, per key
};

}  // namespace clsmbench

#endif  // CLSMBENCH_WORKLOADS_H_
