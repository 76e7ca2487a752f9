#include "clsmbench/src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "clsmbench/src/latency_hist.h"
#include "clsmbench/src/memfd_env.h"
#include "clsmbench/src/tracing.h"
#include "clsmbench/src/value_codec.h"
#include "src/baselines/factory.h"
#include "src/obs/perf_context.h"
#include "src/obs/rpc_stats.h"
#include "src/server/kv_client.h"
#include "src/server/kv_service.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace clsmbench {

// ---------------------------------------------------------------- Verifier

Verifier Verifier::Dense(uint64_t num_keys, const std::atomic<uint64_t>* issued) {
  Verifier v;
  v.num_keys_ = num_keys;
  v.issued_ = issued;
  return v;
}

Verifier Verifier::Exact(uint64_t num_keys, uint64_t loaded_keys,
                         const std::atomic<uint64_t>* last_version,
                         const std::atomic<uint64_t>* issued) {
  Verifier v;
  v.num_keys_ = num_keys;
  v.loaded_keys_ = loaded_keys;
  v.last_version_ = last_version;
  v.issued_ = issued;
  return v;
}

bool Verifier::Issued(int thread, uint64_t version) const {
  if (version >> kVersionThreadShift != static_cast<uint64_t>(thread) + 1) return false;
  const uint64_t n = version & ((uint64_t{1} << kVersionThreadShift) - 1);
  return n >= 1 && n <= issued_[thread].load(std::memory_order_acquire);
}

bool Verifier::CheckGet(uint64_t index, const clsm::Status& s, const clsm::Slice& value,
                        std::string* why, int reader) const {
  auto fail = [&](const std::string& what) {
    *why = "key " + std::to_string(index) + ": " + what;
    return false;
  };
  // Exact mode knows the state of every key once writers are quiet, and
  // of its own keys for the writer that owns them; a key another thread
  // may be writing right now is only known to hold a version it issued.
  const int owner = static_cast<int>(index % kClients);
  const bool exact =
      last_version_ != nullptr && index < num_keys_ && (reader == -1 || reader == owner);
  const bool loose = last_version_ != nullptr && !exact;
  const uint64_t want = exact ? last_version_[index].load(std::memory_order_relaxed) : 0;
  // Bulk-loaded keys are never deleted, so every reader expects them.
  const bool expected = index < num_keys_ && (last_version_ == nullptr || want != 0 ||
                                              (loose && index < loaded_keys_));
  if (s.IsNotFound()) return !expected || fail("NotFound for a written key");
  if (!s.ok()) return fail(s.ToString());
  if (!expected && !(loose && index < num_keys_)) return fail("found a key that was never written");
  DecodedValue d;
  if (!CheckValue(value, index, &d)) return fail("value fails its key or checksum check");
  bool ok;
  if (exact) {
    ok = d.version == (want == kBulkLoaded ? 0 : want);
  } else if (loose) {
    ok = Issued(owner, d.version) || (d.version == 0 && index < loaded_keys_);
  } else {
    ok = d.version == 0;
    for (int t = 0; t < kClients && !ok; t++) ok = Issued(t, d.version);
  }
  if (ok) return true;
  return fail("version " + std::to_string(d.version) +
              (exact ? ", last written " + std::to_string(want) : " was never written"));
}

namespace {

// Walks a key-ordered stream of entries starting at data key `start`:
// data keys must be exactly the expected ones, in order, with valid
// values; counter keys (above every data key) are summed.
class RangeChecker {
 public:
  RangeChecker(const Verifier& v, uint64_t start, uint64_t num_keys, int reader)
      : v_(v), next_(start), num_keys_(num_keys), reader_(reader) {}

  bool Entry(const clsm::Slice& k, const clsm::Slice& value, std::string* why) {
    const uint64_t idx = DecodeKeyIndex(k);
    if (idx >= kCounterBase && idx < kCounterBase + kCounterKeys) {
      in_counters_ = true;
      if (value.size() != 8) {
        *why = "counter " + std::to_string(idx - kCounterBase) + ": malformed value";
        return false;
      }
      uint64_t c;
      std::memcpy(&c, value.data(), 8);
      counter_sum_ += c;
      return true;
    }
    if (in_counters_ || idx >= num_keys_ || idx < next_) {
      *why = "unexpected key " + std::to_string(idx) + " in a range read";
      return false;
    }
    if (!Gap(idx, why)) return false;
    if (!v_.CheckGet(idx, clsm::Status::OK(), value, why, reader_)) return false;
    next_ = idx + 1;
    return true;
  }

  // The stream ended before its limit: no expected data key may remain.
  bool Exhausted(std::string* why) { return Gap(num_keys_, why); }
  bool reached_counters() const { return in_counters_; }
  uint64_t counter_sum() const { return counter_sum_; }

 private:
  // Keys in [next_, end) were skipped; none of them may exist.
  bool Gap(uint64_t end, std::string* why) {
    for (uint64_t j = next_; j < end; j++) {
      if (v_.CheckGet(j, clsm::Status::NotFound(""), clsm::Slice(), why, reader_)) continue;
      *why = "range read skipped key " + std::to_string(j);
      return false;
    }
    next_ = std::max(next_, end);
    return true;
  }

  const Verifier& v_;
  uint64_t next_;
  const uint64_t num_keys_;
  const int reader_;
  bool in_counters_ = false;
  uint64_t counter_sum_ = 0;
};

}  // namespace

bool Verifier::CheckScan(uint64_t start, size_t limit,
                         const std::vector<std::pair<std::string, std::string>>& entries,
                         std::string* why, int reader) const {
  if (entries.size() > limit) {
    *why = "range read returned more entries than asked for";
    return false;
  }
  RangeChecker rc(*this, start, num_keys_, reader);
  size_t n = 0;
  for (const auto& [k, v] : entries) {
    if (!rc.Entry(k, v, why)) return false;
    if (rc.reached_counters()) break;
    n++;
  }
  return n == limit || rc.Exhausted(why);
}

bool Verifier::CheckStore(clsm::DB* db, uint64_t rmw_performed, std::string* why) const {
  RangeChecker rc(*this, 0, num_keys_, -1);
  std::unique_ptr<clsm::Iterator> it(db->NewIterator(clsm::ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (!rc.Entry(it->key(), it->value(), why)) return false;
  }
  if (!it->status().ok()) {
    *why = "full scan: " + it->status().ToString();
    return false;
  }
  if (!rc.Exhausted(why)) return false;
  if (rc.counter_sum() != rmw_performed) {
    *why = "RMW counters sum to " + std::to_string(rc.counter_sum()) + " after " +
           std::to_string(rmw_performed) + " increments (lost update)";
    return false;
  }
  return true;
}

// --------------------------------------------------------------- workloads

namespace {

enum OpType : int { kOpGet = 0, kOpPut, kOpScan, kOpRmw, kNumOps };

struct WorkloadSpec {
  const char* name;
  double mix[kNumOps];  // share of each op type in the timed phase
  bool ingest;          // puts uniform over kIngestKeys (twice the loaded keys),
                        // each key written by one client thread only
  bool served;          // through KvService over loopback TCP
  // The timed phase runs a fixed count of seconds × ops_per_second
  // operations, so both sides of a comparison do the same work and the
  // same number of flush and compaction cycles; a faster engine finishes
  // sooner. This is a work size, not a target rate.
  uint64_t ops_per_second;
};

constexpr WorkloadSpec kSpecs[] = {
    {"ingest", {0.01, 0.97, 0.01, 0.01}, true, false, 250'000},
    {"read", {1, 0, 0, 0}, false, false, 400'000},
    {"mixed", {0.45, 0.45, 0.05, 0.05}, false, false, 200'000},
    {"serve", {0.5, 0.5, 0, 0}, false, true, 60'000},
};

// setup_s is the median of this many builds of the store (odd, so the
// median is one build's time).
constexpr int kSetupBuilds = 3;

// Per client thread: op types missing from a workload's mix are measured
// after its timed phase in a probe of this many operations, so that every
// workload reports a latency for every op type. Ingest instead carries 1%
// each of Gets, scans and RMWs in its mix: the store an ingest leaves
// differs from run to run in shape, so reads probed on it after the run
// spread 20-30% across seeds, while reads spread over the timed phase see
// the whole flush and compaction cycle.
constexpr uint64_t kProbeOps[kNumOps] = {50'000, 4'000, 20'000, 10'000};
// Put and RMW probes are repeated, each time on a freshly reopened store,
// so their tails rest on enough samples while every repetition stays well
// inside one 4 MiB memtable.
constexpr int kProbeRepeats[kNumOps] = {1, 12, 1, 10};
// Latency percentiles are taken per window: each phase is cut into windows
// by operation index, and a metric is the median over its windows of the
// percentile within each. A burst of host noise then moves one or two
// windows, not the metric; the pooled p99 of a short probe moved up to 75%
// between runs that way. The timed phase and an unrepeated probe have
// kWindows windows. A repeated probe has one window per repetition: each
// repetition starts on an empty memtable, and since a skiplist insert
// walks the upper levels from the head, its later operations are slower
// than its first, so only the whole repetition is a like-for-like window.
constexpr int kWindows = 10;
constexpr uint64_t kSampleEvery = 32;  // traced runs: one op span per this many ops
constexpr int kShards = 4;             // clsm_server's default shard count
constexpr double kZipfTheta = 0.99;
constexpr char kStoreName[] = "clsmbench-db";  // a name inside the Pass's MemFdEnv
constexpr size_t kOpSpanCapacity = 400'000;
constexpr size_t kBackgroundSpanCapacity = 400'000;

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t RmwConflicts(clsm::DB* db) {
  const std::string json = db->GetProperty("clsm.stats.json");
  const size_t at = json.find("\"rmw_conflicts\"");
  if (at == std::string::npos) return 0;
  const size_t colon = json.find(':', at);
  return colon == std::string::npos ? 0 : std::strtoull(json.c_str() + colon + 1, nullptr, 10);
}

// One RMW: adds 1 to the 8-byte counter at key (absent counts as 0).
clsm::Status IncrementCounter(clsm::DB* db, const clsm::Slice& key) {
  bool malformed = false;
  const clsm::RmwFunction increment =
      [&malformed](const std::optional<clsm::Slice>& cur) -> std::optional<std::string> {
    uint64_t c = 0;
    if (cur.has_value()) {
      if (cur->size() != 8) {
        malformed = true;
        return std::nullopt;
      }
      std::memcpy(&c, cur->data(), 8);
    }
    c++;
    std::string out(8, '\0');
    std::memcpy(out.data(), &c, 8);
    return out;
  };
  bool performed = false;
  const clsm::Status s = db->ReadModifyWrite(clsm::WriteOptions(), key, increment, &performed);
  if (s.ok() && (malformed || !performed)) return clsm::Status::Corruption("counter value malformed");
  return s;
}

// Level-0 files of the store, summed over shards ("clsm.levels" reads
// "files[<L0> <L1> ...]", once per shard).
int Level0Files(clsm::DB* db) {
  const std::string levels = db->GetProperty("clsm.levels");
  int sum = 0;
  for (size_t at = levels.find("files["); at != std::string::npos;
       at = levels.find("files[", at + 1)) {
    sum += std::atoi(levels.c_str() + at + 6);
  }
  return sum;
}

// Per-call PerfContext sums of one client thread (traced runs).
struct PerfSums {
  uint64_t puts = 0, gets = 0;
  uint64_t mem_insert_ns = 0, lock_getts_ns = 0, shared_lock_wait_ns = 0, wal_append_ns = 0,
           throttle_ns = 0;
  uint64_t mem_search_ns = 0, disk_search_ns = 0, search_nodes = 0, tables_probed = 0,
           block_reads = 0, cache_hits = 0, bloom_skips = 0, env_read_ns = 0;
  uint64_t iter_creates = 0, iter_create_ns = 0, nexts = 0, next_ns = 0;

  void Merge(const PerfSums& o) {
    puts += o.puts;
    gets += o.gets;
    mem_insert_ns += o.mem_insert_ns;
    lock_getts_ns += o.lock_getts_ns;
    shared_lock_wait_ns += o.shared_lock_wait_ns;
    wal_append_ns += o.wal_append_ns;
    throttle_ns += o.throttle_ns;
    mem_search_ns += o.mem_search_ns;
    disk_search_ns += o.disk_search_ns;
    search_nodes += o.search_nodes;
    tables_probed += o.tables_probed;
    block_reads += o.block_reads;
    cache_hits += o.cache_hits;
    bloom_skips += o.bloom_skips;
    env_read_ns += o.env_read_ns;
    iter_creates += o.iter_creates;
    iter_create_ns += o.iter_create_ns;
    nexts += o.nexts;
    next_ns += o.next_ns;
  }
};

struct ThreadStats {
  LatencyHist hist[kWindows][kNumOps];  // by window of the phase, op type
  uint64_t ops = 0;
  uint64_t failures = 0;
  uint64_t rmw_performed = 0;
  uint64_t user_bytes = 0;  // key + value bytes put
  std::string first_failure;
  PerfSums perf;
  clsm::Histogram rtt_us;  // serve: KvClient's own Get/Put round trips

  void Merge(const ThreadStats& o) {
    for (int w = 0; w < kWindows; w++) {
      for (int i = 0; i < kNumOps; i++) hist[w][i].Merge(o.hist[w][i]);
    }
    ops += o.ops;
    failures += o.failures;
    rmw_performed += o.rmw_performed;
    user_bytes += o.user_bytes;
    if (first_failure.empty()) first_failure = o.first_failure;
    perf.Merge(o.perf);
    rtt_us.Merge(o.rtt_us);
  }
};

struct PhaseResult {
  double elapsed_s = 0;
  double cpu_s = 0;
  ThreadStats stats;
};

// One pass over a workload: its own store, Env wrapper and listener.
class Pass {
 public:
  Pass(const WorkloadSpec& spec, const RunConfig& cfg, bool traced)
      : spec_(spec),
        cfg_(cfg),
        traced_(traced),
        spans_(traced ? std::make_unique<SpanRecorder>(kOpSpanCapacity, kBackgroundSpanCapacity)
                      : nullptr),
        env_(&store_env_, spans_.get()),
        listener_(std::make_shared<BenchListener>(spans_.get())),
        num_keys_(spec.ingest ? kIngestKeys : kLoadKeys),
        last_version_(spec.ingest ? new std::atomic<uint64_t>[num_keys_]() : nullptr),
        verifier_(spec.ingest ? Verifier::Exact(num_keys_, kLoadKeys, last_version_.get(), issued_)
                              : Verifier::Dense(num_keys_, issued_)) {
    for (uint64_t i = 0; spec.ingest && i < kLoadKeys; i++) last_version_[i] = Verifier::kBulkLoaded;
  }
  ~Pass() { CloseStore(); }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  // Builds the store `builds` times (keeping the last) and returns the
  // median build time in seconds.
  bool Setup(int builds, double* setup_s);
  PhaseResult RunPhase(const double mix[kNumOps], uint64_t ops_per_thread, uint64_t seed,
                       bool timed, int windows);
  bool OpenStore(bool load);
  void CloseStore();
  bool VerifyStore();
  void NoteFailure(const std::string& why);

  const WorkloadSpec& spec_;
  const RunConfig& cfg_;
  const bool traced_;
  std::unique_ptr<SpanRecorder> spans_;
  MemFdEnv store_env_;
  BenchEnv env_;
  std::shared_ptr<BenchListener> listener_;
  const uint64_t num_keys_;
  std::atomic<uint64_t> issued_[kClients] = {};
  // ingest: version of each key's last completed put, written only by the
  // key's owner thread (index % kClients).
  std::unique_ptr<std::atomic<uint64_t>[]> last_version_;
  const Verifier verifier_;
  clsm::DB* db_ = nullptr;
  std::unique_ptr<clsm::KvService> service_;
  uint64_t rmw_performed_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;

 private:
  void ClientLoop(int t, const double* mix, uint64_t n, uint64_t seed, bool timed, int windows,
                  std::atomic<int>* ready, const std::atomic<bool>* go, ThreadStats* st);
};

void Pass::NoteFailure(const std::string& why) {
  failed_++;
  if (notes_.size() < 8) notes_.push_back(why);
}

void Pass::CloseStore() {
  if (service_ != nullptr) service_->Stop();
  service_.reset();
  delete db_;
  db_ = nullptr;
}

// Opens the store (empty or as left by an earlier open) and, for the
// served workload, starts the service on it; with load, bulk-loads the
// shared store first.
bool Pass::OpenStore(bool load) {
  clsm::Options options;
  options.env = &env_;
  options.listeners = {listener_};
  if (traced_) options.perf_level = clsm::PerfLevel::kEnableTimers;
  clsm::Status s =
      spec_.served ? clsm::OpenShardedDb(clsm::DbVariant::kClsm, options, kStoreName, kShards, &db_)
                   : clsm::OpenDb(clsm::DbVariant::kClsm, options, kStoreName, &db_);
  if (!s.ok()) {
    NoteFailure("open: " + s.ToString());
    return false;
  }
  if (load) {
    std::string key;
    char value[kValueSize];
    const clsm::WriteOptions wo;
    for (uint64_t i = 0; i < kLoadKeys; i++) {
      clsm::EncodeWorkloadKey(i, kKeySize, &key);
      EncodeValue(i, 0, value);
      s = db_->Put(wo, key, clsm::Slice(value, kValueSize));
      if (!s.ok()) {
        NoteFailure("load: " + s.ToString());
        return false;
      }
    }
  }
  db_->WaitForMaintenance();
  if (spec_.served) {
    service_ = std::make_unique<clsm::KvService>(db_);
    s = service_->Start("127.0.0.1", 0);
    if (!s.ok()) {
      NoteFailure("serve: " + s.ToString());
      return false;
    }
  }
  return true;
}

bool Pass::Setup(int builds, double* setup_s) {
  std::vector<double> times;
  for (int r = 0; r < builds; r++) {
    CloseStore();
    store_env_.RemoveTree(kStoreName);
    const uint64_t t0 = NowNanos();
    if (!OpenStore(true)) return false;
    times.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  std::sort(times.begin(), times.end());
  *setup_s = times[times.size() / 2];
  return true;
}

void Pass::ClientLoop(int t, const double* mix, uint64_t n, uint64_t seed, bool timed,
                      int windows, std::atomic<int>* ready, const std::atomic<bool>* go,
                      ThreadStats* st) {
  clsm::Random64 rnd(seed);
  clsm::ZipfianGenerator keys(num_keys_, kZipfTheta, seed ^ 0x6a09e667f3bcc909ull);
  clsm::ZipfianGenerator counters(kCounterKeys, kZipfTheta, seed ^ 0xbb67ae8584caa73bull);
  clsm::KvClient wire;
  const bool over_wire = spec_.served;
  if (over_wire) {
    const clsm::Status s = wire.Connect("127.0.0.1", service_->port());
    if (!s.ok()) {
      st->failures++;
      st->first_failure = "connect: " + s.ToString();
    }
  }
  double cut[kNumOps];
  double acc = 0;
  for (int i = 0; i < kNumOps; i++) cut[i] = (acc += mix[i]);

  const bool trace = traced_ && timed;
  const clsm::ReadOptions ro;
  const clsm::WriteOptions wo;
  std::string key, got, why;
  char value[kValueSize];
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t version_seq = issued_[t].load(std::memory_order_relaxed);

  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();

  for (uint64_t i = 0; i < n; i++) {
    const double u = rnd.NextDouble();
    int op = 0;
    while (op < kNumOps - 1 && u >= cut[op]) op++;
    uint64_t idx;
    if (op == kOpRmw) {
      idx = kCounterBase + counters.Next();
    } else if (op == kOpPut && spec_.ingest) {
      // Client t owns the keys with index % kClients == t.
      idx = kClients * rnd.Uniform(kIngestKeys / kClients) + static_cast<uint64_t>(t);
    } else {
      idx = keys.Next();
    }
    clsm::EncodeWorkloadKey(idx, kKeySize, &key);

    // A sampled operation's span covers the engine call only, the same
    // interval as its latency, not the encoding or checking around it.
    const bool sample = trace && i % kSampleEvery == 0;
    const uint32_t span = kSpanGet + static_cast<uint32_t>(op);
    auto start = [&] {
      if (sample) spans_->Open(span, (static_cast<uint64_t>(t + 1) << 40) | i);
      return NowNanos();
    };
    auto stop = [&] {
      const uint64_t now = NowNanos();
      if (sample) spans_->Close(span);
      return now;
    };
    const uint64_t env_read0 = trace ? ThreadEnvReadNanos() : 0;
    bool ok = true;
    uint64_t t0 = 0, t1 = 0;
    switch (op) {
      case kOpGet: {
        t0 = start();
        const clsm::Status s = over_wire ? wire.Get(key, &got) : db_->Get(ro, key, &got);
        t1 = stop();
        ok = verifier_.CheckGet(idx, s, got, &why, t);
        break;
      }
      case kOpPut: {
        const uint64_t version = MakeVersion(t, ++version_seq);
        issued_[t].store(version_seq, std::memory_order_release);
        EncodeValue(idx, version, value);
        const clsm::Slice v(value, kValueSize);
        t0 = start();
        const clsm::Status s = over_wire ? wire.Put(key, v.ToString()) : db_->Put(wo, key, v);
        t1 = stop();
        ok = s.ok();
        if (!ok) why = "put: " + s.ToString();
        if (ok && spec_.ingest) last_version_[idx].store(version, std::memory_order_relaxed);
        st->user_bytes += kEntryBytes;
        break;
      }
      case kOpScan: {
        const size_t limit = 10 + rnd.Uniform(11);
        entries.clear();
        clsm::Status s;
        t0 = start();
        if (over_wire) {
          s = wire.Scan(key, "", static_cast<uint32_t>(limit), 0, &entries);
        } else {
          std::unique_ptr<clsm::Iterator> it(db_->NewIterator(ro));
          if (trace) {
            st->perf.iter_creates++;
            st->perf.iter_create_ns += NowNanos() - t0;
          }
          it->Seek(key);
          while (it->Valid() && entries.size() < limit) {
            entries.emplace_back(it->key().ToString(), it->value().ToString());
            const uint64_t n0 = trace ? NowNanos() : 0;
            it->Next();
            if (trace) {
              st->perf.nexts++;
              st->perf.next_ns += NowNanos() - n0;
            }
          }
          s = it->status();
        }
        t1 = stop();
        ok = s.ok() && verifier_.CheckScan(idx, limit, entries, &why, Verifier::kSnapshotReader);
        if (!s.ok()) why = "scan: " + s.ToString();
        break;
      }
      case kOpRmw: {
        t0 = start();
        const clsm::Status s = IncrementCounter(db_, key);
        t1 = stop();
        ok = s.ok();
        if (ok) {
          st->rmw_performed++;
        } else {
          why = "rmw: " + s.ToString();
        }
        break;
      }
    }
    st->hist[i * static_cast<uint64_t>(windows) / n][op].Add(t1 - t0);
    st->ops++;
    if (!ok) {
      st->failures++;
      if (st->first_failure.empty()) st->first_failure = why;
    }
    if (trace && !over_wire && (op == kOpGet || op == kOpPut)) {
      const clsm::PerfContext& pc = *clsm::GetPerfContext();
      PerfSums& p = st->perf;
      if (op == kOpPut) {
        p.puts++;
        p.mem_insert_ns += pc.mem_insert_nanos;
        p.lock_getts_ns += pc.lock_getts_nanos;
        p.shared_lock_wait_ns += pc.shared_lock_wait_nanos;
        p.wal_append_ns += pc.wal_append_nanos;
        p.throttle_ns += pc.throttle_nanos;
      } else {
        p.gets++;
        p.mem_search_ns += pc.mem_search_nanos;
        p.disk_search_ns += pc.disk_search_nanos;
        p.search_nodes += pc.skiplist_search_nodes;
        for (uint64_t r : pc.table_reads_per_level) p.tables_probed += r;
        p.block_reads += pc.block_reads;
        p.cache_hits += pc.block_cache_hits;
        p.bloom_skips += pc.bloom_useful;
        p.env_read_ns += ThreadEnvReadNanos() - env_read0;
      }
    }
  }
  if (over_wire) {
    st->rtt_us.Merge(wire.OpLatency(clsm::KvClient::kClientGet));
    st->rtt_us.Merge(wire.OpLatency(clsm::KvClient::kClientPut));
  }
}

PhaseResult Pass::RunPhase(const double mix[kNumOps], uint64_t ops_per_thread, uint64_t seed,
                           bool timed, int windows) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  ThreadStats per_thread[kClients];
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    const uint64_t thread_seed = clsm::Random64(seed * kClients + static_cast<uint64_t>(t)).Next();
    threads.emplace_back([this, t, mix, ops_per_thread, thread_seed, timed, windows, &ready,
                          &go, &per_thread] {
      ClientLoop(t, mix, ops_per_thread, thread_seed, timed, windows, &ready, &go,
                 &per_thread[t]);
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  PhaseResult r;
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNanos();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  r.elapsed_s = static_cast<double>(NowNanos() - t0) * 1e-9;
  r.cpu_s = CpuSeconds() - cpu0;
  for (const ThreadStats& ts : per_thread) r.stats.Merge(ts);
  attempted_ += r.stats.ops;
  rmw_performed_ += r.stats.rmw_performed;
  failed_ += r.stats.failures;
  if (!r.stats.first_failure.empty() && notes_.size() < 8) notes_.push_back(r.stats.first_failure);
  return r;
}

bool Pass::VerifyStore() {
  std::string why;
  if (verifier_.CheckStore(db_, rmw_performed_, &why)) return true;
  NoteFailure("final scan: " + why);
  return false;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct PassOutcome {
  bool ok = false;
  double setup_s = 0;
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
  std::vector<LatencyHist> windows[kNumOps];  // latency windows by op type
  double space_amp = 0;
  double peak_rss_mb = 0;      // through setup and the timed phase
  std::vector<Metric> layers;  // traced passes only
};

// Setup, timed phase, drain, probes for the op types the mix lacks, and
// the final full-store check.
PassOutcome RunPass(Pass& p, int setup_builds) {
  PassOutcome out;
  const WorkloadSpec& spec = p.spec_;
  if (!p.Setup(setup_builds, &out.setup_s)) return out;
  if (p.spans_ != nullptr) p.spans_->set_enabled(true);

  const EnvCounters env0 = p.env_.Snapshot();
  const ListenerCounters lis0 = p.listener_->Snapshot();
  const uint64_t conflicts0 = RmwConflicts(p.db_);
  const uint64_t n = static_cast<uint64_t>(p.cfg_.seconds) * spec.ops_per_second / kClients;
  const PhaseResult timed = p.RunPhase(spec.mix, n, p.cfg_.seed, true, kWindows);
  const uint64_t conflicts1 = RmwConflicts(p.db_);
  clsm::Histogram handle_ns;
  if (p.service_ != nullptr) {
    p.service_->stats()->AggregateLatency(clsm::RpcOp::kGet, &handle_ns);
    clsm::Histogram puts;
    p.service_->stats()->AggregateLatency(clsm::RpcOp::kPut, &puts);
    handle_ns.Merge(puts);
  }
  out.peak_rss_mb = PeakRssMb();
  const uint64_t drain0 = NowNanos();
  p.db_->WaitForMaintenance();
  const double drain_s = static_cast<double>(NowNanos() - drain0) * 1e-9;
  const EnvCounters env = p.env_.Snapshot().Minus(env0);
  const ListenerCounters lis = p.listener_->Snapshot().Minus(lis0);
  if (p.spans_ != nullptr) p.spans_->set_enabled(false);

  uint64_t live_keys = p.num_keys_;
  if (spec.ingest) {
    live_keys = 0;
    for (uint64_t i = 0; i < p.num_keys_; i++) {
      live_keys += p.last_version_[i].load(std::memory_order_relaxed) != 0 ? 1 : 0;
    }
  }
  out.space_amp = Ratio(static_cast<double>(p.store_env_.TreeBytes(kStoreName)),
                        static_cast<double>(live_keys * kEntryBytes));
  out.ops_per_s = Ratio(static_cast<double>(timed.stats.ops), timed.elapsed_s);
  out.cpu_us_per_op = Ratio(timed.cpu_s * 1e6, static_cast<double>(timed.stats.ops));
  // Each probe, and the final check, runs on the store closed and
  // reopened: recovery flushes the memtable, maintenance is idle, level 0
  // is empty (unless sharded) and the caches start cold, so what a probe
  // sees does not depend on where the timed phase or the previous probe
  // happened to stop. Put and RMW probes fit in one memtable, so they
  // start no background work of their own. The final check then also
  // covers durability across a clean reopen.
  auto reopen = [&p] {
    p.CloseStore();
    if (!p.OpenStore(false)) return false;
    // Empty level 0 as well, which otherwise holds 0 to 3 files depending on
    // history: each reopen flushes a non-empty memtable into one more
    // level-0 file (one counter increment makes it non-empty), and the
    // fourth starts the compaction that empties the level.
    for (int i = 0; i < 8 && !p.spec_.served && Level0Files(p.db_) > 0; i++) {
      std::string key;
      clsm::EncodeWorkloadKey(kCounterBase, kKeySize, &key);
      const clsm::Status s = IncrementCounter(p.db_, key);
      if (!s.ok()) {
        p.NoteFailure("settle: " + s.ToString());
        return false;
      }
      p.rmw_performed_++;
      p.CloseStore();
      if (!p.OpenStore(false)) return false;
    }
    return true;
  };
  // Read-only probes first, so that they see the store as the timed phase
  // left it rather than as the write probes reshaped it.
  for (const int op : {kOpGet, kOpScan, kOpPut, kOpRmw}) {
    if (spec.mix[op] > 0) {
      for (int w = 0; w < kWindows; w++) out.windows[op].push_back(timed.stats.hist[w][op]);
      continue;
    }
    const int windows = kProbeRepeats[op] == 1 ? kWindows : 1;
    double probe_mix[kNumOps] = {};
    probe_mix[op] = 1.0;
    for (int r = 0; r < kProbeRepeats[op]; r++) {
      if (!reopen()) return out;
      const uint64_t probe_seed = (p.cfg_.seed * kNumOps + static_cast<uint64_t>(op)) * 16 +
                                  static_cast<uint64_t>(r);
      const PhaseResult probe = p.RunPhase(probe_mix, kProbeOps[op], probe_seed, false, windows);
      for (int w = 0; w < windows; w++) out.windows[op].push_back(probe.stats.hist[w][op]);
    }
  }
  if (!reopen()) return out;
  p.VerifyStore();

  if (p.traced_) {
    const PerfSums& ps = timed.stats.perf;
    const double puts = static_cast<double>(ps.puts);
    const double gets = static_cast<double>(ps.gets);
    const double user_bytes = static_cast<double>(timed.stats.user_bytes);
    uint64_t rmw_count = 0;
    for (int w = 0; w < kWindows; w++) rmw_count += timed.stats.hist[w][kOpRmw].count();
    const double rmws = static_cast<double>(rmw_count);
    const SpanRecorder& sp = *p.spans_;
    auto layer = [&out](const char* name, double value, const char* unit) {
      out.layers.push_back({name, value, unit});
    };
    layer("skiplist.insert_ns_per_put", Ratio(ps.mem_insert_ns, puts), "ns");
    layer("skiplist.search_nodes_per_get", Ratio(ps.search_nodes, gets), "count");
    layer("sync.lock_getts_ns_per_put", Ratio(ps.lock_getts_ns, puts), "ns");
    layer("sync.shared_lock_wait_ns_per_put", Ratio(ps.shared_lock_wait_ns, puts), "ns");
    layer("sync.iter_create_us", Ratio(ps.iter_create_ns * 1e-3, ps.iter_creates), "us");
    layer("wal.append_ns_per_put", Ratio(ps.wal_append_ns, puts), "ns");
    layer("wal.bytes_per_user_byte", Ratio(env.append_bytes[kFileLog], user_bytes), "ratio");
    layer("lsm.throttle_ns_per_put", Ratio(ps.throttle_ns, puts), "ns");
    layer("lsm.stall_s.memtable_full", lis.stall_micros[0] * 1e-6, "s");
    layer("lsm.stall_s.l0_stop", lis.stall_micros[1] * 1e-6, "s");
    layer("lsm.stall_s.l0_slowdown", lis.stall_micros[2] * 1e-6, "s");
    layer("lsm.stall_s.rate_limited", lis.stall_micros[3] * 1e-6, "s");
    layer("lsm.write_amp", Ratio(env.append_bytes[kFileSst], user_bytes), "ratio");
    layer("lsm.flushes", static_cast<double>(lis.flushes), "count");
    layer("lsm.flush_busy_s", lis.flush_micros * 1e-6, "s");
    layer("lsm.compaction_busy_s", lis.compaction_micros * 1e-6, "s");
    layer("lsm.compaction_mb_per_s",
          Ratio(lis.compaction_bytes / 1048576.0, lis.compaction_micros * 1e-6), "MB/s");
    layer("lsm.drain_s", drain_s, "s");
    layer("lsm.tables_probed_per_get", Ratio(ps.tables_probed, gets), "count");
    layer("table.block_reads_per_get", Ratio(ps.block_reads, gets), "count");
    layer("table.cache_hit_frac", Ratio(ps.cache_hits, ps.cache_hits + ps.block_reads), "ratio");
    layer("table.bloom_skips_per_get", Ratio(ps.bloom_skips, gets), "count");
    layer("table.file_read_us_per_get", Ratio(ps.env_read_ns * 1e-3, gets), "us");
    layer("core.mem_search_ns_per_get", Ratio(ps.mem_search_ns, gets), "ns");
    layer("core.disk_search_ns_per_get", Ratio(ps.disk_search_ns, gets), "ns");
    layer("core.get_self_us",
          spec.served ? 0.0 : Ratio(sp.self_ns_sum(kSpanGet) * 1e-3, sp.count(kSpanGet)), "us");
    layer("core.scan_next_ns", Ratio(ps.next_ns, ps.nexts), "ns");
    layer("core.rmw_retries_per_rmw", Ratio(conflicts1 - conflicts0, rmws), "count");
    const double rtt_p50 = timed.stats.rtt_us.Num() > 0 ? timed.stats.rtt_us.Median() : 0.0;
    const double handle_p50 = handle_ns.Num() > 0 ? handle_ns.Median() * 1e-3 : 0.0;
    layer("server.client_rtt_us_p50", rtt_p50, "us");
    layer("server.handle_us_p50", handle_p50, "us");
    layer("server.wire_us_p50", rtt_p50 - handle_p50, "us");
    layer("util.env_syncs", static_cast<double>(env.TotalSyncs()), "count");
    layer("util.env_write_mb", env.TotalAppendBytes() / 1048576.0, "MB");
    layer("obs.spans_negative_self", static_cast<double>(sp.negative_self()), "count");
  }
  out.ok = true;
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

RunReport RunWorkload(const RunConfig& cfg) {
  RunReport report;
  const WorkloadSpec& spec = *FindSpec(cfg.workload);
  auto finish_pass = [&report](Pass& p) {
    p.CloseStore();
    report.attempted += p.attempted_;
    report.failed += p.failed_;
    for (const std::string& n : p.notes_) report.notes.push_back(n);
  };

  if (!cfg.trace) {
    Pass p(spec, cfg, false);
    const PassOutcome o = RunPass(p, kSetupBuilds);
    finish_pass(p);
    report.correct = o.ok && report.failed == 0;
    auto us = [&o](int op, double q) { return WindowedQuantile(o.windows[op], q) * 1e-3; };
    report.metrics = {
        {"setup_s", o.setup_s, "s"},
        {"ops_per_s", o.ops_per_s, "1/s"},
        {"cpu_us_per_op", o.cpu_us_per_op, "us"},
        {"get_p50_us", us(kOpGet, 0.50), "us"},
        {"get_p99_us", us(kOpGet, 0.99), "us"},
        {"put_p50_us", us(kOpPut, 0.50), "us"},
        {"put_p99_us", us(kOpPut, 0.99), "us"},
        {"scan_p50_us", us(kOpScan, 0.50), "us"},
        {"scan_p99_us", us(kOpScan, 0.99), "us"},
        {"rmw_p50_us", us(kOpRmw, 0.50), "us"},
        {"rmw_p99_us", us(kOpRmw, 0.99), "us"},
        {"space_amp", o.space_amp, "ratio"},
        {"peak_rss_mb", o.peak_rss_mb, "MB"},
    };
    return report;
  }

  // Traced: the same workload and seed twice, untraced then traced; the
  // per-layer numbers come from the second pass, and the throughput ratio
  // of the two is the cost of tracing.
  double untraced_ops_per_s = 0;
  {
    Pass p(spec, cfg, false);
    const PassOutcome o = RunPass(p, 1);
    finish_pass(p);
    untraced_ops_per_s = o.ops_per_s;
    if (!o.ok) report.correct = false;
  }
  Pass p(spec, cfg, true);
  PassOutcome o = RunPass(p, 1);
  if (o.ok && !cfg.spans_path.empty()) {
    const clsm::Status s = p.spans_->WriteJsonLines(cfg.spans_path);
    report.notes.push_back(s.ok() ? "spans: " + std::to_string(p.spans_->stored()) + " written to " +
                                        cfg.spans_path
                                  : "spans: " + s.ToString());
  }
  finish_pass(p);
  report.correct = report.correct && o.ok && report.failed == 0;
  report.metrics = std::move(o.layers);
  report.metrics.push_back(
      {"obs.trace_overhead_frac", 1.0 - Ratio(o.ops_per_s, untraced_ops_per_s), "ratio"});
  return report;
}

}  // namespace clsmbench
