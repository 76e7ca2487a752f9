// The benchmark's own tests: its checks must catch wrong results, its
// percentiles must be right, and span self times must add up. Exits 0
// when every case passes. Usage: clsmbench_selftest <scratch dir>
// (the span-writer case writes one file there and removes it)
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "clsmbench/src/latency_hist.h"
#include "clsmbench/src/memfd_env.h"
#include "clsmbench/src/tracing.h"
#include "clsmbench/src/value_codec.h"
#include "clsmbench/src/workloads.h"
#include "src/baselines/factory.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) g_failures++;
}

std::string Key(uint64_t index) {
  std::string k;
  clsm::EncodeWorkloadKey(index, clsmbench::kKeySize, &k);
  return k;
}

std::string Value(uint64_t index, uint64_t version) {
  std::string v(clsmbench::kValueSize, '\0');
  clsmbench::EncodeValue(index, version, v.data());
  return v;
}

std::string Counter(uint64_t c) {
  std::string v(8, '\0');
  std::memcpy(v.data(), &c, 8);
  return v;
}

void TestValueCodec() {
  clsmbench::DecodedValue d;
  const std::string v = Value(42, clsmbench::MakeVersion(1, 7));
  Expect(clsmbench::CheckValue(v, 42, &d) && d.version == clsmbench::MakeVersion(1, 7),
         "value round-trips");
  Expect(!clsmbench::CheckValue(v, 43, &d), "value of another key is rejected");
  std::string flipped = v;
  flipped[100] ^= 1;
  Expect(!clsmbench::CheckValue(flipped, 42, &d), "corrupted value is rejected");
  Expect(!clsmbench::CheckValue(v.substr(0, 255), 42, &d), "short value is rejected");
  Expect(clsmbench::DecodeKeyIndex(Key(123456)) == 123456, "key index round-trips");
}

void TestVerifierOnStore() {
  constexpr uint64_t kKeys = 200;
  clsmbench::MemFdEnv env;
  clsm::Options options;
  options.env = &env;
  clsm::DB* raw = nullptr;
  clsm::Status s = clsm::OpenDb(clsm::DbVariant::kClsm, options, "selftest-db", &raw);
  Expect(s.ok(), "open scratch store");
  if (!s.ok()) return;
  std::unique_ptr<clsm::DB> db(raw);
  const clsm::WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) db->Put(wo, Key(i), Value(i, 0));
  db->Put(wo, Key(clsmbench::kCounterBase + 3), Counter(5));

  std::atomic<uint64_t> issued[clsmbench::kClients] = {};
  issued[0] = 2;
  const clsmbench::Verifier v = clsmbench::Verifier::Dense(kKeys, issued);
  std::string why, got;
  const clsm::ReadOptions ro;

  s = db->Get(ro, Key(10), &got);
  Expect(v.CheckGet(10, s, got, &why), "correct Get passes");
  Expect(v.CheckStore(db.get(), 5, &why), "correct store passes the full scan");
  Expect(!v.CheckStore(db.get(), 6, &why), "lost RMW increment is caught");

  // Inject wrong values the way a faulty engine would return them.
  db->Put(wo, Key(11), Value(12, 0));
  s = db->Get(ro, Key(11), &got);
  Expect(!v.CheckGet(11, s, got, &why), "value of another key returned by Get is caught");
  Expect(!v.CheckStore(db.get(), 5, &why), "value of another key is caught by the full scan");
  db->Put(wo, Key(11), Value(11, clsmbench::MakeVersion(0, 9)));
  s = db->Get(ro, Key(11), &got);
  Expect(!v.CheckGet(11, s, got, &why), "version never issued is caught");
  db->Put(wo, Key(11), Value(11, clsmbench::MakeVersion(0, 2)));
  s = db->Get(ro, Key(11), &got);
  Expect(v.CheckGet(11, s, got, &why), "issued version passes");

  std::vector<std::pair<std::string, std::string>> entries;
  for (uint64_t i = 20; i < 30; i++) entries.emplace_back(Key(i), Value(i, 0));
  Expect(v.CheckScan(20, 10, entries, &why), "correct scan passes");
  entries.erase(entries.begin() + 4);
  Expect(!v.CheckScan(20, 10, entries, &why), "scan that skips a key is caught");
  entries.clear();
  for (uint64_t i = 195; i < kKeys; i++) entries.emplace_back(Key(i), Value(i, 0));
  entries.emplace_back(Key(clsmbench::kCounterBase + 3), Counter(5));
  Expect(v.CheckScan(195, 10, entries, &why), "scan running into the counters passes");
  entries.clear();
  for (uint64_t i = 190; i < 196; i++) entries.emplace_back(Key(i), Value(i, 0));
  Expect(!v.CheckScan(190, 10, entries, &why), "scan that ends early is caught");

  db->Delete(wo, Key(50));
  s = db->Get(ro, Key(50), &got);
  Expect(!v.CheckGet(50, s, got, &why), "NotFound for a loaded key is caught");
  Expect(!v.CheckStore(db.get(), 5, &why), "missing key is caught by the full scan");

  // Exact mode: versions must match the last write, unwritten keys absent.
  std::unique_ptr<std::atomic<uint64_t>[]> last(new std::atomic<uint64_t>[kKeys]());
  last[11] = clsmbench::MakeVersion(0, 2);
  const clsmbench::Verifier e = clsmbench::Verifier::Exact(kKeys, 0, last.get(), issued);
  s = db->Get(ro, Key(50), &got);
  Expect(e.CheckGet(50, s, got, &why), "exact: NotFound for an unwritten key passes");
  s = db->Get(ro, Key(10), &got);
  Expect(!e.CheckGet(10, s, got, &why), "exact: a key never written but found is caught");
  last[10] = clsmbench::MakeVersion(1, 1);
  Expect(!e.CheckGet(10, s, got, &why), "exact: stale version is caught");
  // Key 11 belongs to client 1; while it writes, client 0 accepts any
  // version client 1 has issued, or NotFound.
  db->Put(wo, Key(11), Value(11, clsmbench::MakeVersion(1, 3)));
  s = db->Get(ro, Key(11), &got);
  issued[1] = 3;
  Expect(!e.CheckGet(11, s, got, &why, 1), "exact: owner sees a version it did not write");
  Expect(e.CheckGet(11, s, got, &why, 0), "exact: non-owner accepts an issued version");
  issued[1] = 2;
  Expect(!e.CheckGet(11, s, got, &why, 0), "exact: non-owner rejects a version never issued");
  entries.clear();
  entries.emplace_back(Key(12), Value(12, 0));
  Expect(!e.CheckScan(11, 1, entries, &why), "exact: quiescent scan that skips a key is caught");
  issued[1] = 3;
  Expect(e.CheckScan(11, 1, entries, &why, clsmbench::Verifier::kSnapshotReader) == false,
         "exact: snapshot scan still rejects a key never written");
  entries.clear();
  entries.emplace_back(Key(13), Value(13, clsmbench::MakeVersion(1, 1)));
  Expect(e.CheckScan(12, 1, entries, &why, clsmbench::Verifier::kSnapshotReader),
         "exact: snapshot scan may predate a write");
  // Bulk-loaded keys hold version 0 until their owner overwrites them.
  const clsmbench::Verifier loaded = clsmbench::Verifier::Exact(kKeys, 20, last.get(), issued);
  last[14] = clsmbench::Verifier::kBulkLoaded;
  s = db->Get(ro, Key(14), &got);
  Expect(loaded.CheckGet(14, s, got, &why), "exact: bulk-loaded key passes");
  last[14] = clsmbench::MakeVersion(0, 1);
  Expect(!loaded.CheckGet(14, s, got, &why, 0), "exact: owner catches a lost overwrite");
  Expect(loaded.CheckGet(14, s, got, &why, 1), "exact: non-owner accepts the loaded version");
  // A bulk-loaded key is never deleted: no reader may miss it, while a
  // key above the loaded range may still be absent to a non-owner.
  last[14] = last[15] = last[16] = clsmbench::Verifier::kBulkLoaded;
  db->Delete(wo, Key(15));
  s = db->Get(ro, Key(15), &got);
  Expect(!loaded.CheckGet(15, s, got, &why, 0), "exact: non-owner catches a lost loaded key");
  s = db->Get(ro, Key(50), &got);
  Expect(loaded.CheckGet(50, s, got, &why, 1), "exact: non-owner accepts an unloaded key absent");
  entries.clear();
  entries.emplace_back(Key(14), Value(14, 0));
  entries.emplace_back(Key(15), Value(15, 0));
  Expect(loaded.CheckScan(14, 2, entries, &why, clsmbench::Verifier::kSnapshotReader),
         "exact: snapshot scan over loaded keys passes");
  entries.erase(entries.begin() + 1);
  entries.emplace_back(Key(16), Value(16, 0));
  Expect(!loaded.CheckScan(14, 2, entries, &why, clsmbench::Verifier::kSnapshotReader),
         "exact: snapshot scan that skips a loaded key is caught");

  db.reset();
  Expect(env.TreeBytes("selftest-db") > 0, "store files live in the memfd Env");
  env.RemoveTree("selftest-db");
  Expect(env.TreeBytes("selftest-db") == 0 && !env.FileExists("selftest-db"),
         "the memfd Env removes a whole store");
}

void TestLatencyHist() {
  clsmbench::LatencyHist h;
  std::vector<uint64_t> values;
  clsm::Random64 rnd(7);
  for (int i = 0; i < 200000; i++) {
    const uint64_t v = 500 + rnd.Uniform(2'000'000);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.99, 0.999}) {
    const double exact = static_cast<double>(values[static_cast<size_t>(q * values.size()) - 1]);
    const double err = std::fabs(h.Quantile(q) - exact) / exact;
    char what[64];
    std::snprintf(what, sizeof(what), "histogram quantile %.3f within 2%%", q);
    Expect(err < 0.02, what);
  }
  Expect(h.count() == values.size(), "histogram counts every sample");
  for (uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 1000ull, 123456789ull}) {
    const int i = clsmbench::LatencyHist::Index(v);
    if (!(clsmbench::LatencyHist::Lower(i) <= v &&
          v < clsmbench::LatencyHist::Lower(i) + clsmbench::LatencyHist::Width(i))) {
      Expect(false, "bucket bounds contain their values");
      return;
    }
  }
  Expect(true, "bucket bounds contain their values");

  // A burst in one window moves the pooled p99, not the windowed one.
  std::vector<clsmbench::LatencyHist> windows(5);
  clsmbench::LatencyHist pooled;
  for (size_t w = 0; w < windows.size(); w++) {
    for (uint64_t i = 0; i < 1000; i++) {
      const uint64_t v = (w == 2 && i % 10 == 0) ? 100'000 : 1000 + i;
      windows[w].Add(v);
      pooled.Add(v);
    }
  }
  const double p99 = clsmbench::WindowedQuantile(windows, 0.99);
  Expect(p99 > 1950 && p99 < 2050 && pooled.Quantile(0.99) > 50'000,
         "windowed p99 is the median window's");
  Expect(clsmbench::WindowedQuantile(std::vector<clsmbench::LatencyHist>(3), 0.5) == 0,
         "windowed quantile of empty windows is 0");
}

void TestSpans(const std::string& path) {
  clsmbench::SpanRecorder rec(16, 16);
  rec.set_enabled(true);
  rec.Open(clsmbench::kSpanGet, 77);
  const uint64_t t0 = clsmbench::NowNanos();
  rec.Child(clsmbench::kSpanEnvRead, t0, clsmbench::NowNanos());
  rec.Open(clsmbench::kSpanStallRateLimited, 0);
  rec.Close(clsmbench::kSpanStallRateLimited);
  rec.Close(clsmbench::kSpanGet);
  Expect(rec.count(clsmbench::kSpanGet) == 1 && rec.count(clsmbench::kSpanEnvRead) == 1 &&
             rec.count(clsmbench::kSpanStallRateLimited) == 1,
         "nested spans are stored");
  Expect(rec.negative_self() == 0, "span self times are non-negative");
  rec.Close(clsmbench::kSpanGet);
  Expect(rec.mismatched() == 1, "unbalanced close is counted, not applied");
  Expect(rec.WriteJsonLines(path).ok(), "spans are written");
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(scratch);
  TestValueCodec();
  TestVerifierOnStore();
  TestLatencyHist();
  TestSpans(scratch + "/selftest_spans.jsonl");
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
