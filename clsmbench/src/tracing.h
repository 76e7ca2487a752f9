// Outside-in instrumentation for the benchmark. Everything here observes
// the engine through its public seams only:
//  * BenchEnv wraps the store's Env (Options::env) and counts the bytes
//    appended and the syncs by file kind (WAL .log, .sst, MANIFEST); in
//    traced runs it also times each call and hangs it under the span open
//    on the calling thread.
//  * BenchListener (Options::listeners) counts flush, compaction and stall
//    work and, in traced runs, turns each into a span on the thread that
//    does it (flush and compaction on the job's thread, stalls on the
//    writer's).
//  * SpanRecorder keeps spans (name, start, end, parent, op id, self time)
//    in preallocated buffers and writes them out once, at the end.
#ifndef CLSMBENCH_TRACING_H_
#define CLSMBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/obs/event_listener.h"
#include "src/util/env.h"

namespace clsmbench {

uint64_t NowNanos();

enum SpanName : uint32_t {
  kSpanGet = 0,
  kSpanPut,
  kSpanScan,
  kSpanRmw,
  kSpanFlush,
  kSpanCompaction,
  kSpanStallMemtableFull,  // the four stall spans follow clsm::StallReason order
  kSpanStallL0Stop,
  kSpanStallL0Slowdown,
  kSpanStallRateLimited,
  kSpanEnvRead,
  kSpanEnvAppend,
  kSpanEnvSync,
  kNumSpanNames,
};
const char* SpanNameString(uint32_t name);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t op_id = 0;   // shared by all spans of one sampled operation
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t self_ns = 0;  // duration minus the time covered by child spans
  uint32_t name = 0;
  uint32_t thread = 0;
};

// Spans nest per thread (a stack), so a span's children never overlap
// each other and its self time is its duration minus their sum. Sampled
// operation spans and their Env children go to one buffer; flush,
// compaction and stall spans to another, so that none of them is lost to
// a busy foreground.
class SpanRecorder {
 public:
  SpanRecorder(size_t op_capacity, size_t background_capacity);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span on the calling thread. op_id 0 inherits the enclosing
  // span's op id.
  void Open(uint32_t name, uint64_t op_id);
  // Closes the innermost open span of the calling thread, which must be
  // `name` (a mismatch is counted and the stack left alone).
  void Close(uint32_t name);
  // A completed leaf call [start, end) on the calling thread (an Env
  // call): charged to the open span, stored when that span is an
  // operation span.
  void Child(uint32_t name, uint64_t start_ns, uint64_t end_ns);

  // Aggregates over stored spans.
  uint64_t count(uint32_t name) const { return count_[name].load(std::memory_order_relaxed); }
  uint64_t self_ns_sum(uint32_t name) const {
    return self_sum_[name].load(std::memory_order_relaxed);
  }
  uint64_t negative_self() const { return negative_self_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t mismatched() const { return mismatched_.load(std::memory_order_relaxed); }
  uint64_t stored() const;

  // One JSON object per line: a header, then every stored span.
  clsm::Status WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    explicit Buffer(size_t cap) : slots(new SpanRecord[cap]), capacity(cap) {}
    std::unique_ptr<SpanRecord[]> slots;
    size_t capacity;
    std::atomic<size_t> next{0};
  };
  void Store(Buffer* buf, const SpanRecord& rec);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  Buffer ops_;
  Buffer background_;
  std::atomic<uint64_t> count_[kNumSpanNames] = {};
  std::atomic<uint64_t> self_sum_[kNumSpanNames] = {};
  std::atomic<uint64_t> negative_self_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> mismatched_{0};
};

enum FileKind : int { kFileLog = 0, kFileSst, kFileManifest, kFileOther, kNumFileKinds };
FileKind ClassifyFile(const std::string& fname);

struct EnvCounters {
  uint64_t append_bytes[kNumFileKinds] = {};
  uint64_t syncs[kNumFileKinds] = {};

  uint64_t TotalAppendBytes() const;
  uint64_t TotalSyncs() const;
  EnvCounters Minus(const EnvCounters& base) const;
};

// Nanoseconds the calling thread has spent in RandomAccessFile::Read
// since it started (counted only while spans are recorded).
uint64_t ThreadEnvReadNanos();

class BenchEnv final : public clsm::Env {
 public:
  // spans may be null; base must outlive this Env.
  BenchEnv(clsm::Env* base, SpanRecorder* spans);

  // Times calls (and records Env spans) while spans are recorded; counts
  // always.
  bool timing() const { return spans_ != nullptr && spans_->enabled(); }
  SpanRecorder* spans() const { return spans_; }
  EnvCounters Snapshot() const;

  clsm::Status NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<clsm::SequentialFile>* result) override;
  clsm::Status NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<clsm::RandomAccessFile>* result) override;
  clsm::Status NewWritableFile(const std::string& fname,
                               std::unique_ptr<clsm::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  clsm::Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  clsm::Status RemoveFile(const std::string& fname) override { return base_->RemoveFile(fname); }
  clsm::Status CreateDir(const std::string& dirname) override { return base_->CreateDir(dirname); }
  clsm::Status RemoveDir(const std::string& dirname) override { return base_->RemoveDir(dirname); }
  clsm::Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  clsm::Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }

  // Called by the wrapped files.
  void CountAppend(FileKind kind, uint64_t bytes) {
    append_bytes_[kind].fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountSync(FileKind kind) { syncs_[kind].fetch_add(1, std::memory_order_relaxed); }

 private:
  clsm::Env* const base_;
  SpanRecorder* const spans_;
  std::atomic<uint64_t> append_bytes_[kNumFileKinds] = {};
  std::atomic<uint64_t> syncs_[kNumFileKinds] = {};
};

struct ListenerCounters {
  uint64_t flushes = 0;
  uint64_t flush_micros = 0;
  uint64_t compaction_micros = 0;
  uint64_t compaction_bytes = 0;  // read + written
  uint64_t stall_micros[4] = {};  // by clsm::StallReason

  ListenerCounters Minus(const ListenerCounters& base) const;
};

class BenchListener final : public clsm::EventListener {
 public:
  explicit BenchListener(SpanRecorder* spans) : spans_(spans) {}
  ListenerCounters Snapshot() const;

  void OnFlushBegin(const clsm::FlushJobInfo& info) override;
  void OnFlushEnd(const clsm::FlushJobInfo& info) override;
  void OnCompactionBegin(const clsm::CompactionJobInfo& info) override;
  void OnCompactionEnd(const clsm::CompactionJobInfo& info) override;
  void OnStallBegin(clsm::StallReason reason) override;
  void OnStallEnd(clsm::StallReason reason, uint64_t micros) override;

 private:
  bool Tracing() const { return spans_ != nullptr && spans_->enabled(); }

  SpanRecorder* const spans_;
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> flush_micros_{0};
  std::atomic<uint64_t> compaction_micros_{0};
  std::atomic<uint64_t> compaction_bytes_{0};
  std::atomic<uint64_t> stall_micros_[4] = {};
};

}  // namespace clsmbench

#endif  // CLSMBENCH_TRACING_H_
