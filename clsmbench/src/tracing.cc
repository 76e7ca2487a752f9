#include "clsmbench/src/tracing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace clsmbench {

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "op.get",           "op.put",         "op.scan",
      "op.rmw",           "lsm.flush",      "lsm.compaction",
      "lsm.stall.memtable_full", "lsm.stall.l0_stop", "lsm.stall.l0_slowdown",
      "lsm.stall.rate_limited",  "env.read",        "env.append",
      "env.sync",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

namespace {

bool IsBackground(uint32_t name) { return name >= kSpanFlush && name <= kSpanStallRateLimited; }

struct Frame {
  uint32_t name;
  uint64_t id;
  uint64_t parent;
  uint64_t op_id;
  uint64_t start_ns;
  uint64_t child_ns;
};

constexpr int kMaxDepth = 16;

struct ThreadState {
  Frame stack[kMaxDepth];
  int depth = 0;
  uint32_t thread = 0;
  uint64_t env_read_ns = 0;
};

std::atomic<uint32_t> g_next_thread{1};

ThreadState& Tls() {
  thread_local ThreadState state;
  if (state.thread == 0) state.thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return state;
}

}  // namespace

SpanRecorder::SpanRecorder(size_t op_capacity, size_t background_capacity)
    : ops_(op_capacity), background_(background_capacity) {}

uint64_t SpanRecorder::stored() const {
  return std::min(ops_.next.load(), ops_.capacity) +
         std::min(background_.next.load(), background_.capacity);
}

void SpanRecorder::Store(Buffer* buf, const SpanRecord& rec) {
  const size_t slot = buf->next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= buf->capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->slots[slot] = rec;
  count_[rec.name].fetch_add(1, std::memory_order_relaxed);
  if (rec.self_ns >= 0) {
    self_sum_[rec.name].fetch_add(static_cast<uint64_t>(rec.self_ns), std::memory_order_relaxed);
  } else {
    negative_self_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SpanRecorder::Open(uint32_t name, uint64_t op_id) {
  ThreadState& t = Tls();
  if (t.depth == kMaxDepth) {
    mismatched_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Frame& f = t.stack[t.depth];
  const Frame* up = t.depth > 0 ? &t.stack[t.depth - 1] : nullptr;
  f.name = name;
  f.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  f.parent = up != nullptr ? up->id : 0;
  f.op_id = op_id != 0 ? op_id : (up != nullptr ? up->op_id : 0);
  f.child_ns = 0;
  f.start_ns = NowNanos();
  t.depth++;
}

void SpanRecorder::Close(uint32_t name) {
  const uint64_t end = NowNanos();
  ThreadState& t = Tls();
  if (t.depth == 0 || t.stack[t.depth - 1].name != name) {
    mismatched_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Frame f = t.stack[--t.depth];
  const uint64_t dur = end - f.start_ns;
  if (t.depth > 0) t.stack[t.depth - 1].child_ns += dur;
  SpanRecord rec;
  rec.id = f.id;
  rec.parent = f.parent;
  rec.op_id = f.op_id;
  rec.start_ns = f.start_ns;
  rec.end_ns = end;
  rec.self_ns = static_cast<int64_t>(dur) - static_cast<int64_t>(f.child_ns);
  rec.name = name;
  rec.thread = t.thread;
  Store(IsBackground(name) ? &background_ : &ops_, rec);
}

void SpanRecorder::Child(uint32_t name, uint64_t start_ns, uint64_t end_ns) {
  ThreadState& t = Tls();
  if (t.depth == 0) return;
  Frame& up = t.stack[t.depth - 1];
  up.child_ns += end_ns - start_ns;
  // Env calls under background jobs are many and small; they are charged
  // to the job's span (its self time excludes them) but not stored.
  if (IsBackground(up.name)) return;
  SpanRecord rec;
  rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  rec.parent = up.id;
  rec.op_id = up.op_id;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.self_ns = static_cast<int64_t>(end_ns - start_ns);
  rec.name = name;
  rec.thread = t.thread;
  Store(&ops_, rec);
}

clsm::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return clsm::Status::IOError("cannot write spans", path);
  std::fprintf(f,
               "{\"spans\": %" PRIu64 ", \"dropped\": %" PRIu64 ", \"mismatched\": %" PRIu64
               ", \"negative_self\": %" PRIu64 "}\n",
               stored(), dropped(), mismatched(), negative_self());
  for (const Buffer* buf : {&ops_, &background_}) {
    const size_t n = std::min(buf->next.load(), buf->capacity);
    for (size_t i = 0; i < n; i++) {
      const SpanRecord& r = buf->slots[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %" PRIu64 ", \"parent\": %" PRIu64
                   ", \"op\": %" PRIu64 ", \"thread\": %u, \"start_ns\": %" PRIu64
                   ", \"end_ns\": %" PRIu64 ", \"self_ns\": %" PRId64 "}\n",
                   SpanNameString(r.name), r.id, r.parent, r.op_id, r.thread, r.start_ns,
                   r.end_ns, r.self_ns);
    }
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? clsm::Status::OK() : clsm::Status::IOError("cannot write spans", path);
}

FileKind ClassifyFile(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  const std::string base = slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() >= s.size() && base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".log")) return kFileLog;
  if (ends_with(".sst")) return kFileSst;
  if (base.rfind("MANIFEST", 0) == 0) return kFileManifest;
  return kFileOther;
}

uint64_t EnvCounters::TotalAppendBytes() const {
  uint64_t sum = 0;
  for (uint64_t b : append_bytes) sum += b;
  return sum;
}

uint64_t EnvCounters::TotalSyncs() const {
  uint64_t sum = 0;
  for (uint64_t s : syncs) sum += s;
  return sum;
}

EnvCounters EnvCounters::Minus(const EnvCounters& base) const {
  EnvCounters d;
  for (int k = 0; k < kNumFileKinds; k++) {
    d.append_bytes[k] = append_bytes[k] - base.append_bytes[k];
    d.syncs[k] = syncs[k] - base.syncs[k];
  }
  return d;
}

uint64_t ThreadEnvReadNanos() { return Tls().env_read_ns; }

namespace {

// Times one Env call while spans are recorded: the elapsed time goes to
// the span open on this thread.
class EnvCallTimer {
 public:
  EnvCallTimer(const BenchEnv* env, uint32_t name)
      : env_(env), name_(name), start_(env->timing() ? NowNanos() : 0) {}
  ~EnvCallTimer() {
    if (start_ == 0) return;
    const uint64_t end = NowNanos();
    if (name_ == kSpanEnvRead) Tls().env_read_ns += end - start_;
    env_->spans()->Child(name_, start_, end);
  }
  EnvCallTimer(const EnvCallTimer&) = delete;
  EnvCallTimer& operator=(const EnvCallTimer&) = delete;

 private:
  const BenchEnv* env_;
  uint32_t name_;
  uint64_t start_;
};

class CountingSequentialFile final : public clsm::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<clsm::SequentialFile> base, BenchEnv* env)
      : base_(std::move(base)), env_(env) {}
  clsm::Status Read(size_t n, clsm::Slice* result, char* scratch) override {
    EnvCallTimer timer(env_, kSpanEnvRead);
    return base_->Read(n, result, scratch);
  }
  clsm::Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<clsm::SequentialFile> base_;
  BenchEnv* env_;
};

class CountingRandomAccessFile final : public clsm::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<clsm::RandomAccessFile> base, BenchEnv* env)
      : base_(std::move(base)), env_(env) {}
  clsm::Status Read(uint64_t offset, size_t n, clsm::Slice* result,
                    char* scratch) const override {
    EnvCallTimer timer(env_, kSpanEnvRead);
    return base_->Read(offset, n, result, scratch);
  }

 private:
  std::unique_ptr<clsm::RandomAccessFile> base_;
  BenchEnv* env_;
};

class CountingWritableFile final : public clsm::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<clsm::WritableFile> base, BenchEnv* env, FileKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}
  clsm::Status Append(const clsm::Slice& data) override {
    EnvCallTimer timer(env_, kSpanEnvAppend);
    env_->CountAppend(kind_, data.size());
    return base_->Append(data);
  }
  clsm::Status Close() override { return base_->Close(); }
  clsm::Status Flush() override { return base_->Flush(); }
  clsm::Status Sync() override {
    EnvCallTimer timer(env_, kSpanEnvSync);
    env_->CountSync(kind_);
    return base_->Sync();
  }

 private:
  std::unique_ptr<clsm::WritableFile> base_;
  BenchEnv* env_;
  FileKind kind_;
};

}  // namespace

BenchEnv::BenchEnv(clsm::Env* base, SpanRecorder* spans) : base_(base), spans_(spans) {}

EnvCounters BenchEnv::Snapshot() const {
  EnvCounters c;
  for (int k = 0; k < kNumFileKinds; k++) {
    c.append_bytes[k] = append_bytes_[k].load(std::memory_order_relaxed);
    c.syncs[k] = syncs_[k].load(std::memory_order_relaxed);
  }
  return c;
}

clsm::Status BenchEnv::NewSequentialFile(const std::string& fname,
                                         std::unique_ptr<clsm::SequentialFile>* result) {
  std::unique_ptr<clsm::SequentialFile> base;
  clsm::Status s = base_->NewSequentialFile(fname, &base);
  if (s.ok()) *result = std::make_unique<CountingSequentialFile>(std::move(base), this);
  return s;
}

clsm::Status BenchEnv::NewRandomAccessFile(const std::string& fname,
                                           std::unique_ptr<clsm::RandomAccessFile>* result) {
  std::unique_ptr<clsm::RandomAccessFile> base;
  clsm::Status s = base_->NewRandomAccessFile(fname, &base);
  if (s.ok()) *result = std::make_unique<CountingRandomAccessFile>(std::move(base), this);
  return s;
}

clsm::Status BenchEnv::NewWritableFile(const std::string& fname,
                                       std::unique_ptr<clsm::WritableFile>* result) {
  std::unique_ptr<clsm::WritableFile> base;
  clsm::Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) {
    *result = std::make_unique<CountingWritableFile>(std::move(base), this, ClassifyFile(fname));
  }
  return s;
}

ListenerCounters ListenerCounters::Minus(const ListenerCounters& base) const {
  ListenerCounters d;
  d.flushes = flushes - base.flushes;
  d.flush_micros = flush_micros - base.flush_micros;
  d.compaction_micros = compaction_micros - base.compaction_micros;
  d.compaction_bytes = compaction_bytes - base.compaction_bytes;
  for (int r = 0; r < 4; r++) {
    d.stall_micros[r] = stall_micros[r] - base.stall_micros[r];
  }
  return d;
}

ListenerCounters BenchListener::Snapshot() const {
  ListenerCounters c;
  c.flushes = flushes_.load(std::memory_order_relaxed);
  c.flush_micros = flush_micros_.load(std::memory_order_relaxed);
  c.compaction_micros = compaction_micros_.load(std::memory_order_relaxed);
  c.compaction_bytes = compaction_bytes_.load(std::memory_order_relaxed);
  for (int r = 0; r < 4; r++) {
    c.stall_micros[r] = stall_micros_[r].load(std::memory_order_relaxed);
  }
  return c;
}

void BenchListener::OnFlushBegin(const clsm::FlushJobInfo& info) {
  if (Tracing()) spans_->Open(kSpanFlush, 0);
}

void BenchListener::OnFlushEnd(const clsm::FlushJobInfo& info) {
  flushes_.fetch_add(1, std::memory_order_relaxed);
  flush_micros_.fetch_add(info.micros, std::memory_order_relaxed);
  if (Tracing()) spans_->Close(kSpanFlush);
}

void BenchListener::OnCompactionBegin(const clsm::CompactionJobInfo& info) {
  if (Tracing()) spans_->Open(kSpanCompaction, 0);
}

void BenchListener::OnCompactionEnd(const clsm::CompactionJobInfo& info) {
  compaction_micros_.fetch_add(info.micros, std::memory_order_relaxed);
  compaction_bytes_.fetch_add(info.bytes_read + info.bytes_written, std::memory_order_relaxed);
  if (Tracing()) spans_->Close(kSpanCompaction);
}

void BenchListener::OnStallBegin(clsm::StallReason reason) {
  const int r = static_cast<int>(reason);
  if (r < 0 || r >= 4) return;
  if (Tracing()) spans_->Open(kSpanStallMemtableFull + static_cast<uint32_t>(r), 0);
}

void BenchListener::OnStallEnd(clsm::StallReason reason, uint64_t micros) {
  const int r = static_cast<int>(reason);
  if (r < 0 || r >= 4) return;
  stall_micros_[r].fetch_add(micros, std::memory_order_relaxed);
  if (Tracing()) spans_->Close(kSpanStallMemtableFull + static_cast<uint32_t>(r));
}

}  // namespace clsmbench
