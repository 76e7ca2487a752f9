// Appends framed records to a log file. Not thread-safe: the asynchronous
// logger funnels all appends through its single background thread (paper
// §4), which is what makes this simple writer sufficient.
#ifndef CLSM_WAL_LOG_WRITER_H_
#define CLSM_WAL_LOG_WRITER_H_

#include <cstdint>

#include "src/util/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace clsm {
namespace log {

class Writer {
 public:
  // dest must remain live while this Writer is in use.
  explicit Writer(WritableFile* dest);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Status AddRecord(const Slice& slice);

 private:
  Status EmitPhysicalRecord(RecordType type, const char* ptr, size_t length);

  WritableFile* dest_;
  int block_offset_;  // Current offset in block

  // crc32c values for all supported record types, precomputed to reduce
  // per-record overhead.
  uint32_t type_crc_[kMaxRecordType + 1];
};

}  // namespace log
}  // namespace clsm

#endif  // CLSM_WAL_LOG_WRITER_H_
