// Reads framed records back from a log file, tolerating a torn tail (the
// asynchronous-logging crash mode the paper accepts, §2.3/§4).
#ifndef CLSM_WAL_LOG_READER_H_
#define CLSM_WAL_LOG_READER_H_

#include <cstdint>
#include <string>

#include "src/util/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace clsm {
namespace log {

class Reader {
 public:
  // Interface for reporting corruption found during the read.
  class Reporter {
   public:
    virtual ~Reporter() = default;
    // bytes is an approximate count of dropped input.
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  // file must remain live while this Reader is in use. If checksum is true,
  // verify record checksums. Reads from the start of the file.
  Reader(SequentialFile* file, Reporter* reporter, bool checksum);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  ~Reader();

  // Read the next record into *record (may point into *scratch). Returns
  // false at end of input.
  bool ReadRecord(Slice* record, std::string* scratch);

 private:
  // Extend record types with the following special values.
  enum {
    kEof = kMaxRecordType + 1,
    // Returned whenever we find an invalid physical record (bad CRC or zero
    // length).
    kBadRecord = kMaxRecordType + 2
  };

  // Return type, or one of the preceding special values.
  unsigned int ReadPhysicalRecord(Slice* result);

  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* const file_;
  Reporter* const reporter_;
  bool const checksum_;
  char* const backing_store_;
  Slice buffer_;
  bool eof_;  // Last Read() indicated EOF by returning < kBlockSize
};

}  // namespace log
}  // namespace clsm

#endif  // CLSM_WAL_LOG_READER_H_
