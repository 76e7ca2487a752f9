// MemFdEnv: the benchmark's store lives in memfd files. Their pages are
// shmem, the same memory tmpfs uses. Only the namespace is the
// benchmark's own: names and directories are an in-process map from a
// store file name to its memfd, so the store touches no filesystem. Every
// file is opened through the default POSIX Env on the memfd's
// /proc/self/fd path, so the engine's own file classes do the I/O
// (pread, buffered write, fdatasync) and concurrent reads do not
// serialize the way MemEnv's per-file mutex does. That keeps device and
// page-cache writeback noise out of the figures, and the pages, like
// tmpfs pages, are not counted in the process's RSS.
#ifndef CLSMBENCH_MEMFD_ENV_H_
#define CLSMBENCH_MEMFD_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/util/env.h"

namespace clsmbench {

class MemFdEnv final : public clsm::Env {
 public:
  MemFdEnv() = default;
  MemFdEnv(const MemFdEnv&) = delete;
  MemFdEnv& operator=(const MemFdEnv&) = delete;

  // Bytes of all files at or below dir.
  uint64_t TreeBytes(const std::string& dir);
  // Removes dir with every file and directory below it.
  void RemoveTree(const std::string& dir);

  clsm::Status NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<clsm::SequentialFile>* result) override;
  clsm::Status NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<clsm::RandomAccessFile>* result) override;
  clsm::Status NewWritableFile(const std::string& fname,
                               std::unique_ptr<clsm::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  clsm::Status GetChildren(const std::string& dir, std::vector<std::string>* result) override;
  clsm::Status RemoveFile(const std::string& fname) override;
  clsm::Status CreateDir(const std::string& dirname) override;
  clsm::Status RemoveDir(const std::string& dirname) override;
  clsm::Status GetFileSize(const std::string& fname, uint64_t* size) override;
  clsm::Status RenameFile(const std::string& src, const std::string& target) override;
  uint64_t NowMicros() override;

  // The filesystem type the kernel reports for a memfd ("tmpfs" when it
  // is shmem), for the host record.
  static std::string FilesystemType();

  // A memfd of the map; closed when its entry goes away and no reopen is
  // in progress. Open file objects hold descriptors of their own, so a
  // removed file stays readable by whoever has it open, as with unlink.
  class Fd {
   public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd();
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    int get() const { return fd_; }

   private:
    const int fd_;
  };

 private:
  std::shared_ptr<Fd> Find(const std::string& fname);

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Fd>> files_;  // guarded by mu_
  std::set<std::string> dirs_;                        // guarded by mu_
};

}  // namespace clsmbench

#endif  // CLSMBENCH_MEMFD_ENV_H_
