#include "clsmbench/src/memfd_env.h"

#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace clsmbench {

namespace {

// Errors as the POSIX Env reports them: a missing file is NotFound.
clsm::Status FdError(const std::string& context, int err) {
  if (err == ENOENT) return clsm::Status::NotFound(context, std::strerror(err));
  return clsm::Status::IOError(context, std::strerror(err));
}

bool IsBelow(const std::string& path, const std::string& dir) {
  return path == dir || (path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
                         path[dir.size()] == '/');
}

// The path through which the default Env reopens a memfd.
std::string FdPath(const MemFdEnv::Fd& fd) { return "/proc/self/fd/" + std::to_string(fd.get()); }

}  // namespace

MemFdEnv::Fd::~Fd() { ::close(fd_); }

std::shared_ptr<MemFdEnv::Fd> MemFdEnv::Find(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(fname);
  return it == files_.end() ? nullptr : it->second;
}

clsm::Status MemFdEnv::NewSequentialFile(const std::string& fname,
                                         std::unique_ptr<clsm::SequentialFile>* result) {
  std::shared_ptr<Fd> fd = Find(fname);
  if (fd == nullptr) return FdError(fname, ENOENT);
  return clsm::Env::Default()->NewSequentialFile(FdPath(*fd), result);
}

clsm::Status MemFdEnv::NewRandomAccessFile(const std::string& fname,
                                           std::unique_ptr<clsm::RandomAccessFile>* result) {
  std::shared_ptr<Fd> fd = Find(fname);
  if (fd == nullptr) return FdError(fname, ENOENT);
  return clsm::Env::Default()->NewRandomAccessFile(FdPath(*fd), result);
}

clsm::Status MemFdEnv::NewWritableFile(const std::string& fname,
                                       std::unique_ptr<clsm::WritableFile>* result) {
  const int raw = ::memfd_create("clsmbench", MFD_CLOEXEC);
  if (raw < 0) return FdError(fname, errno);
  auto fd = std::make_shared<Fd>(raw);
  const clsm::Status s = clsm::Env::Default()->NewWritableFile(FdPath(*fd), result);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> l(mu_);
  files_[fname] = std::move(fd);
  return clsm::Status::OK();
}

bool MemFdEnv::FileExists(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.count(fname) != 0 || dirs_.count(fname) != 0;
}

clsm::Status MemFdEnv::GetChildren(const std::string& dir, std::vector<std::string>* result) {
  result->clear();
  std::lock_guard<std::mutex> l(mu_);
  if (dirs_.count(dir) == 0) return FdError(dir, ENOENT);
  auto add = [&](const std::string& path) {
    if (path.size() > dir.size() + 1 && IsBelow(path, dir) &&
        path.find('/', dir.size() + 1) == std::string::npos) {
      result->push_back(path.substr(dir.size() + 1));
    }
  };
  for (const auto& [path, fd] : files_) add(path);
  for (const std::string& path : dirs_) add(path);
  return clsm::Status::OK();
}

clsm::Status MemFdEnv::RemoveFile(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.erase(fname) != 0 ? clsm::Status::OK() : FdError(fname, ENOENT);
}

clsm::Status MemFdEnv::CreateDir(const std::string& dirname) {
  std::lock_guard<std::mutex> l(mu_);
  dirs_.insert(dirname);
  return clsm::Status::OK();
}

clsm::Status MemFdEnv::RemoveDir(const std::string& dirname) {
  std::lock_guard<std::mutex> l(mu_);
  return dirs_.erase(dirname) != 0 ? clsm::Status::OK() : FdError(dirname, ENOENT);
}

clsm::Status MemFdEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  *size = 0;
  std::shared_ptr<Fd> fd = Find(fname);
  if (fd == nullptr) return FdError(fname, ENOENT);
  struct stat st {};
  if (::fstat(fd->get(), &st) != 0) return FdError(fname, errno);
  *size = static_cast<uint64_t>(st.st_size);
  return clsm::Status::OK();
}

clsm::Status MemFdEnv::RenameFile(const std::string& src, const std::string& target) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return FdError(src, ENOENT);
  std::shared_ptr<Fd> fd = std::move(it->second);
  files_.erase(it);
  files_[target] = std::move(fd);
  return clsm::Status::OK();
}

uint64_t MemFdEnv::NowMicros() { return clsm::Env::Default()->NowMicros(); }

std::string MemFdEnv::FilesystemType() {
  const int fd = ::memfd_create("clsmbench-probe", MFD_CLOEXEC);
  if (fd < 0) return "unknown";
  struct statfs st {};
  const bool ok = ::fstatfs(fd, &st) == 0;
  ::close(fd);
  if (!ok) return "unknown";
  if (st.f_type == TMPFS_MAGIC) return "tmpfs";
  char other[40];
  std::snprintf(other, sizeof(other), "f_type 0x%lx", static_cast<unsigned long>(st.f_type));
  return other;
}

uint64_t MemFdEnv::TreeBytes(const std::string& dir) {
  std::vector<std::shared_ptr<Fd>> fds;
  {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& [path, fd] : files_) {
      if (IsBelow(path, dir)) fds.push_back(fd);
    }
  }
  uint64_t sum = 0;
  for (const auto& fd : fds) {
    struct stat st {};
    if (::fstat(fd->get(), &st) == 0) sum += static_cast<uint64_t>(st.st_size);
  }
  return sum;
}

void MemFdEnv::RemoveTree(const std::string& dir) {
  std::lock_guard<std::mutex> l(mu_);
  std::erase_if(files_, [&](const auto& kv) { return IsBelow(kv.first, dir); });
  std::erase_if(dirs_, [&](const std::string& d) { return IsBelow(d, dir); });
}

}  // namespace clsmbench
