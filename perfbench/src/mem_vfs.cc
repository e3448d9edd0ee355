#include "harness.h"

namespace perfbench {

using segdiff::Result;

struct MemVfs::File {
  std::unique_ptr<segdiff::RandomAccessFile> memfd;
};

namespace {
/// One handle on a shared memory file. Positional IO on the memfd is
/// thread-safe, so handles need no lock of their own.
class MemFile : public segdiff::RandomAccessFile {
 public:
  explicit MemFile(std::shared_ptr<MemVfs::File> file)
      : file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, char* buf) override {
    return file_->memfd->Read(offset, n, buf);
  }
  Status Write(uint64_t offset, const char* buf, size_t n) override {
    return file_->memfd->Write(offset, buf, n);
  }
  Status Truncate(uint64_t size) override {
    return file_->memfd->Truncate(size);
  }
  Status Sync() override { return file_->memfd->Sync(); }
  Result<uint64_t> Size() override { return file_->memfd->Size(); }

 private:
  std::shared_ptr<MemVfs::File> file_;
};

/// True when `path` names a direct child of directory `dir`.
bool IsChild(const std::string& dir, const std::string& path) {
  return path.size() > dir.size() + 1 &&
         path.compare(0, dir.size(), dir) == 0 && path[dir.size()] == '/' &&
         path.find('/', dir.size() + 1) == std::string::npos;
}
}  // namespace

MemVfs::MemVfs() = default;
MemVfs::~MemVfs() = default;

void MemVfs::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  files_.clear();
  dirs_.clear();
}

Result<std::unique_ptr<segdiff::RandomAccessFile>> MemVfs::OpenFile(
    const std::string& path, bool create) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) return Status::NotFound("no such file: " + path);
    auto file = std::make_shared<File>();
    SEGDIFF_ASSIGN_OR_RETURN(
        file->memfd, segdiff::Vfs::Default()->OpenFile(":memory:", true));
    it = files_.emplace(path, std::move(file)).first;
  }
  return std::unique_ptr<segdiff::RandomAccessFile>(new MemFile(it->second));
}

Status MemVfs::SyncDir(const std::string&) { return Status::OK(); }

Status MemVfs::MakeDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.insert(path);
  return Status::OK();
}

bool MemVfs::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) != 0 || dirs_.count(path) != 0;
}

Status MemVfs::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status MemVfs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("rename source missing: " + from);
  }
  std::shared_ptr<File> file = it->second;
  files_.erase(it);
  files_[to] = std::move(file);
  return Status::OK();
}

Result<std::vector<std::string>> MemVfs::ListDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(path) == 0) {
    return Status::NotFound("no such directory: " + path);
  }
  std::vector<std::string> names;
  for (const auto& [name, file] : files_) {
    if (IsChild(path, name)) names.push_back(name.substr(path.size() + 1));
  }
  for (const std::string& name : dirs_) {
    if (IsChild(path, name)) names.push_back(name.substr(path.size() + 1));
  }
  return names;
}

Status MemVfs::RemoveDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(path) == 0) {
    return Status::NotFound("no such directory: " + path);
  }
  for (const auto& [name, file] : files_) {
    if (IsChild(path, name)) {
      return Status::IOError("directory not empty: " + path);
    }
  }
  for (const std::string& name : dirs_) {
    if (IsChild(path, name)) {
      return Status::IOError("directory not empty: " + path);
    }
  }
  dirs_.erase(path);
  return Status::OK();
}

}  // namespace perfbench
