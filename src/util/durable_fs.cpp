#include "util/durable_fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "util/error.hpp"
#include "util/file_io.hpp"

namespace osprey::util {

// --- MemFs -----------------------------------------------------------

void MemFs::write(const std::string& path, const std::string& bytes) {
  files_[path] = bytes;
}

void MemFs::append(const std::string& path, const std::string& bytes) {
  files_[path] += bytes;
}

std::optional<std::string> MemFs::read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> MemFs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, bytes] : files_) {
    (void)bytes;
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;  // std::map keys are already sorted
}

void MemFs::remove(const std::string& path) { files_.erase(path); }

void MemFs::truncate_tail(const std::string& path, std::size_t n) {
  auto it = files_.find(path);
  if (it == files_.end()) return;
  std::string& bytes = it->second;
  bytes.resize(bytes.size() >= n ? bytes.size() - n : 0);
}

void MemFs::flip_byte(const std::string& path, std::size_t offset,
                      unsigned char mask) {
  auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.size()) return;
  it->second[offset] = static_cast<char>(
      static_cast<unsigned char>(it->second[offset]) ^ mask);
}

// --- RealFs ----------------------------------------------------------

namespace {

/// Suffix of write()'s temp file; list() never returns such names.
constexpr std::string_view kTmpSuffix = ".tmp";

std::string parent_of(const std::string& path) {
  std::string parent = std::filesystem::path(path).parent_path().string();
  return parent.empty() ? "." : parent;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw Error(what + " " + path + ": " + std::strerror(errno));
}

void write_all(int fd, const std::string& bytes, const std::string& path) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("write failed:", path);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0) fail("close failed:", path);
}

/// fsync `path` (a file, or a directory with O_DIRECTORY). A path that
/// no longer exists has nothing left to make durable.
void fsync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), O_RDONLY | flags);
  if (fd < 0) {
    if (errno == ENOENT) return;
    fail("cannot open for fsync:", path);
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  errno = saved;
  if (rc != 0) fail("fsync failed:", path);
}

}  // namespace

RealFs::RealFs(std::string root) : root_(std::move(root)) {
  OSPREY_REQUIRE(!root_.empty(), "RealFs needs a root directory");
  create_missing_dirs(root_);
}

std::string RealFs::full(const std::string& path) const {
  return root_ + "/" + path;
}

void RealFs::mark_parent_dirty(const std::string& target) {
  dirty_dirs_.push_back(parent_of(target));
}

void RealFs::create_missing_dirs(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> missing;
  std::error_code ec;
  for (fs::path d(dir); !d.empty() && !fs::exists(d, ec);
       d = d.parent_path()) {
    missing.push_back(d);
    if (d == d.parent_path()) break;
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    if (fs::create_directory(*it, ec)) {
      mark_parent_dirty(it->string());
    } else if (ec) {
      throw Error("cannot create directory " + it->string() + ": " +
                  ec.message());
    }
  }
}

int RealFs::open_creating(const std::string& target, int flags) {
  int fd = ::open(target.c_str(), flags, 0644);
  if (fd < 0 && errno == ENOENT) {
    create_missing_dirs(parent_of(target));
    fd = ::open(target.c_str(), flags, 0644);
  }
  if (fd < 0) fail("cannot open", target);
  return fd;
}

void RealFs::write(const std::string& path, const std::string& bytes) {
  // Write to a sibling temp file, then rename over the target: POSIX
  // rename is atomic, so a crash leaves old content or new, never half.
  const std::string target = full(path);
  const std::string tmp = target + std::string(kTmpSuffix);
  write_all(open_creating(tmp, O_WRONLY | O_CREAT | O_TRUNC), bytes, tmp);
  if (::rename(tmp.c_str(), target.c_str()) != 0) {
    fail("atomic replace failed for", target);
  }
  dirty_files_.push_back(target);
  mark_parent_dirty(target);
}

void RealFs::append(const std::string& path, const std::string& bytes) {
  const std::string target = full(path);
  int fd = ::open(target.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    if (errno != ENOENT) fail("cannot open for append:", target);
    fd = open_creating(target, O_WRONLY | O_APPEND | O_CREAT);
    mark_parent_dirty(target);  // a new directory entry
  }
  write_all(fd, bytes, target);
  dirty_files_.push_back(target);
}

std::optional<std::string> RealFs::read(const std::string& path) const {
  return read_text_file(full(path));
}

std::vector<std::string> RealFs::list(const std::string& prefix) const {
  // The prefix's directory part selects the directory to scan; the
  // remainder filters file names. Good enough for the WAL's flat
  // "<dir>/<kind>-<lsn>" layout.
  std::string dir = root_;
  std::string name_prefix = prefix;
  std::size_t slash = prefix.rfind('/');
  if (slash != std::string::npos) {
    dir = root_ + "/" + prefix.substr(0, slash);
    name_prefix = prefix.substr(slash + 1);
  }
  std::vector<std::string> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.compare(0, name_prefix.size(), name_prefix) != 0) continue;
    if (name.ends_with(kTmpSuffix)) continue;  // an unfinished write()
    out.push_back(slash == std::string::npos
                      ? name
                      : prefix.substr(0, slash + 1) + name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RealFs::remove(const std::string& path) {
  const std::string target = full(path);
  std::error_code ec;
  if (std::filesystem::remove(target, ec)) mark_parent_dirty(target);
}

void RealFs::sync() {
  ++syncs_;
  for (std::vector<std::string>* dirty : {&dirty_files_, &dirty_dirs_}) {
    std::sort(dirty->begin(), dirty->end());
    dirty->erase(std::unique(dirty->begin(), dirty->end()), dirty->end());
  }
  // Contents first, then the directory entries that name them.
  for (const std::string& path : dirty_files_) fsync_path(path, 0);
  for (const std::string& dir : dirty_dirs_) fsync_path(dir, O_DIRECTORY);
  dirty_files_.clear();
  dirty_dirs_.clear();
}

}  // namespace osprey::util
