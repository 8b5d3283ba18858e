#pragma once

/// \file durable_fs.hpp
/// The durable-storage boundary for crash recovery. Anything that must
/// survive a process crash (the AERO metadata WAL and its checkpoints)
/// is written through this interface instead of straight to disk, so
/// tests can crash a "process" by destroying every volatile object
/// while the MemFs — playing the role of the disk — survives untouched.
///
/// Semantics every implementation provides:
///   write   atomic whole-file replace (a reader never observes a
///           half-written file; a crash leaves either the old or the
///           new content)
///   append  ordered append to the end of a file, creating it when
///           missing (a crash may leave a torn tail — recovery is
///           expected to discard it)
///   sync    durability barrier: everything written/appended before the
///           call has reached stable storage when it returns
///
/// Paths are forward-slash relative names ("aero-wal/wal-000000000000");
/// list() returns them sorted so directory iteration order can never
/// leak platform nondeterminism into recovery.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace osprey::util {

class DurableFs {
 public:
  virtual ~DurableFs() = default;

  virtual void write(const std::string& path, const std::string& bytes) = 0;
  virtual void append(const std::string& path, const std::string& bytes) = 0;
  /// Whole-file content; nullopt when the file does not exist.
  virtual std::optional<std::string> read(const std::string& path) const = 0;
  /// All paths starting with `prefix`, sorted ascending.
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;
  /// Delete a file (no-op when absent).
  virtual void remove(const std::string& path) = 0;
  virtual void sync() = 0;

  std::uint64_t sync_count() const { return syncs_; }

 protected:
  std::uint64_t syncs_ = 0;
};

/// In-memory implementation: the "disk" of the crash-replay harness.
/// Outlives the platform being crashed; also exposes raw mutation
/// helpers so fuzz tests can tear and bit-flip recorded logs.
class MemFs : public DurableFs {
 public:
  void write(const std::string& path, const std::string& bytes) override;
  void append(const std::string& path, const std::string& bytes) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  void sync() override { ++syncs_; }

  // --- fault-injection helpers (tests only) --------------------------
  /// Drop the last `n` bytes of `path` — a torn tail, as a crash
  /// mid-append would leave. No-op when the file is absent.
  void truncate_tail(const std::string& path, std::size_t n);
  /// XOR one byte of `path` with `mask` (corruption in place).
  void flip_byte(const std::string& path, std::size_t offset,
                 unsigned char mask = 0x01);

  std::size_t file_count() const { return files_.size(); }

 private:
  std::map<std::string, std::string> files_;
};

/// On-disk (POSIX) implementation rooted at a directory; used by the
/// benches so WAL overhead includes real file IO. write() goes through a
/// "<path>.tmp" sibling and a rename, so replacement is atomic; list()
/// never returns such temp files. Missing directories are created on
/// demand, only when opening a file fails for want of them. sync()
/// fsyncs every file written or appended since the last barrier, then
/// every directory whose entries changed since then: the parent of each
/// file created, renamed or removed and of each directory created.
class RealFs : public DurableFs {
 public:
  explicit RealFs(std::string root);

  void write(const std::string& path, const std::string& bytes) override;
  void append(const std::string& path, const std::string& bytes) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  void sync() override;

  const std::string& root() const { return root_; }

 private:
  std::string full(const std::string& path) const;
  /// Open `target` with `flags` (which include O_CREAT); on ENOENT create
  /// its missing parent directories and retry. Returns the descriptor.
  int open_creating(const std::string& target, int flags);
  /// Create `dir` and any missing ancestors, marking the parent of each
  /// one created as dirty.
  void create_missing_dirs(const std::string& dir);
  void mark_parent_dirty(const std::string& target);

  std::string root_;
  std::vector<std::string> dirty_files_;  // full paths pending an fsync
  std::vector<std::string> dirty_dirs_;   // directories with changed entries
};

}  // namespace osprey::util
