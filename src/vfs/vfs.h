// VFS: the system-call surface the benchmarks drive.
//
// Table 1's seventeen file/directory system calls plus the data path.
// Two implementations mirror Figure 1: LocalVfs runs a local ext3 over a
// (possibly iSCSI-remote) block device; NfsVfs forwards to the NFS client.
// Each call charges the configured client CPU cost, so client utilization
// (Table 10) falls out of the same instrumentation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fs/types.h"
#include "obs/trace.h"
#include "sim/env.h"

namespace netstore::vfs {

/// File descriptor handle (opaque; maps to inode/file handle inside).
using Fd = std::uint64_t;

/// Everything the testbed observes about the syscall surface, folded into
/// one interface: per-call client CPU cost and the per-request trace-span
/// lifecycle.  A call's kind is its obs::Op request class.  The Testbed
/// installs a single Instrumentation object instead of wiring N
/// std::function hooks.
class Instrumentation {
 public:
  virtual ~Instrumentation() = default;

  /// Client CPU cost of the call; charged (clock advanced) at entry.
  virtual sim::Duration syscall_cost(sim::Time at, obs::Op kind,
                                     std::uint32_t bytes) = 0;

  /// Trace-span lifecycle around every syscall.  enter runs before the
  /// CPU cost is charged; exit runs when the call returns.
  virtual void syscall_enter(sim::Time at, obs::Op kind,
                             std::uint32_t bytes) = 0;
  virtual void syscall_exit(sim::Time at, obs::Op kind) = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual fs::Status mkdir(const std::string& path, std::uint16_t perm) = 0;
  virtual fs::Status chdir(const std::string& path) = 0;
  virtual fs::Result<std::vector<fs::DirEntry>> readdir(
      const std::string& path) = 0;
  virtual fs::Status symlink(const std::string& target,
                             const std::string& linkpath) = 0;
  virtual fs::Result<std::string> readlink(const std::string& path) = 0;
  virtual fs::Status unlink(const std::string& path) = 0;
  virtual fs::Status rmdir(const std::string& path) = 0;
  virtual fs::Result<Fd> creat(const std::string& path,
                               std::uint16_t perm) = 0;
  virtual fs::Result<Fd> open(const std::string& path) = 0;
  virtual fs::Status close(Fd fd) = 0;
  virtual fs::Status link(const std::string& existing,
                          const std::string& linkpath) = 0;
  virtual fs::Status rename(const std::string& from, const std::string& to) = 0;
  virtual fs::Status truncate(const std::string& path, std::uint64_t size) = 0;
  virtual fs::Status chmod(const std::string& path, std::uint16_t perm) = 0;
  virtual fs::Status chown(const std::string& path, std::uint32_t uid,
                           std::uint32_t gid) = 0;
  virtual fs::Status access(const std::string& path, int amode) = 0;
  virtual fs::Result<fs::Attr> stat(const std::string& path) = 0;
  virtual fs::Status utime(const std::string& path, sim::Time atime,
                           sim::Time mtime) = 0;

  virtual fs::Result<std::uint32_t> read(Fd fd, std::uint64_t off,
                                         std::span<std::uint8_t> out) = 0;
  virtual fs::Result<std::uint32_t> write(
      Fd fd, std::uint64_t off, std::span<const std::uint8_t> in) = 0;
  virtual fs::Status fsync(Fd fd) = 0;

  /// Installs the (non-owning) instrumentation object; null disables.
  void set_instrumentation(Instrumentation* in) { instr_ = in; }

 protected:
  /// RAII syscall bracket: implementations open one at the top of every
  /// syscall.  Entry opens the trace span and charges the client CPU
  /// cost; destruction closes the span when the call returns.
  class ScopedSyscall {
   public:
    ScopedSyscall(Vfs& vfs, sim::Env& env, obs::Op kind,
                  std::uint32_t bytes)
        : instr_(vfs.instr_), env_(env), kind_(kind) {
      if (instr_ == nullptr) return;
      instr_->syscall_enter(env_.now(), kind_, bytes);
      env_.advance(instr_->syscall_cost(env_.now(), kind_, bytes));
    }
    ~ScopedSyscall() {
      if (instr_ != nullptr) instr_->syscall_exit(env_.now(), kind_);
    }
    ScopedSyscall(const ScopedSyscall&) = delete;
    ScopedSyscall& operator=(const ScopedSyscall&) = delete;

   private:
    Instrumentation* instr_;
    sim::Env& env_;
    obs::Op kind_;
  };

 private:
  Instrumentation* instr_ = nullptr;
};

}  // namespace netstore::vfs
