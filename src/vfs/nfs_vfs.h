// NfsVfs: syscalls forwarded to the NFS client (the file-access stack).
#pragma once

#include "nfs/client.h"
#include "vfs/vfs.h"

namespace netstore::vfs {

class NfsVfs final : public Vfs {
 public:
  NfsVfs(sim::Env& env, nfs::NfsClient& client) : env_(env), client_(client) {}

  fs::Status mkdir(const std::string& path, std::uint16_t perm) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.mkdir(path, perm);
  }
  fs::Status chdir(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.chdir(path);
  }
  fs::Result<std::vector<fs::DirEntry>> readdir(
      const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.readdir(path);
  }
  fs::Status symlink(const std::string& target,
                     const std::string& linkpath) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    fs::Result<fs::Ino> r = client_.symlink(target, linkpath);
    return r ? fs::Status::Ok() : fs::Status(r.error());
  }
  fs::Result<std::string> readlink(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.readlink(path);
  }
  fs::Status unlink(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.unlink(path);
  }
  fs::Status rmdir(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.rmdir(path);
  }
  fs::Result<Fd> creat(const std::string& path, std::uint16_t perm) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kOpen, 0);
    fs::Result<nfs::Fh> r = client_.creat(path, perm);
    if (!r) return r.error();
    return static_cast<Fd>(*r);
  }
  fs::Result<Fd> open(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kOpen, 0);
    fs::Result<nfs::Fh> r = client_.open(path);
    if (!r) return r.error();
    return static_cast<Fd>(*r);
  }
  fs::Status close(Fd fd) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kClose, 0);
    return client_.close(fd);
  }
  fs::Status link(const std::string& existing,
                  const std::string& linkpath) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.link(existing, linkpath);
  }
  fs::Status rename(const std::string& from, const std::string& to) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.rename(from, to);
  }
  fs::Status truncate(const std::string& path, std::uint64_t size) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.truncate(path, size);
  }
  fs::Status chmod(const std::string& path, std::uint16_t perm) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.chmod(path, perm);
  }
  fs::Status chown(const std::string& path, std::uint32_t uid,
                   std::uint32_t gid) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.chown(path, uid, gid);
  }
  fs::Status access(const std::string& path, int amode) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.access(path, amode);
  }
  fs::Result<fs::Attr> stat(const std::string& path) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.stat(path);
  }
  fs::Status utime(const std::string& path, sim::Time atime,
                   sim::Time mtime) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.utime(path, atime, mtime);
  }
  fs::Result<std::uint32_t> read(Fd fd, std::uint64_t off,
                                 std::span<std::uint8_t> out) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kRead, static_cast<std::uint32_t>(out.size()));
    return client_.read(fd, off, out);
  }
  fs::Result<std::uint32_t> write(Fd fd, std::uint64_t off,
                                  std::span<const std::uint8_t> in) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kWrite, static_cast<std::uint32_t>(in.size()));
    return client_.write(fd, off, in);
  }
  fs::Status fsync(Fd fd) override {
    ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
    return client_.fsync(fd);
  }

 private:
  sim::Env& env_;
  nfs::NfsClient& client_;
};

}  // namespace netstore::vfs
