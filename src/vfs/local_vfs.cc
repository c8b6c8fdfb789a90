#include "vfs/local_vfs.h"

namespace netstore::vfs {

fs::Status LocalVfs::mkdir(const std::string& path, std::uint16_t perm) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(path, leaf);
  if (!parent) return parent.error();
  fs::Result<fs::Ino> r = fs_.mkdir(*parent, leaf, perm);
  return r ? fs::Status::Ok() : fs::Status(r.error());
}

fs::Status LocalVfs::chdir(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  fs::Result<fs::Attr> a = fs_.getattr(*ino);
  if (!a) return a.error();
  if (a->type() != fs::FileType::kDirectory) return fs::Err::kNotDir;
  return fs::Status::Ok();
}

fs::Result<std::vector<fs::DirEntry>> LocalVfs::readdir(
    const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  return fs_.readdir(*ino);
}

fs::Status LocalVfs::symlink(const std::string& target,
                             const std::string& linkpath) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(linkpath, leaf);
  if (!parent) return parent.error();
  fs::Result<fs::Ino> r = fs_.symlink(*parent, leaf, target);
  return r ? fs::Status::Ok() : fs::Status(r.error());
}

fs::Result<std::string> LocalVfs::readlink(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path, /*follow_last=*/false);
  if (!ino) return ino.error();
  return fs_.readlink(*ino);
}

fs::Status LocalVfs::unlink(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(path, leaf);
  if (!parent) return parent.error();
  return fs_.unlink(*parent, leaf);
}

fs::Status LocalVfs::rmdir(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(path, leaf);
  if (!parent) return parent.error();
  return fs_.rmdir(*parent, leaf);
}

fs::Result<Fd> LocalVfs::creat(const std::string& path, std::uint16_t perm) {
  ScopedSyscall scoped(*this, env_, obs::Op::kOpen, 0);
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(path, leaf);
  if (!parent) return parent.error();
  fs::Result<fs::Ino> existing = fs_.lookup(*parent, leaf);
  if (existing) {
    fs::SetAttr sa;
    sa.size = 0;  // creat truncates
    if (fs::Status s = fs_.setattr(*existing, sa); !s) return s.error();
    return static_cast<Fd>(*existing);
  }
  fs::Result<fs::Ino> r = fs_.create(*parent, leaf, perm);
  if (!r) return r.error();
  return static_cast<Fd>(*r);
}

fs::Result<Fd> LocalVfs::open(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kOpen, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  return static_cast<Fd>(*ino);
}

fs::Status LocalVfs::close(Fd) {
  ScopedSyscall scoped(*this, env_, obs::Op::kClose, 0);
  return fs::Status::Ok();
}

fs::Status LocalVfs::link(const std::string& existing,
                          const std::string& linkpath) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> target = fs_.resolve(existing);
  if (!target) return target.error();
  std::string leaf;
  fs::Result<fs::Ino> parent = fs_.resolve_parent(linkpath, leaf);
  if (!parent) return parent.error();
  return fs_.link(*parent, leaf, *target);
}

fs::Status LocalVfs::rename(const std::string& from, const std::string& to) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  std::string sleaf;
  fs::Result<fs::Ino> sdir = fs_.resolve_parent(from, sleaf);
  if (!sdir) return sdir.error();
  std::string dleaf;
  fs::Result<fs::Ino> ddir = fs_.resolve_parent(to, dleaf);
  if (!ddir) return ddir.error();
  return fs_.rename(*sdir, sleaf, *ddir, dleaf);
}

fs::Status LocalVfs::truncate(const std::string& path, std::uint64_t size) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  fs::SetAttr sa;
  sa.size = static_cast<std::int64_t>(size);
  return fs_.setattr(*ino, sa);
}

fs::Status LocalVfs::chmod(const std::string& path, std::uint16_t perm) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  fs::SetAttr sa;
  sa.mode = perm;
  return fs_.setattr(*ino, sa);
}

fs::Status LocalVfs::chown(const std::string& path, std::uint32_t uid,
                           std::uint32_t gid) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  fs::SetAttr sa;
  sa.uid = uid;
  sa.gid = gid;
  return fs_.setattr(*ino, sa);
}

fs::Status LocalVfs::access(const std::string& path, int amode) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  return fs_.access(*ino, amode);
}

fs::Result<fs::Attr> LocalVfs::stat(const std::string& path) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  return fs_.getattr(*ino);
}

fs::Status LocalVfs::utime(const std::string& path, sim::Time atime,
                           sim::Time mtime) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  fs::Result<fs::Ino> ino = fs_.resolve(path);
  if (!ino) return ino.error();
  fs::SetAttr sa;
  sa.atime = atime;
  sa.mtime = mtime;
  return fs_.setattr(*ino, sa);
}

fs::Result<std::uint32_t> LocalVfs::read(Fd fd, std::uint64_t off,
                                         std::span<std::uint8_t> out) {
  ScopedSyscall scoped(*this, env_, obs::Op::kRead, static_cast<std::uint32_t>(out.size()));
  return fs_.read(fd, off, out);
}

fs::Result<std::uint32_t> LocalVfs::write(Fd fd, std::uint64_t off,
                                          std::span<const std::uint8_t> in) {
  ScopedSyscall scoped(*this, env_, obs::Op::kWrite, static_cast<std::uint32_t>(in.size()));
  return fs_.write(fd, off, in);
}

fs::Status LocalVfs::fsync(Fd fd) {
  ScopedSyscall scoped(*this, env_, obs::Op::kMeta, 0);
  return fs_.fsync(fd);
}

}  // namespace netstore::vfs
