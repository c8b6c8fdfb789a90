// ext3-like journaling file system.
//
// This is the file system the paper's iSCSI client runs locally over the
// remote block device, and the one the NFS server runs over its local
// array (Figure 2).  It provides:
//   * a real on-disk format (superblock, group descriptors, bitmaps,
//     inode tables, ext2-style directory blocks, indirect blocks),
//   * metadata caching through Bcache (block-granularity, so inode and
//     directory locality pays off — §4.1 of the paper),
//   * a JBD-style journal with a 5 s commit interval (update
//     aggregation — §4.2),
//   * a page cache with read-ahead and asynchronous write-back.
//
// The inode-level API mirrors what a VFS asks of a file system; the
// path-level API layers resolution on top.  The NFS server uses the
// inode-level API directly (file handles are inode numbers).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/device.h"
#include "core/iovec.h"
#include "fs/bcache.h"
#include "fs/journal.h"
#include "fs/layout.h"
#include "fs/page_cache.h"
#include "fs/types.h"
#include "sim/env.h"
#include "sim/task.h"

namespace netstore::fs {

struct Ext3Params {
  std::uint64_t bcache_capacity_blocks = 32768;  // 128 MB metadata cache
  PageCacheParams page_cache;
  sim::Duration commit_interval = sim::seconds(5);
  bool update_atime = true;
  // Read-ahead: window starts at `readahead_min` pages on a sequential
  // streak and doubles up to `readahead_max` (Linux 2.4's effective
  // pipeline was shallow — about 8 outstanding pages).
  std::uint32_t readahead_min = 4;
  std::uint32_t readahead_max = 8;
  // Runtime invariant audits (journal commit ordering); survives remounts
  // because the journal inherits it on every mount.
  bool invariant_audits = false;
};

struct MkfsOptions {
  std::uint32_t inodes_per_group = 8192;
  std::uint32_t journal_blocks = 8192;  // 32 MB journal
};

class Ext3Fs {
 public:
  Ext3Fs(sim::Env& env, block::BlockDevice& dev, Ext3Params params);
  ~Ext3Fs();

  Ext3Fs(const Ext3Fs&) = delete;
  Ext3Fs& operator=(const Ext3Fs&) = delete;

  /// Formats the device (writes superblock, group metadata, root inode).
  static void mkfs(block::BlockDevice& dev, const MkfsOptions& opts);

  /// Mounts: reads the superblock and group descriptors, replays the
  /// journal if the file system is dirty.
  void mount();

  /// Unmounts: flushes data, commits and checkpoints the journal, marks
  /// the superblock clean, drops every cache (cold-cache emulation).
  void unmount();

  /// sync(2): flush data pages, commit + checkpoint metadata.
  void sync();

  /// Simulated client crash: caches dropped, nothing flushed.  Data and
  /// metadata not yet committed/written are lost (§2.3's trade-off).
  void crash();

  [[nodiscard]] bool mounted() const { return mounted_; }

  // --- inode-level API ---
  Result<Ino> lookup(Ino dir, const std::string& name);
  Result<Attr> getattr(Ino ino);
  Status access(Ino ino, int amode);
  Result<Ino> create(Ino dir, const std::string& name, std::uint16_t perm);
  Result<Ino> mkdir(Ino dir, const std::string& name, std::uint16_t perm);
  Result<Ino> symlink(Ino dir, const std::string& name,
                      const std::string& target);
  Status link(Ino dir, const std::string& name, Ino target);
  Status unlink(Ino dir, const std::string& name);
  Status rmdir(Ino dir, const std::string& name);
  Status rename(Ino sdir, const std::string& sname, Ino ddir,
                const std::string& dname);
  Result<std::vector<DirEntry>> readdir(Ino dir);
  Result<std::string> readlink(Ino ino);
  Status setattr(Ino ino, const SetAttr& sa);
  /// Reads into a user buffer: the one payload copy of the read path.
  Result<std::uint32_t> read(Ino ino, std::uint64_t off,
                             std::span<std::uint8_t> out);
  /// Zero-copy read: appends shared slices of the resident page frames to
  /// `out` instead of copying into a caller buffer.  Same page walk as
  /// read().  `want` is the byte count; at most `want / kBlockSize + 2`
  /// slices are appended, so callers must keep requests within
  /// IoVec::kMaxSlices blocks.
  Result<std::uint32_t> read_refs(Ino ino, std::uint64_t off,
                                  std::uint32_t want, core::IoVec& out);
  Result<std::uint32_t> write(Ino ino, std::uint64_t off,
                              std::span<const std::uint8_t> in);
  /// Zero-copy write: consumes pooled-frame slices.  Whole aligned blocks
  /// are adopted by the page cache (copy-on-write isolates aliases);
  /// sub-block slices merge into resident pages.  Allocation, size, and
  /// timestamp semantics identical to write().
  Result<std::uint32_t> write_iov(Ino ino, std::uint64_t off,
                                  const core::IoVec& in);
  Status fsync(Ino ino);

  // --- path-level API ---
  /// Resolves an absolute path to an inode, following intermediate (and,
  /// if `follow_last`, trailing) symlinks.
  Result<Ino> resolve(const std::string& path, bool follow_last = true);
  /// Resolves the parent directory of `path`; `leaf` receives the final
  /// component.
  Result<Ino> resolve_parent(const std::string& path, std::string& leaf);

  /// Deep copy for checkpoint/fork, rehomed onto the cloned world's
  /// env/device: superblock, group descriptors, both caches (LRU order
  /// preserved), journal state, and per-inode read-ahead cursors.  The
  /// source must be quiescent (no scheduled journal commit or flusher
  /// tick) — the component clones CHECK this.
  [[nodiscard]] std::unique_ptr<Ext3Fs> clone(sim::Env& env,
                                              block::BlockDevice& dev) const;

  // --- internals exposed for instrumentation and tests ---
  [[nodiscard]] Bcache& bcache() { return *bcache_; }
  [[nodiscard]] PageCache& pages() { return *pages_; }
  [[nodiscard]] Journal& journal() { return *journal_; }
  [[nodiscard]] const SuperBlock& superblock() const { return sb_; }
  [[nodiscard]] std::uint64_t free_blocks() const;
  [[nodiscard]] std::uint64_t free_inodes() const;

 private:
  struct InodeLoc {
    std::uint32_t group;
    block::Lba table_block;
    std::uint32_t byte_offset;
  };

  [[nodiscard]] InodeLoc locate(Ino ino) const;
  RawInode read_inode(Ino ino);
  void write_inode(Ino ino, const RawInode& ri);

  /// Allocates an inode; directories spread across groups, files go to
  /// the parent's group (Orlov-lite).
  Result<Ino> alloc_inode(bool is_dir, std::uint32_t parent_group);
  void free_inode(Ino ino);
  Result<block::Lba> alloc_block(std::uint32_t goal_group);
  void free_block(block::Lba lba);
  void update_group_desc(std::uint32_t group);

  /// Maps file block `index` to a device LBA; allocates (journaled) when
  /// `alloc`.  Returns 0 for holes when !alloc.
  Result<block::Lba> bmap(Ino ino, RawInode& ri, std::uint64_t index,
                          bool alloc, bool& inode_dirtied);

  /// Maps (allocating) the block holding byte `pos` for a write of `len`
  /// bytes there; a partial overwrite of existing data first faults the
  /// old contents into the page cache.
  Result<block::Lba> map_for_write(Ino ino, RawInode& ri, std::uint64_t pos,
                                   std::uint32_t len, bool& inode_dirtied);

  /// Frees all data blocks at or beyond `from_index` (truncate helper).
  void free_blocks_from(Ino ino, RawInode& ri, std::uint64_t from_index);

  // Directory block helpers.
  Result<Ino> dir_find(Ino dir, RawInode& dri, const std::string& name,
                       FileType* type_out = nullptr);
  Status dir_add(Ino dir, RawInode& dri, const std::string& name, Ino ino,
                 FileType type);
  Status dir_remove(Ino dir, RawInode& dri, const std::string& name);
  Result<bool> dir_empty(Ino dir, RawInode& dri);

  /// The page walk behind read() and read_refs(): faults the pages
  /// covering [off, off + min(want, size - off)) into the page cache
  /// (demand runs, holes, read-ahead), calls visit(page, page_off, len,
  /// done) per page chunk, and updates atime once.  Returns bytes walked.
  Result<std::uint32_t> walk_pages(
      Ino ino, std::uint64_t off, std::uint64_t want,
      sim::FuncRef<void(const core::BufRef&, std::uint32_t, std::uint32_t,
                        std::uint32_t)>
          visit);

  void do_readahead(Ino ino, RawInode& ri, std::uint64_t index);

  Status remove_common(Ino dir, const std::string& name, bool want_dir);

  sim::Env& env_;
  block::BlockDevice& dev_;
  Ext3Params params_;
  SuperBlock sb_;
  std::vector<GroupDesc> groups_;
  std::unique_ptr<Bcache> bcache_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<PageCache> pages_;
  bool mounted_ = false;

  struct ReadState {
    std::uint64_t last_index = ~0ull;
    std::uint32_t streak = 0;
    std::uint32_t window = 0;
  };
  std::unordered_map<Ino, ReadState> readstate_;
};

}  // namespace netstore::fs
