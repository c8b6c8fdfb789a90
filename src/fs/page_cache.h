// File-data page cache with read-ahead and age/pressure-based write-back.
//
// Models the Linux 2.4 page cache + bdflush/kupdated behaviour the paper's
// iSCSI client relied on: data writes land in memory and are flushed
// asynchronously (large coalesced writes — the 128 KB mean request size of
// Table 4), while sequential reads trigger a read-ahead window.
//
// Pages remember the disk block they map to (assigned by the file system
// at insertion), so write-back needs no callback into the FS.
//
// Layout (see core/intrusive_list.h): one map node per page, one hash
// lookup per touch.  Each node is threaded onto the cache-wide LRU, its
// inode's page list and, while dirty, its inode's dirty sublist; inodes
// with dirty pages sit on a dirty-inode list.  So fsync, truncate and
// unlink cost O(that inode's pages), the periodic and high-water flushes
// O(dirty pages), and nothing walks the whole cache.  Write-back sorts
// its victims by LBA before coalescing, so the device write stream does
// not depend on the order the lists hold pages in, and it hands the
// pages' frames to the device, which adopts them instead of copying.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "block/device.h"
#include "core/buffer_pool.h"
#include "core/intrusive_list.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "fs/types.h"

namespace netstore::fs {

struct PageCacheParams {
  std::uint64_t capacity_pages = 64 * 1024;      // 256 MB
  std::uint64_t dirty_high_water = 16 * 1024;    // start write-back beyond
  sim::Duration flush_interval = sim::seconds(5);   // kupdated period
  sim::Duration max_dirty_age = sim::seconds(30);   // flush pages older
};

struct PageCacheStats {
  sim::Counter hits;
  sim::Counter misses;
  sim::Counter writeback_pages;
  sim::Counter readahead_pages;
};

class PageCache {
 public:
  PageCache(sim::Env& env, block::BlockDevice& dev, PageCacheParams params);

  /// Looks up (ino, page index).  On a hit returns the resident page's
  /// pool handle (share it to keep the frame past the next cache
  /// operation), blocking until any in-flight read-ahead for it
  /// completes.  nullptr on miss.
  const core::BufRef* find_ref(Ino ino, std::uint64_t index);

  /// True if the page is resident or in flight (no blocking).
  [[nodiscard]] bool contains(Ino ino, std::uint64_t index) const;

  /// Inserts a clean page read from `lba` by adopting a pooled handle
  /// (straight from BlockDevice::read or the pool zero page); `ready_at`
  /// is when the data is valid (read-ahead completion time; use
  /// env.now() for demand reads).
  void insert_clean_ref(Ino ino, std::uint64_t index, block::Lba lba,
                        core::BufRef data, sim::Time ready_at);

  /// Marks the page dirty and lets `fill` write its new contents into it.
  /// The page is created zero-filled if absent.  `lba` is the disk block
  /// backing it.  Crossing the dirty high-water mark writes everything
  /// back only after `fill` has run — Linux 2.4's commit_write ->
  /// balance_dirty order — so the flush carries the new contents.
  void write_page(Ino ino, std::uint64_t index, block::Lba lba,
                  sim::FuncRef<void(block::BlockBuf&)> fill);

  /// Full-block dirty install: adopts `data` as the page's new contents
  /// and marks it dirty, for payloads that already live in pooled frames
  /// (an IoVec slice covering the whole block).  Same dirty accounting,
  /// flusher scheduling, and high-water behaviour as write_page().
  void install_dirty(Ino ino, std::uint64_t index, block::Lba lba,
                     core::BufRef data);

  /// Drops all pages of `ino` at or beyond `from_index` (truncate/unlink);
  /// dirty contents are discarded.
  void drop_inode(Ino ino, std::uint64_t from_index = 0);

  /// fsync: writes `ino`'s dirty pages and blocks until durable.
  void flush_inode(Ino ino);

  /// Writes every dirty page (async).  `wait` adds a device flush barrier.
  void flush_all(bool wait);

  /// Unmount: flush and drop everything.
  void clear();

  /// Crash: dirty data is lost.
  void crash();

  [[nodiscard]] const PageCacheStats& stats() const { return stats_; }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] PageCacheStats& mutable_stats() { return stats_; }
  [[nodiscard]] std::uint64_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_count_; }

  /// True while a flusher tick is scheduled (quiescence probe).
  [[nodiscard]] bool flusher_scheduled() const { return flusher_scheduled_; }

  /// CHECK-fails unless the per-inode index agrees with the page map:
  /// every page is on its own inode's list and on the LRU, exactly the
  /// dirty pages are on dirty sublists, `dirty_pages()` counts them, and
  /// exactly the inodes with dirty pages are on the dirty-inode list.
  /// O(resident pages); runs at clone and in audited quiesce.
  void check_index() const;

  /// Deep copy for checkpoint/fork, rehomed onto the cloned world's
  /// env/device.  Pages (contents, dirty bits, read-ahead deadlines) and
  /// the exact LRU recency order carry over; the clone gets a fresh
  /// `alive_` guard since a quiesced source has no callbacks in flight.
  /// CHECK-fails if a flusher tick is still scheduled.
  [[nodiscard]] std::unique_ptr<PageCache> clone(sim::Env& env,
                                                 block::BlockDevice& dev) const;

 private:
  struct Key {
    Ino ino;
    std::uint64_t index;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Full splitmix64 mix of both words.  A plain multiply-XOR left the
      // index's low bits unmixed, so consecutive pages of one inode filled
      // consecutive buckets and collided with other inodes' runs.
      return static_cast<std::size_t>(
          sim::mix64(k.ino ^ sim::mix64(k.index)));
    }
  };
  struct InodePages;
  struct Page {
    core::ListLink<Page> lru;         // cache-wide recency (core::LruList)
    core::ListLink<Page> file;        // owner->pages
    core::ListLink<Page> dirty_link;  // owner->dirty, while dirty
    InodePages* owner = nullptr;      // this inode's record in inodes_
    Key key{};          // owning map key, for erase via a list walk
    core::BufRef data;  // pooled frame; may be shared with a fork, the
                        // bcache below, or the disk store
    block::Lba lba = 0;
    bool dirty = false;
    sim::Time ready_at = 0;     // read-ahead completion
    sim::Time dirty_since = 0;  // first dirtying in this epoch
  };
  /// One inode's pages (Linux 2.4's address_space).  Exists exactly while
  /// the inode has a resident page.
  struct InodePages {
    core::IntrusiveList<Page, &Page::file> pages;
    core::IntrusiveList<Page, &Page::dirty_link> dirty;
    core::ListLink<InodePages> dirty_inodes;  // on dirty_inodes_ iff
                                              // `dirty` is non-empty
  };

  Page* lookup(Ino ino, std::uint64_t index);
  Page& emplace(Ino ino, std::uint64_t index, block::Lba lba);
  void evict_if_needed();
  /// Unlinks `p` from every list and erases it, and its inode's record
  /// with it when `p` was the inode's last page.
  void erase(Page* p);
  /// Looks up or creates the page (waiting out an in-flight read-ahead)
  /// and marks it dirty, backed by `lba`.
  Page& dirty_page(Ino ino, std::uint64_t index, block::Lba lba);
  /// Takes a dirty page off its inode's dirty sublist and the count.
  void mark_clean(Page* p);
  /// Arms the flusher and, over the dirty high-water mark, writes back.
  void balance_dirty();
  /// Writes back every page dirtied at or before `dirtied_by` (by
  /// default, every dirty page).
  void writeback_dirty(
      sim::Time dirtied_by = std::numeric_limits<sim::Time>::max());
  /// Writes `victims` (dirty pages) in LBA order, coalescing LBA-contiguous
  /// runs into one device write each; async.
  void writeback(std::vector<Page*>& victims);
  void schedule_flusher();

  sim::Env& env_;
  block::BlockDevice& dev_;
  PageCacheParams params_;
  // Guards scheduled flusher callbacks against outliving this object
  // (remount destroys the cache while events may still be queued).
  // netstore: not_cloned -- each instance mints a fresh liveness token;
  // copying it would let the source's scheduled callbacks fire in the clone
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  std::unordered_map<Key, Page, KeyHash> pages_;
  core::LruList<Page> lru_;  // front = most recent
  std::unordered_map<Ino, InodePages> inodes_;  // per-inode page index
  core::IntrusiveList<InodePages, &InodePages::dirty_inodes> dirty_inodes_;
  std::uint64_t dirty_count_ = 0;
  bool flusher_scheduled_ = false;
  bool stopped_ = false;
  PageCacheStats stats_;
};

}  // namespace netstore::fs
