// Metadata buffer cache (Linux 2.4 buffer-cache analogue).
//
// Every metadata block the file system touches — inode-table blocks,
// directory blocks, bitmaps, indirect blocks — flows through this cache.
// This is the "aggressive meta-data caching" half of the paper's
// explanation for iSCSI's meta-data win: once a 4 KB block of inodes or
// directory entries is resident, later operations with locality cost no
// network messages at all.
//
// Dirty blocks are pinned by the journal (they may not be dropped until
// checkpointed); clean blocks are evictable LRU.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "block/device.h"
#include "core/buffer_pool.h"
#include "core/intrusive_list.h"
#include "sim/stats.h"

namespace netstore::fs {

class Bcache {
 public:
  Bcache(block::BlockDevice& dev, std::uint64_t capacity_blocks);

  /// Returns the buffer for `lba`, reading it from the device on a miss
  /// (blocking).  The reference is valid until the next Bcache call.
  /// Mutable access: a block still shared with a fork is un-shared here,
  /// lazily, so fork cost is O(blocks touched afterwards).
  block::BlockBuf& get(block::Lba lba);

  /// A private copy of the block's current contents, as a pooled frame —
  /// what the journal logs and checkpoints hand the device.  A copy, not
  /// a share: file-system code mutates cached blocks through references
  /// held across calls, and a frame the device had adopted would carry
  /// those later writes onto the disk image ahead of their transaction.
  /// Counter and recency behaviour is identical to get() (one hit or
  /// miss, one LRU touch).
  [[nodiscard]] core::BufRef snapshot(block::Lba lba);

  /// Returns a zeroed buffer for `lba` *without* reading the device — for
  /// freshly allocated blocks the caller fully initializes.
  block::BlockBuf& get_new(block::Lba lba);

  /// Marks `lba` dirty and pins it (journal will checkpoint it later).
  void mark_dirty(block::Lba lba);

  [[nodiscard]] bool is_dirty(block::Lba lba) const;

  /// Writes a dirty block in place on the device and clears its dirty bit.
  /// `mode` is forwarded to the device.  No-op for clean/absent blocks.
  void checkpoint(block::Lba lba, block::WriteMode mode);

  /// Clears the dirty bit without writing — used by the journal when it
  /// has written the block itself as part of a coalesced checkpoint run.
  void note_checkpointed(block::Lba lba);

  /// Drops every block; asserts none dirty (call after checkpointing).
  void drop_clean_all();

  /// Crash: drops everything including dirty blocks (data loss).
  void crash();

  [[nodiscard]] std::uint64_t resident() const { return map_.size(); }
  [[nodiscard]] std::uint64_t dirty_count() const { return dirty_count_; }
  [[nodiscard]] const sim::Counter& hits() const { return hits_; }
  [[nodiscard]] const sim::Counter& misses() const { return misses_; }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] sim::Counter& hits_counter() { return hits_; }
  [[nodiscard]] sim::Counter& misses_counter() { return misses_; }

  /// Deep copy for checkpoint/fork, rehomed onto `dev` (the cloned world's
  /// device).  Buffers, dirty bits, counters, and the exact LRU recency
  /// order carry over.  CHECK-fails if any entry is mid-load — a loading
  /// entry means a device read is on the stack, which a quiesced fork
  /// rules out.
  [[nodiscard]] std::unique_ptr<Bcache> clone(block::BlockDevice& dev) const;

 private:
  struct Entry {
    core::ListLink<Entry> lru;  // intrusive LRU links (core::LruList)
    block::Lba lba = 0;
    core::BufRef buf;  // pooled frame, shared with clones until written
    bool dirty = false;
    // Set while the buffer is being filled from the device.  The device
    // read advances the virtual clock, which can fire the journal-commit
    // daemon and re-enter this cache; a loading entry must not be evicted
    // under the foot of its in-flight insert().
    bool loading = false;
  };

  /// Hit/miss-counted, LRU-touching lookup; reads the block on a miss.
  Entry& lookup(block::Lba lba);
  Entry& insert(block::Lba lba, bool read_from_device);
  [[nodiscard]] static core::BufRef copy_of(const core::BufRef& src);
  void maybe_evict();

  block::BlockDevice& dev_;
  std::uint64_t capacity_;
  // LRU links live inside the map nodes (address-stable): one allocation
  // per entry, one hash lookup per touch, references stable across
  // re-entrant inserts exactly as with the old iterator-list design.
  std::unordered_map<block::Lba, Entry> map_;
  core::LruList<Entry> lru_;  // front = most recently used
  std::uint64_t dirty_count_ = 0;
  sim::Counter hits_;
  sim::Counter misses_;
};

}  // namespace netstore::fs
