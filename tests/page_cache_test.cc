// Behavioural contract for fs::PageCache, written against the std::list
// LRU implementation and kept byte-for-byte identical across the intrusive
// rewrite and the per-inode page index: eviction ordering, drop_inode
// racing in-flight read-ahead, dirty high-water write-back, per-inode and
// age-based write-back, and clone fidelity.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <span>
#include <vector>

#include "block/block.h"
#include "block/mem_device.h"
#include "core/buffer_pool.h"
#include "fs/page_cache.h"
#include "sim/env.h"

namespace netstore::fs {
namespace {

using block::BlockBuf;
using block::kBlockSize;
using block::Lba;

constexpr Ino kInoA = 10;
constexpr Ino kInoB = 11;

core::BufRef make_block(std::uint8_t fill) {
  core::BufRef b = core::BufferPool::instance().alloc();
  b.mutable_block().fill(fill);
  return b;
}

// Dirties a page without changing its contents.
void dirty(PageCache& cache, Ino ino, std::uint64_t index, Lba lba) {
  cache.write_page(ino, index, lba, [](BlockBuf&) {});
}

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheParams small_params() {
    PageCacheParams p;
    p.capacity_pages = 8;
    p.dirty_high_water = 4;
    return p;
  }

  sim::Env env_;
  block::MemBlockDevice dev_{1 << 16};
};

TEST_F(PageCacheTest, EvictionFollowsLruOrderAmongCleanPages) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x5a);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert_clean_ref(kInoA, i, /*lba=*/100 + i, blk, env_.now());
  }
  ASSERT_EQ(cache.resident_pages(), 8u);

  // Touch pages 0 and 1 so indices 2.. are now the coldest.
  EXPECT_NE(cache.find_ref(kInoA, 0), nullptr);
  EXPECT_NE(cache.find_ref(kInoA, 1), nullptr);

  // Two inserts evict the two coldest pages: 2, then 3.
  cache.insert_clean_ref(kInoB, 0, 200, blk, env_.now());
  cache.insert_clean_ref(kInoB, 1, 201, blk, env_.now());
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_TRUE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
  EXPECT_FALSE(cache.contains(kInoA, 3));
  EXPECT_TRUE(cache.contains(kInoA, 4));
  EXPECT_EQ(cache.resident_pages(), 8u);
}

TEST_F(PageCacheTest, EvictionSkipsDirtyPagesWhileCleanOnesRemain) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x11);
  // Coldest two pages are dirty; they must survive eviction while clean
  // pages exist.
  dirty(cache, kInoA, 0, 100);
  dirty(cache, kInoA, 1, 101);
  for (std::uint64_t i = 2; i < 8; ++i) {
    cache.insert_clean_ref(kInoA, i, 100 + i, blk, env_.now());
  }
  cache.insert_clean_ref(kInoB, 0, 200, blk, env_.now());
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_TRUE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
}

TEST_F(PageCacheTest, AllDirtyCapacityPressureWritesBackThenEvicts) {
  PageCacheParams p = small_params();
  p.dirty_high_water = 100;  // above capacity: pressure comes from eviction
  PageCache cache(env_, dev_, p);
  for (std::uint64_t i = 0; i < 8; ++i) {
    dirty(cache, kInoA, i, 100 + i);
  }
  ASSERT_EQ(cache.dirty_pages(), 8u);
  // The 9th write finds no clean victim: the cache must write everything
  // back (one coalesced run: LBAs are contiguous) and then evict.
  const std::uint64_t writes_before = dev_.writes();
  dirty(cache, kInoA, 8, 108);
  EXPECT_GT(dev_.writes(), writes_before);
  EXPECT_LE(cache.resident_pages(), 8u);
  EXPECT_TRUE(cache.contains(kInoA, 8));
}

TEST_F(PageCacheTest, DirtyHighWaterTriggersCoalescedWriteback) {
  PageCache cache(env_, dev_, small_params());  // high water = 4
  for (std::uint64_t i = 0; i < 4; ++i) {
    dirty(cache, kInoA, i, 300 + i);
    EXPECT_EQ(dev_.writes(), 0u) << "flushed below the high-water mark";
  }
  EXPECT_EQ(cache.dirty_pages(), 4u);
  // Crossing the mark pushes everything out, and the LBA-contiguous run
  // must coalesce into a single device request.
  dirty(cache, kInoA, 4, 304);
  EXPECT_EQ(dev_.writes(), 1u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(cache.stats().writeback_pages.value(), 5u);
  // Pages stay resident (clean) after write-back.
  EXPECT_TRUE(cache.contains(kInoA, 0));
}

TEST_F(PageCacheTest, WritebackCoalescesRunsAcrossDiscontiguousLbas) {
  PageCache cache(env_, dev_, small_params());
  // Two separate LBA runs: {500,501,502} and {900,901}.
  dirty(cache, kInoA, 0, 500);
  dirty(cache, kInoA, 1, 501);
  dirty(cache, kInoA, 2, 502);
  dirty(cache, kInoB, 0, 900);
  cache.flush_all(false);
  EXPECT_EQ(dev_.writes(), 2u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
}

TEST_F(PageCacheTest, DropInodeDiscardsInFlightReadahead) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x77);
  // A read-ahead insert whose data is only valid in the future.
  const sim::Time ready = env_.now() + sim::milliseconds(5);
  cache.insert_clean_ref(kInoA, 3, 103, blk, ready);
  EXPECT_EQ(cache.stats().readahead_pages.value(), 1u);
  ASSERT_TRUE(cache.contains(kInoA, 3));

  // Truncate-to-zero while the read-ahead is still in flight: the page is
  // gone, nothing blocks, and the clock must not jump to `ready`.
  cache.drop_inode(kInoA);
  EXPECT_FALSE(cache.contains(kInoA, 3));
  EXPECT_EQ(cache.find_ref(kInoA, 3), nullptr);
  EXPECT_EQ(env_.now(), sim::Time{0});
  // A fresh demand insert of the same page works normally afterwards.
  cache.insert_clean_ref(kInoA, 3, 103, blk, env_.now());
  EXPECT_NE(cache.find_ref(kInoA, 3), nullptr);
}

TEST_F(PageCacheTest, DropInodeFromIndexKeepsEarlierPagesAndDirtyCount) {
  PageCache cache(env_, dev_, small_params());
  dirty(cache, kInoA, 0, 100);
  dirty(cache, kInoA, 1, 101);
  dirty(cache, kInoA, 2, 102);
  dirty(cache, kInoB, 0, 200);
  ASSERT_EQ(cache.dirty_pages(), 4u);

  cache.drop_inode(kInoA, /*from_index=*/1);  // truncate, keeps page 0
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_FALSE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
  EXPECT_TRUE(cache.contains(kInoB, 0));
  EXPECT_EQ(cache.dirty_pages(), 2u);
  EXPECT_EQ(cache.resident_pages(), 2u);
  // Dropped dirty pages never reach the device: only the two survivors
  // (LBAs 100 and 200, discontiguous, so one request each) get written.
  cache.flush_all(false);
  EXPECT_EQ(dev_.writes(), 2u);
}

TEST_F(PageCacheTest, FindBlocksUntilReadaheadCompletes) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x42);
  const sim::Time ready = env_.now() + sim::milliseconds(3);
  cache.insert_clean_ref(kInoA, 0, 100, blk, ready);
  const core::BufRef* got = cache.find_ref(kInoA, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(env_.now(), ready);
  EXPECT_EQ(got->data()[0], 0x42);
}

TEST_F(PageCacheTest, AgedFlusherWritesOldDirtyPages) {
  PageCacheParams p = small_params();
  p.flush_interval = sim::seconds(5);
  p.max_dirty_age = sim::seconds(30);
  PageCache cache(env_, dev_, p);
  dirty(cache, kInoA, 0, 100);
  // Young dirty data survives early flusher ticks...
  env_.advance(sim::seconds(10));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  // ...but once it ages past max_dirty_age the periodic flusher pushes it.
  env_.advance(sim::seconds(30));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_GE(dev_.writes(), 1u);
}

TEST_F(PageCacheTest, InsertCleanNeverClobbersDirtyData) {
  PageCache cache(env_, dev_, small_params());
  cache.write_page(kInoA, 0, 100, [](BlockBuf& page) { page[0] = 0xee; });
  const core::BufRef stale = make_block(0x00);
  cache.insert_clean_ref(kInoA, 0, 100, stale, env_.now());
  const core::BufRef* got = cache.find_ref(kInoA, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->data()[0], 0xee);
  EXPECT_EQ(cache.dirty_pages(), 1u);
}

TEST_F(PageCacheTest, ClearFlushesAndEmptiesCrashDiscards) {
  PageCache cache(env_, dev_, small_params());
  dirty(cache, kInoA, 0, 100);
  cache.clear();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(dev_.writes(), 1u);
  EXPECT_GE(dev_.flushes(), 1u);

  dirty(cache, kInoA, 1, 101);
  cache.crash();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(dev_.writes(), 1u);  // dirty data lost, not written
  env_.drain();                  // orphaned flusher events stay no-ops
}

// A device whose first write takes long enough, in virtual time, that
// the page cache's periodic flusher fires inside it.
class SlowFirstWriteDevice final : public block::BlockDevice {
 public:
  SlowFirstWriteDevice(sim::Env& env, sim::Duration first_write)
      : env_(env), first_write_(first_write) {}

  [[nodiscard]] std::uint64_t block_count() const override { return 1 << 16; }
  void read(Lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      out.push_back(core::BufferPool::instance().zero_page());
    }
  }
  void write(Lba, std::span<const core::BufRef>, block::WriteMode) override {
    if (writes_++ == 0) env_.advance(first_write_);
  }
  void flush() override {}

  [[nodiscard]] std::uint64_t writes() const { return writes_; }

 private:
  sim::Env& env_;
  sim::Duration first_write_;
  std::uint64_t writes_ = 0;
};

// Write-back re-entered by a flusher tick dispatched inside its own device
// write: the inner pass cleans pages the outer pass still holds as
// victims, and the outer pass must skip them rather than write and
// un-count them a second time (the dirty counter would wrap and the
// flusher would never go quiet).
TEST_F(PageCacheTest, FlusherInsideWritebackDoesNotRecountCleanedPages) {
  SlowFirstWriteDevice dev(env_, sim::seconds(40));
  PageCacheParams p = small_params();
  p.dirty_high_water = 100;
  p.flush_interval = sim::seconds(5);
  p.max_dirty_age = sim::seconds(30);
  PageCache cache(env_, dev, p);
  // Two discontiguous runs: two device writes, the first one slow.
  dirty(cache, kInoA, 0, 100);
  dirty(cache, kInoB, 0, 900);
  cache.flush_all(false);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(dev.writes(), 2u) << "the second run was written twice";
  EXPECT_EQ(cache.stats().writeback_pages.value(), 2u);
}

// A device that records every write request: its start, length in blocks,
// the first byte of each block, and the virtual time it was issued.
class RecordingDevice final : public block::BlockDevice {
 public:
  struct Write {
    Lba lba;
    std::size_t nblocks;
    std::vector<std::uint8_t> first_bytes;
    sim::Time at;
    bool operator==(const Write&) const = default;
  };

  explicit RecordingDevice(sim::Env& env) : env_(env) {}

  [[nodiscard]] std::uint64_t block_count() const override { return 1 << 16; }
  void read(Lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      out.push_back(core::BufferPool::instance().zero_page());
    }
  }
  void write(Lba lba, std::span<const core::BufRef> refs,
             block::WriteMode) override {
    Write w{lba, refs.size(), {}, env_.now()};
    for (const core::BufRef& r : refs) w.first_bytes.push_back(r.data()[0]);
    log_.push_back(std::move(w));
  }
  void flush() override { flushes_++; }

  [[nodiscard]] const std::vector<Write>& log() const { return log_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

 private:
  sim::Env& env_;
  std::vector<Write> log_;
  std::uint64_t flushes_ = 0;
};

// (lba, nblocks) of each recorded write, in issue order.
std::vector<std::pair<Lba, std::size_t>> runs(const RecordingDevice& dev) {
  std::vector<std::pair<Lba, std::size_t>> out;
  for (const RecordingDevice::Write& w : dev.log()) {
    out.emplace_back(w.lba, w.nblocks);
  }
  return out;
}

PageCacheParams roomy_params() {
  PageCacheParams p;
  p.capacity_pages = 64;
  p.dirty_high_water = 64;
  return p;
}

using Runs = std::vector<std::pair<Lba, std::size_t>>;

TEST_F(PageCacheTest, FlushInodeWritesOnlyThatInodeCoalescedInLbaOrder) {
  RecordingDevice dev(env_);
  PageCache cache(env_, dev, roomy_params());
  // kInoA's pages are dirtied out of LBA order; kInoB owns the LBAs on
  // either side of kInoA's run, so a flush that strayed into kInoB's
  // pages would lengthen the run.
  dirty(cache, kInoA, 0, 502);
  dirty(cache, kInoA, 1, 500);
  dirty(cache, kInoB, 0, 503);
  dirty(cache, kInoA, 2, 501);
  dirty(cache, kInoB, 1, 499);
  dirty(cache, kInoA, 3, 700);
  ASSERT_EQ(cache.dirty_pages(), 6u);

  cache.flush_inode(kInoA);
  EXPECT_EQ(runs(dev), (Runs{{500, 3}, {700, 1}}));
  EXPECT_EQ(dev.flushes(), 1u);
  EXPECT_EQ(cache.dirty_pages(), 2u);  // kInoB's pages are still dirty
  cache.check_index();

  // They go out on the next cache-wide flush, each on its own.
  cache.flush_all(false);
  EXPECT_EQ(runs(dev), (Runs{{500, 3}, {700, 1}, {499, 1}, {503, 1}}));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  cache.check_index();
}

TEST_F(PageCacheTest, AgeFlusherWritesExactlyTheAgedPagesAcrossInodes) {
  constexpr Ino kInoC = 12;
  RecordingDevice dev(env_);
  PageCacheParams p = roomy_params();
  p.flush_interval = sim::seconds(5);
  p.max_dirty_age = sim::seconds(30);
  PageCache cache(env_, dev, p);
  // Dirtied at t=0: ticks every 5 s from t=5.
  dirty(cache, kInoA, 0, 100);
  dirty(cache, kInoB, 0, 200);
  env_.advance(sim::seconds(12));
  dirty(cache, kInoA, 1, 101);  // contiguous with kInoA's aged page
  dirty(cache, kInoC, 0, 300);
  // The t=30 tick writes exactly the pages dirtied at t <= 0 — age equal
  // to max_dirty_age counts — and leaves the t=12 pages, even the one
  // whose LBA would extend the aged run.
  env_.advance(sim::seconds(20));  // t = 32
  ASSERT_EQ(dev.log().size(), 2u);
  EXPECT_EQ(runs(dev), (Runs{{100, 1}, {200, 1}}));
  EXPECT_EQ(dev.log()[0].at, sim::seconds(30));
  EXPECT_EQ(cache.dirty_pages(), 2u);
  cache.check_index();
  // The t=12 pages age out at t=42 and go at the t=45 tick.
  env_.advance(sim::seconds(14));  // t = 46
  EXPECT_EQ(runs(dev), (Runs{{100, 1}, {200, 1}, {101, 1}, {300, 1}}));
  EXPECT_EQ(dev.log()[2].at, sim::seconds(45));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  cache.check_index();
}

TEST_F(PageCacheTest, DropInodeOfAnInodeWithNoPagesIsANoOp) {
  RecordingDevice dev(env_);
  PageCache cache(env_, dev, roomy_params());
  const core::BufRef blk = make_block(0x31);
  cache.insert_clean_ref(kInoA, 0, 100, blk, env_.now());
  dirty(cache, kInoA, 1, 101);
  cache.drop_inode(kInoB);
  cache.drop_inode(kInoB, /*from_index=*/3);
  cache.drop_inode(kInoA, /*from_index=*/2);  // past kInoA's last page
  EXPECT_EQ(cache.resident_pages(), 2u);
  EXPECT_EQ(cache.dirty_pages(), 1u);
  EXPECT_TRUE(dev.log().empty());
  cache.check_index();
  cache.flush_inode(kInoB);  // nothing dirty: only the barrier
  EXPECT_TRUE(dev.log().empty());
  EXPECT_EQ(dev.flushes(), 1u);
}

// Same later writes, truncates, flushes and evictions against a cache and
// its clone: the two device write streams must be identical, byte for
// byte and tick for tick, though the clone's per-inode lists are built in
// a different order from the source's.
TEST_F(PageCacheTest, CloneAndSourceIssueIdenticalWriteStreams) {
  PageCacheParams p;
  p.capacity_pages = 12;
  p.dirty_high_water = 6;
  RecordingDevice src_dev(env_);
  PageCache src(env_, src_dev, p);
  const core::BufRef blk = make_block(0x10);
  // Warm state: interleaved inodes, re-touched out of insertion order,
  // written and then aged out so the flusher goes quiet.
  for (std::uint64_t i = 0; i < 4; ++i) {
    src.insert_clean_ref(kInoA, i, 100 + i, blk, env_.now());
    src.insert_clean_ref(kInoB, i, 200 + 2 * i, blk, env_.now());
  }
  ASSERT_NE(src.find_ref(kInoA, 2), nullptr);
  ASSERT_NE(src.find_ref(kInoB, 0), nullptr);
  dirty(src, kInoB, 1, 202);
  env_.drain();
  ASSERT_FALSE(src.flusher_scheduled());

  sim::Env clone_env;
  clone_env.advance_to(env_.now());
  RecordingDevice clone_dev(clone_env);
  std::unique_ptr<PageCache> clone = src.clone(clone_env, clone_dev);
  clone->check_index();

  const std::size_t warm_writes = src_dev.log().size();
  auto drive = [](sim::Env& env, PageCache& cache) {
    std::uint8_t tag = 1;
    auto write = [&](Ino ino, std::uint64_t index, Lba lba) {
      cache.write_page(ino, index, lba,
                       [t = tag++](BlockBuf& page) { page[0] = t; });
    };
    write(kInoA, 3, 103);
    write(kInoB, 3, 206);
    write(kInoA, 1, 101);
    write(kInoA, 0, 100);
    cache.flush_inode(kInoA);
    write(kInoB, 2, 204);
    cache.drop_inode(kInoA, /*from_index=*/2);
    for (std::uint64_t i = 0; i < 8; ++i) write(kInoB + 1, i, 400 + i);
    env.advance(sim::seconds(7));
    write(kInoA, 5, 105);
    cache.drop_inode(kInoB);
    env.advance(sim::seconds(40));
    cache.flush_all(true);
    cache.check_index();
  };
  drive(env_, src);
  drive(clone_env, *clone);

  const std::vector<RecordingDevice::Write> src_tail(
      src_dev.log().begin() + static_cast<std::ptrdiff_t>(warm_writes),
      src_dev.log().end());
  EXPECT_FALSE(src_tail.empty());
  EXPECT_EQ(src_tail, clone_dev.log());
  EXPECT_EQ(src.resident_pages(), clone->resident_pages());
}

}  // namespace
}  // namespace netstore::fs
