// LRU block cache over a RAID-5 array with an explicit-start-time API.
//
// The iSCSI target serves commands that arrive at computed virtual times,
// possibly in the caller's future (asynchronous writes), so it cannot use
// the clock-advancing BlockDevice interface.  TimedCache threads start
// times through explicitly and returns completion times; it never touches
// the simulation clock.  Writes are write-back (acknowledged from cache),
// modelling the commercial target the paper used.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "block/block.h"
#include "block/raid5.h"
#include "core/buffer_pool.h"
#include "core/intrusive_lru.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::obs {
class Tracer;
}  // namespace netstore::obs

namespace netstore::block {

class TimedCache {
 public:
  TimedCache(Raid5Array& array, std::uint64_t capacity_blocks,
             std::uint64_t dirty_high_water);

  /// Reads `nblocks` at `lba`, starting at `start`, appending one shared
  /// frame per block to `out` — hits share the resident frame, misses
  /// adopt the array's frames and share those.  Returns completion.
  sim::Time read(sim::Time start, Lba lba, std::uint32_t nblocks,
                 std::vector<core::BufRef>& out);

  /// Write-back write: the cache adopts (shares) refs[i] as the block at
  /// lba + i and acknowledges immediately (memory-speed).  Crossing the
  /// dirty high-water mark kicks background write-back whose disk time is
  /// accounted but not waited on.
  sim::Time write(sim::Time start, Lba lba,
                  std::span<const core::BufRef> refs);

  /// Makes everything durable: writes back all dirty blocks; returns the
  /// completion time of the last array write.
  sim::Time sync(sim::Time start);

  /// Simulates an orderly restart: sync, then drop all cached blocks.
  void restart();

  /// Simulates a crash: drop all cached blocks, dirty data lost.
  void crash();

  [[nodiscard]] std::uint64_t dirty_blocks() const { return dirty_count_; }
  [[nodiscard]] const sim::Counter& hits() const { return hits_; }
  [[nodiscard]] const sim::Counter& misses() const { return misses_; }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] sim::Counter& hits_counter() { return hits_; }
  [[nodiscard]] sim::Counter& misses_counter() { return misses_; }

  /// Trace-span attribution (src/obs).  The cache has no Env reference, so
  /// the testbed injects the tracer directly; miss time is charged to the
  /// media component, hit time (memory-speed, 0 in this model) to cache.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }

  /// Deep copy for checkpoint/fork, rehomed onto `array` (the clone of the
  /// source's backing array).  Cached blocks, dirty bits, counters, and the
  /// exact LRU recency order all carry over; the tracer pointer does not —
  /// the forking Testbed injects its own.
  [[nodiscard]] std::unique_ptr<TimedCache> clone(Raid5Array& array) const;

 private:
  struct Entry {
    Entry* lru_prev = nullptr;  // intrusive LRU links (core::LruList)
    Entry* lru_next = nullptr;
    Lba lba = 0;
    core::BufRef data;  // pooled frame, shared with clones and the array
    bool dirty = false;
  };

  void insert(sim::Time start, Lba lba, core::BufRef data, bool dirty);
  sim::Time writeback_down_to(sim::Time start, std::uint64_t target_dirty);

  Raid5Array& array_;
  std::uint64_t capacity_;
  std::uint64_t dirty_high_water_;
  // LRU links live inside the map nodes (see core/intrusive_lru.h).
  std::unordered_map<Lba, Entry> map_;
  core::LruList<Entry> lru_;
  std::uint64_t dirty_count_ = 0;
  sim::Counter hits_;
  sim::Counter misses_;
  // netstore: not_cloned -- the forking Testbed installs its own tracer
  obs::Tracer* tracer_ = nullptr;
  // netstore: not_cloned -- read() scratch, refilled before every use
  std::vector<core::BufRef> miss_refs_;
};

}  // namespace netstore::block
