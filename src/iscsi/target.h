// iSCSI target: executes SCSI commands against a cached RAID-5 volume.
//
// Stands in for the commercial target of the paper's testbed: a RAM
// write-back cache in front of the array, so writes are acknowledged at
// memory speed and reads hit the cache when warm.  All timing is explicit
// (start time in, completion time out) because commands may be served in
// the initiator's future (asynchronous writes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "block/timed_cache.h"
#include "core/check.h"
#include "scsi/scsi.h"
#include "sim/time.h"

namespace netstore::iscsi {

/// Charged per command at the target; lets the testbed account server CPU.
/// Returns the processing time to add to the service path.
using TargetCostHook = std::function<sim::Duration(
    sim::Time at, bool is_write, std::uint32_t nblocks)>;

class Target {
 public:
  Target(block::TimedCache& cache, std::uint64_t volume_blocks)
      : cache_(cache), volume_blocks_(volume_blocks) {}

  /// READ(10) beginning at `start`: appends one refcounted cache frame
  /// per block to `out` (the Data-In payload is shared handles, not
  /// copied bytes).  Returns the completion time at the target.
  sim::Time serve_read(const scsi::Cdb& cdb, sim::Time start,
                       std::vector<core::BufRef>& out,
                       scsi::CommandResult& result);

  /// WRITE(10) beginning at `start` (refs.size() == cdb.nblocks): the
  /// cache adopts the frames.  Returns the completion time at the target.
  sim::Time serve_write(const scsi::Cdb& cdb, sim::Time start,
                        std::span<const core::BufRef> refs,
                        scsi::CommandResult& result);

  void set_cost_hook(TargetCostHook hook) { cost_hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t volume_blocks() const { return volume_blocks_; }

  /// Exclusive LUN ownership.  A session claims its LUN at login and
  /// releases it at logout; claiming a LUN another session holds is a
  /// CHECK-abort, not an error return — sharing a raw block device
  /// between initiators corrupts the file system on it, so a testbed
  /// that tries is misconfigured.  This is the structural reason the
  /// fleet's iSCSI clients generate no coherence traffic: every client
  /// multiplexes through the one session that owns the volume.
  void claim_lun(std::uint32_t lun) {
    NETSTORE_CHECK(claimed_luns_.insert(lun).second,
                   "LUN already owned by another session");
  }
  void release_lun(std::uint32_t lun) { claimed_luns_.erase(lun); }

  /// Orderly restart (cold-cache emulation): flush and drop the cache.
  void restart() { cache_.restart(); }

  /// Power-loss crash: cached dirty data is gone.
  void crash() { cache_.crash(); }

  [[nodiscard]] block::TimedCache& cache() { return cache_; }

  /// Deep copy for checkpoint/fork, rehomed onto `cache` (the cloned
  /// world's cache).  The cost hook is a closure over the source Testbed
  /// and is deliberately NOT copied — the forking Testbed installs its own.
  [[nodiscard]] std::unique_ptr<Target> clone(block::TimedCache& cache) const {
    auto copy = std::make_unique<Target>(cache, volume_blocks_);
    copy->claimed_luns_ = claimed_luns_;
    return copy;
  }

 private:
  /// Per-command prologue shared by reads and writes: counts the command,
  /// charges the cost hook, and range-checks the LBA span (failing
  /// `result` with ILLEGAL REQUEST).  Returns the time service may begin.
  sim::Time admit(const scsi::Cdb& cdb, sim::Time start,
                  scsi::CommandResult& result);

  block::TimedCache& cache_;
  std::uint64_t volume_blocks_;
  // netstore: not_cloned -- closure over the source Testbed; the fork
  // installs its own (see clone())
  TargetCostHook cost_hook_;
  std::unordered_set<std::uint32_t> claimed_luns_;
};

}  // namespace netstore::iscsi
