// Abstract block device: what a local file system mounts on.
//
// The same Ext3Fs code runs at the iSCSI client (over IscsiBlockDevice)
// and inside the NFS server (over LocalBlockDevice); this interface is the
// seam between them — exactly the abstraction boundary the paper studies.
//
// Calls are synchronous from the caller's perspective; implementations
// advance the simulation clock to model blocking.  Asynchronous writes
// return immediately and become durable by a later flush() (or on their
// own, for devices with background write-back).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "block/block.h"
#include "core/buffer_pool.h"
#include "sim/time.h"

namespace netstore::block {

enum class WriteMode {
  kAsync,  // write-behind: hand off and return
  kSync,   // blocking: durable before return
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual std::uint64_t block_count() const = 0;

  /// Reads `nblocks` at `lba`, blocking until data is available, and
  /// appends one pooled frame per block to `out`.  Devices whose backing
  /// store holds pooled frames share them: zero copies and zero
  /// allocations on the warm path.
  virtual void read(Lba lba, std::uint32_t nblocks,
                    std::vector<core::BufRef>& out) = 0;

  /// Writes refs[i] to lba + i as one device request.  Devices that
  /// store blocks adopt (share) the frames instead of copying them;
  /// copy-on-write (BufRef::mutable_data) isolates a later mutation on
  /// either side.
  virtual void write(Lba lba, std::span<const core::BufRef> refs,
                     WriteMode mode) = 0;

  /// Blocks until every previously issued write is durable.
  virtual void flush() = 0;

  /// Optional non-blocking prefetch (read-ahead support): starts a read of
  /// `nblocks` at `lba` without advancing the clock and appends the
  /// frames to `out`.  They arrive immediately in simulation terms, but
  /// are only *logically* valid at the returned virtual time; callers
  /// must not consume them before advancing to that time.  Returns
  /// nullopt when the device does not support prefetch (callers fall
  /// back to blocking reads).
  virtual std::optional<sim::Time> prefetch(Lba lba, std::uint32_t nblocks,
                                            std::vector<core::BufRef>& out) {
    (void)lba;
    (void)nblocks;
    (void)out;
    return std::nullopt;
  }
};

}  // namespace netstore::block
