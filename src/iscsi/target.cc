#include "iscsi/target.h"

namespace netstore::iscsi {

sim::Time Target::admit(const scsi::Cdb& cdb, sim::Time start,
                        scsi::CommandResult& result) {
  result = scsi::CommandResult{};
  sim::Time t = start;
  if (cost_hook_) {
    t += cost_hook_(start, cdb.op == scsi::OpCode::kWrite10, cdb.nblocks);
  }
  if (cdb.lba + cdb.nblocks > volume_blocks_) {
    result.status = scsi::Status::kCheckCondition;
    result.sense = scsi::SenseKey::kIllegalRequest;
  }
  return t;
}

sim::Time Target::serve_read(const scsi::Cdb& cdb, sim::Time start,
                             std::vector<core::BufRef>& out,
                             scsi::CommandResult& result) {
  const sim::Time t = admit(cdb, start, result);
  if (!result.ok()) return t;
  return cache_.read(t, cdb.lba, cdb.nblocks, out);
}

sim::Time Target::serve_write(const scsi::Cdb& cdb, sim::Time start,
                              std::span<const core::BufRef> refs,
                              scsi::CommandResult& result) {
  const sim::Time t = admit(cdb, start, result);
  if (!result.ok()) return t;
  return cache_.write(t, cdb.lba, refs);
}

}  // namespace netstore::iscsi
