// SCSI block-command subset.
//
// iSCSI transports SCSI CDBs; this header defines the commands the
// simulated initiator generates and the target executes.  The subset is
// what a Linux 2.4 sd driver actually issues against a disk LUN.
#pragma once

#include <cstdint>
#include <string>

#include "block/block.h"

namespace netstore::scsi {

enum class OpCode : std::uint8_t {
  kTestUnitReady = 0x00,
  kInquiry = 0x12,
  kReadCapacity10 = 0x25,
  kRead10 = 0x28,
  kWrite10 = 0x2A,
  kSynchronizeCache10 = 0x35,
  kReportLuns = 0xA0,
};

enum class Status : std::uint8_t {
  kGood = 0x00,
  kCheckCondition = 0x02,
  kBusy = 0x08,
};

enum class SenseKey : std::uint8_t {
  kNoSense = 0x0,
  kNotReady = 0x2,
  kMediumError = 0x3,
  kIllegalRequest = 0x5,
};

/// A command descriptor block, reduced to the fields the simulation uses.
struct Cdb {
  OpCode op = OpCode::kTestUnitReady;
  block::Lba lba = 0;
  std::uint32_t nblocks = 0;

  static Cdb read10(block::Lba lba, std::uint32_t nblocks) {
    return Cdb{OpCode::kRead10, lba, nblocks};
  }
  static Cdb write10(block::Lba lba, std::uint32_t nblocks) {
    return Cdb{OpCode::kWrite10, lba, nblocks};
  }
};

/// Command result: status plus sense information on CHECK CONDITION.
struct CommandResult {
  Status status = Status::kGood;
  SenseKey sense = SenseKey::kNoSense;

  [[nodiscard]] bool ok() const { return status == Status::kGood; }
};

[[nodiscard]] std::string to_string(OpCode op);

}  // namespace netstore::scsi
