// Journal revocation tests: the JBD "forget/revoke" machinery that keeps
// freed metadata blocks from being resurrected over reallocated data —
// both at checkpoint time and during crash replay.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "block/mem_device.h"
#include "core/cpu_model.h"
#include "fs/ext3.h"
#include "sim/rng.h"
#include "names.h"

namespace netstore::fs {
namespace {

class RevokeTest : public ::testing::Test {
 protected:
  RevokeTest() : dev_(128 * 1024) {
    MkfsOptions opts;
    opts.journal_blocks = 512;
    Ext3Fs::mkfs(dev_, opts);
    remount();
  }
  void remount() {
    fs_ = std::make_unique<Ext3Fs>(env_, dev_, Ext3Params{});
    fs_->mount();
  }

  sim::Env env_;
  block::MemBlockDevice dev_;
  std::unique_ptr<Ext3Fs> fs_;
};

TEST_F(RevokeTest, FreedDirBlockReusedAsDataSurvivesCheckpoint) {
  // Commit a directory's block to the journal, remove the directory
  // (freeing the block), let a file reuse it, then checkpoint: the stale
  // journal copy must not overwrite the file data.
  auto dir = fs_->mkdir(kRootIno, "victim", 0755);
  ASSERT_TRUE(dir.ok());
  fs_->journal().commit(true);  // dir block now lives in the journal
  ASSERT_TRUE(fs_->rmdir(kRootIno, "victim").ok());

  // Burn through free blocks so a new file picks up the freed one.
  auto f = fs_->create(kRootIno, "f", 0644);
  ASSERT_TRUE(f.ok());
  std::vector<std::uint8_t> data(64 * 1024, 0x3E);
  ASSERT_TRUE(fs_->write(*f, 0, data).ok());
  fs_->sync();  // commit + checkpoint everything

  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(fs_->read(*f, 0, out).ok());
  EXPECT_EQ(out, data);

  // And through a full remount (on-disk state, not caches).
  fs_->unmount();
  remount();
  auto r = fs_->resolve("/f");
  ASSERT_TRUE(r.ok());
  std::fill(out.begin(), out.end(), 0);
  ASSERT_TRUE(fs_->read(*r, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(RevokeTest, ReplayHonorsRevokeRecords) {
  // Same reuse pattern, but crash after the data write: replay must not
  // restore the old directory block over the file's data block.
  auto dir = fs_->mkdir(kRootIno, "victim", 0755);
  ASSERT_TRUE(dir.ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->rmdir(kRootIno, "victim").ok());

  auto f = fs_->create(kRootIno, "f", 0644);
  std::vector<std::uint8_t> data(32 * 1024, 0x77);
  ASSERT_TRUE(fs_->write(*f, 0, data).ok());
  ASSERT_TRUE(fs_->fsync(*f).ok());  // commit (with revoke) + data durable
  fs_->crash();

  remount();  // replay
  auto r = fs_->resolve("/f");
  ASSERT_TRUE(r.ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(fs_->read(*r, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs_->resolve("/victim").error(), Err::kNoEnt);
}

TEST_F(RevokeTest, ChurnWithPeriodicCrashes) {
  // Property-style: create/remove directories and files with interleaved
  // commits and crashes; after each recovery the FS must resolve exactly
  // the committed state without corruption.
  sim::Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    const std::string d = "/d" + std::to_string(round);
    ASSERT_TRUE(fs_->mkdir(kRootIno, d.substr(1), 0755).ok());
    auto f = fs_->create(kRootIno, test::numbered("f", round), 0644);
    ASSERT_TRUE(f.ok());
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(rng.uniform_range(4096, 40000)),
        static_cast<std::uint8_t>(round));
    ASSERT_TRUE(fs_->write(*f, 0, data).ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(fs_->rmdir(kRootIno, d.substr(1)).ok());
    }
    ASSERT_TRUE(fs_->fsync(*f).ok());
    fs_->crash();
    remount();
    // Everything fsynced so far must be present and intact.
    for (int k = 0; k <= round; ++k) {
      auto rf = fs_->resolve("/f" + std::to_string(k));
      ASSERT_TRUE(rf.ok()) << k;
      auto attr = fs_->getattr(*rf);
      ASSERT_TRUE(attr.ok());
      std::vector<std::uint8_t> out(attr->size);
      ASSERT_TRUE(fs_->read(*rf, 0, out).ok());
      for (auto b : out) ASSERT_EQ(b, static_cast<std::uint8_t>(k));
    }
  }
}

TEST(CpuModelTest, PercentileOverWindow) {
  core::CpuModel cpu(sim::seconds(2));
  // Bins: 0-2s busy 1 s (50%), 2-4s busy 2 s (100%), 4-6s idle.
  cpu.charge(sim::seconds(1), sim::seconds(1));
  cpu.charge(sim::seconds(2), sim::seconds(2));
  cpu.begin_window(0);
  EXPECT_NEAR(cpu.utilization_percentile(95, sim::seconds(6)), 95.0, 6.0);
  EXPECT_NEAR(cpu.utilization_mean(sim::seconds(6)), 37.5, 1.0);
  EXPECT_EQ(cpu.total_busy(), sim::seconds(3));
}

TEST(CpuModelTest, ChargeSpillsAcrossBins) {
  core::CpuModel cpu(sim::seconds(2));
  cpu.charge(sim::seconds(1), sim::seconds(4));  // covers bins 0,1,2
  cpu.begin_window(0);
  // Bin 1 fully busy.
  EXPECT_NEAR(cpu.utilization_percentile(100, sim::seconds(6)), 100.0, 0.1);
}

}  // namespace
}  // namespace netstore::fs
