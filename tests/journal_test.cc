// Journal tests: commit points, update aggregation, crash recovery
// (replay), and the persistence trade-off the paper describes in §2.3.
#include <gtest/gtest.h>

#include <memory>

#include "block/mem_device.h"
#include "fs/ext3.h"
#include "names.h"

namespace netstore::fs {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  JournalTest() : dev_(256 * 1024) {
    MkfsOptions opts;
    opts.journal_blocks = 256;  // small journal: exercises wrap/checkpoint
    Ext3Fs::mkfs(dev_, opts);
    remount_fresh();
  }

  void remount_fresh() {
    fs_ = std::make_unique<Ext3Fs>(env_, dev_, Ext3Params{});
    fs_->mount();
  }

  sim::Env env_;
  block::MemBlockDevice dev_;
  std::unique_ptr<Ext3Fs> fs_;
};

TEST_F(JournalTest, MetadataUpdatesJoinRunningTransaction) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  EXPECT_TRUE(fs_->journal().transaction_open());
  EXPECT_EQ(fs_->journal().stats().commits.value(), 0u);
}

TEST_F(JournalTest, CommitFiresAtCommitInterval) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  env_.advance(sim::seconds(6));  // past the 5 s commit interval
  EXPECT_EQ(fs_->journal().stats().commits.value(), 1u);
  EXPECT_FALSE(fs_->journal().transaction_open());
}

TEST_F(JournalTest, UpdateAggregationLogsBlockOnce) {
  // Many updates touching the same metadata blocks within one window are
  // logged once each (the paper's §4.2 insight).
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs_->create(kRootIno, test::numbered("f", i), 0644).ok());
  }
  const std::size_t txn_blocks = fs_->journal().running_size();
  // 64 creates dirty: root dir block(s), inode bitmap, 2-3 inode table
  // blocks, GDT — far fewer than 64 distinct blocks.
  EXPECT_LT(txn_blocks, 16u);
  env_.advance(sim::seconds(6));
  EXPECT_EQ(fs_->journal().stats().blocks_logged.value(), txn_blocks);
}

TEST_F(JournalTest, CommittedMetadataSurvivesCrash) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "survives", 0755).ok());
  fs_->journal().commit(true);
  fs_->crash();  // caches dropped, nothing checkpointed

  remount_fresh();  // replays the journal
  EXPECT_TRUE(fs_->resolve("/survives").ok());
}

TEST_F(JournalTest, UncommittedMetadataLostOnCrash) {
  // The §2.3 trade-off: asynchronous meta-data updates risk loss.
  ASSERT_TRUE(fs_->mkdir(kRootIno, "doomed", 0755).ok());
  fs_->crash();  // before any commit point

  remount_fresh();
  EXPECT_EQ(fs_->resolve("/doomed").error(), Err::kNoEnt);
}

TEST_F(JournalTest, MultipleTransactionsReplayInOrder) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "a", 0755).ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->mkdir(kRootIno, "b", 0755).ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->rmdir(kRootIno, "a").ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->mkdir(kRootIno, "c", 0755).ok());  // uncommitted
  fs_->crash();

  remount_fresh();
  EXPECT_EQ(fs_->resolve("/a").error(), Err::kNoEnt);  // rmdir committed
  EXPECT_TRUE(fs_->resolve("/b").ok());
  EXPECT_EQ(fs_->resolve("/c").error(), Err::kNoEnt);  // lost
}

TEST_F(JournalTest, JournalWrapsAndCheckpoints) {
  // More metadata churn than the tiny journal can hold: forces
  // checkpointing and wrap-around, repeatedly.
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(fs_->create(kRootIno,
                              test::numbered(
                                  test::numbered("r", round) + "_", i),
                              0644)
                      .ok());
    }
    fs_->journal().commit(true);
  }
  EXPECT_GT(fs_->journal().stats().checkpoint_writes.value(), 0u);
  // Everything still resolvable after remount (checkpoints were correct).
  fs_->unmount();
  remount_fresh();
  EXPECT_TRUE(fs_->resolve("/r59_39").ok());
  EXPECT_TRUE(fs_->resolve("/r0_0").ok());
}

TEST_F(JournalTest, UncommittedDataLostButEarlierCommitIntact) {
  auto f = fs_->create(kRootIno, "f", 0644);
  ASSERT_TRUE(f.ok());
  std::vector<std::uint8_t> data(4096, 0x77);
  ASSERT_TRUE(fs_->write(*f, 0, data).ok());
  ASSERT_TRUE(fs_->fsync(*f).ok());  // data + metadata durable

  std::vector<std::uint8_t> more(4096, 0x88);
  ASSERT_TRUE(fs_->write(*f, 4096, more).ok());  // only in page cache
  fs_->crash();

  remount_fresh();
  auto r = fs_->resolve("/f");
  ASSERT_TRUE(r.ok());
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(fs_->read(*r, 0, out).ok());
  EXPECT_EQ(out, data);  // fsynced data intact
  // The second write's size update was never committed.
  EXPECT_EQ(fs_->getattr(*r)->size, 4096u);
}

TEST_F(JournalTest, CleanUnmountNeedsNoReplay) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  fs_->unmount();
  // A clean superblock means mount performs no replay.
  SuperBlock sb = fs_->superblock();
  EXPECT_EQ(sb.clean, 1);
  remount_fresh();
  EXPECT_TRUE(fs_->resolve("/d").ok());
}

}  // namespace
}  // namespace netstore::fs
