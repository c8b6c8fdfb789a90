// On-disk format tests: serialization round-trips for every structure
// and directory-block edge cases (slot splitting, merging, spanning).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "block/mem_device.h"
#include "fs/ext3.h"
#include "fs/layout.h"
#include "names.h"

namespace netstore::fs {
namespace {

TEST(LayoutTest, SuperBlockRoundTrip) {
  SuperBlock sb;
  sb.total_blocks = 123456789;
  sb.group_count = 17;
  sb.inodes_per_group = 4096;
  sb.journal_start = 2;
  sb.journal_blocks = 777;
  sb.journal_sequence = 987654321;
  sb.journal_tail = 555;
  sb.clean = 0;

  block::BlockBuf buf;
  sb.encode(buf);
  const SuperBlock back = SuperBlock::decode(buf);
  EXPECT_EQ(back.magic, kSuperMagic);
  EXPECT_EQ(back.total_blocks, sb.total_blocks);
  EXPECT_EQ(back.group_count, sb.group_count);
  EXPECT_EQ(back.inodes_per_group, sb.inodes_per_group);
  EXPECT_EQ(back.journal_blocks, sb.journal_blocks);
  EXPECT_EQ(back.journal_sequence, sb.journal_sequence);
  EXPECT_EQ(back.journal_tail, sb.journal_tail);
  EXPECT_EQ(back.clean, sb.clean);
}

TEST(LayoutTest, GroupDescRoundTrip) {
  GroupDesc gd;
  gd.block_bitmap = 8194;
  gd.inode_bitmap = 8195;
  gd.inode_table = 8196;
  gd.free_blocks = 31337;
  gd.free_inodes = 4242;
  std::uint8_t raw[GroupDesc::kEncodedSize];
  gd.encode(raw);
  const GroupDesc back = GroupDesc::decode(raw);
  EXPECT_EQ(back.block_bitmap, gd.block_bitmap);
  EXPECT_EQ(back.inode_table, gd.inode_table);
  EXPECT_EQ(back.free_blocks, gd.free_blocks);
  EXPECT_EQ(back.free_inodes, gd.free_inodes);
}

TEST(LayoutTest, RegularInodeRoundTrip) {
  RawInode ri;
  ri.mode = make_mode(FileType::kRegular, 0640);
  ri.nlink = 3;
  ri.uid = 1000;
  ri.gid = 2000;
  ri.size = (1ull << 33) + 17;  // 64-bit size survives
  ri.nblocks = 99;
  ri.atime = sim::seconds(1);
  ri.mtime = sim::seconds(2);
  ri.ctime = sim::seconds(3);
  for (std::uint32_t i = 0; i < kDirectBlocks; ++i) ri.direct[i] = 100 + i;
  ri.indirect = 500;
  ri.dindirect = 600;

  std::uint8_t raw[kInodeSize];
  ri.encode(raw);
  const RawInode back = RawInode::decode(raw);
  EXPECT_EQ(back.mode, ri.mode);
  EXPECT_EQ(back.nlink, ri.nlink);
  EXPECT_EQ(back.size, ri.size);
  EXPECT_EQ(back.nblocks, ri.nblocks);
  EXPECT_EQ(back.mtime, ri.mtime);
  for (std::uint32_t i = 0; i < kDirectBlocks; ++i) {
    EXPECT_EQ(back.direct[i], ri.direct[i]);
  }
  EXPECT_EQ(back.indirect, ri.indirect);
  EXPECT_EQ(back.dindirect, ri.dindirect);
}

TEST(LayoutTest, FastSymlinkSharesPointerArea) {
  RawInode ri;
  ri.mode = make_mode(FileType::kSymlink, 0777);
  ri.nlink = 1;
  const std::string target = "/short/enough/target";
  ri.size = target.size();
  std::memcpy(ri.symlink_target, target.data(), target.size());
  ASSERT_TRUE(ri.is_fast_symlink());

  std::uint8_t raw[kInodeSize];
  ri.encode(raw);
  const RawInode back = RawInode::decode(raw);
  EXPECT_TRUE(back.is_fast_symlink());
  EXPECT_EQ(std::string(back.symlink_target, back.size), target);
}

TEST(LayoutTest, JournalDescriptorRoundTrip) {
  std::uint64_t lbas[5] = {10, 20, 30, 40, 50};
  JournalDescriptor desc{.sequence = 42, .count = 5};
  block::BlockBuf buf;
  desc.encode(buf, lbas);

  JournalDescriptor back;
  std::uint64_t got[JournalDescriptor::kMaxTags];
  ASSERT_TRUE(JournalDescriptor::decode(buf, back, got));
  EXPECT_EQ(back.sequence, 42u);
  EXPECT_EQ(back.count, 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], lbas[i]);

  // A commit block must not decode as a descriptor and vice versa.
  JournalCommit commit{.sequence = 42};
  commit.encode(buf);
  EXPECT_FALSE(JournalDescriptor::decode(buf, back, got));
  JournalCommit cback;
  ASSERT_TRUE(JournalCommit::decode(buf, cback));
  EXPECT_EQ(cback.sequence, 42u);
}

TEST(LayoutTest, JournalRevokeRoundTrip) {
  std::uint64_t lbas[3] = {111, 222, 333};
  JournalRevoke rev{.sequence = 7, .count = 3};
  block::BlockBuf buf;
  rev.encode(buf, lbas);
  JournalRevoke back;
  std::uint64_t got[JournalRevoke::kMaxTags];
  ASSERT_TRUE(JournalRevoke::decode(buf, back, got));
  EXPECT_EQ(back.sequence, 7u);
  EXPECT_EQ(back.count, 3u);
  EXPECT_EQ(got[2], 333u);
  // Not confusable with descriptor/commit records.
  JournalDescriptor dback;
  EXPECT_FALSE(JournalDescriptor::decode(buf, dback, got));
}

TEST(LayoutTest, ZeroedBlockDecodesAsNothing) {
  block::BlockBuf buf{};
  JournalDescriptor d;
  JournalCommit c;
  JournalRevoke r;
  std::uint64_t tmp[JournalDescriptor::kMaxTags];
  EXPECT_FALSE(JournalDescriptor::decode(buf, d, tmp));
  EXPECT_FALSE(JournalCommit::decode(buf, c));
  EXPECT_FALSE(JournalRevoke::decode(buf, r, tmp));
}

class DirentPackingTest : public ::testing::Test {
 protected:
  DirentPackingTest() : dev_(64 * 1024) {
    Ext3Fs::mkfs(dev_, {});
    fs_ = std::make_unique<Ext3Fs>(env_, dev_, Ext3Params{});
    fs_->mount();
  }
  sim::Env env_;
  block::MemBlockDevice dev_;
  std::unique_ptr<Ext3Fs> fs_;
};

TEST_F(DirentPackingTest, SlotReuseAfterRemoval) {
  // Fill, punch holes, refill: freed dirent slots must be reclaimed
  // without growing the directory.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs_->create(kRootIno, test::numbered("n", i), 0644).ok());
  }
  const auto size_before = fs_->getattr(kRootIno)->size;
  for (int i = 0; i < 64; i += 2) {
    ASSERT_TRUE(fs_->unlink(kRootIno, test::numbered("n", i)).ok());
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(fs_->create(kRootIno, test::numbered("r", i), 0644).ok());
  }
  EXPECT_EQ(fs_->getattr(kRootIno)->size, size_before);
  // All names resolve correctly after the churn.
  EXPECT_TRUE(fs_->lookup(kRootIno, "n1").ok());
  EXPECT_TRUE(fs_->lookup(kRootIno, "r31").ok());
  EXPECT_EQ(fs_->lookup(kRootIno, "n0").error(), Err::kNoEnt);
}

TEST_F(DirentPackingTest, MaxLengthNames) {
  const std::string name(kMaxNameLen, 'q');
  ASSERT_TRUE(fs_->create(kRootIno, name, 0644).ok());
  auto found = fs_->lookup(kRootIno, name);
  ASSERT_TRUE(found.ok());
  auto entries = fs_->readdir(kRootIno);
  ASSERT_TRUE(entries.ok());
  bool seen = false;
  for (const auto& e : *entries) seen |= e.name == name;
  EXPECT_TRUE(seen);
}

TEST_F(DirentPackingTest, SimilarPrefixNamesDistinct) {
  ASSERT_TRUE(fs_->create(kRootIno, "abc", 0644).ok());
  ASSERT_TRUE(fs_->create(kRootIno, "abcd", 0644).ok());
  ASSERT_TRUE(fs_->create(kRootIno, "abce", 0644).ok());
  ASSERT_TRUE(fs_->unlink(kRootIno, "abcd").ok());
  EXPECT_TRUE(fs_->lookup(kRootIno, "abc").ok());
  EXPECT_TRUE(fs_->lookup(kRootIno, "abce").ok());
  EXPECT_EQ(fs_->lookup(kRootIno, "abcd").error(), Err::kNoEnt);
}

}  // namespace
}  // namespace netstore::fs
