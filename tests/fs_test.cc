// Unit tests for the ext3-like file system: semantics, persistence,
// directories, links, large files.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "block/mem_device.h"
#include "fs/ext3.h"
#include "names.h"

namespace netstore::fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  FsTest() : dev_(256 * 1024) {  // 1 GB
    Ext3Fs::mkfs(dev_, MkfsOptions{});
    fs_ = std::make_unique<Ext3Fs>(env_, dev_, Ext3Params{});
    fs_->mount();
  }

  std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t seed) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed * 7 + i);
    }
    return v;
  }

  sim::Env env_;
  block::MemBlockDevice dev_;
  std::unique_ptr<Ext3Fs> fs_;
};

TEST_F(FsTest, RootExists) {
  auto attr = fs_->getattr(kRootIno);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type(), FileType::kDirectory);
  EXPECT_EQ(attr->nlink, 2);
}

TEST_F(FsTest, CreateLookupGetattr) {
  auto ino = fs_->create(kRootIno, "hello", 0644);
  ASSERT_TRUE(ino.ok());
  auto found = fs_->lookup(kRootIno, "hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  auto attr = fs_->getattr(*ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type(), FileType::kRegular);
  EXPECT_EQ(attr->size, 0u);
  EXPECT_EQ(attr->nlink, 1);
}

TEST_F(FsTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs_->create(kRootIno, "x", 0644).ok());
  EXPECT_EQ(fs_->create(kRootIno, "x", 0644).error(), Err::kExist);
}

TEST_F(FsTest, LookupMissingIsNoEnt) {
  EXPECT_EQ(fs_->lookup(kRootIno, "ghost").error(), Err::kNoEnt);
}

TEST_F(FsTest, LookupInFileIsNotDir) {
  auto ino = fs_->create(kRootIno, "f", 0644);
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(fs_->lookup(*ino, "x").error(), Err::kNotDir);
}

TEST_F(FsTest, WriteReadRoundTripSmall) {
  auto ino = fs_->create(kRootIno, "f", 0644);
  const auto data = bytes(100, 1);
  ASSERT_TRUE(fs_->write(*ino, 0, data).ok());
  std::vector<std::uint8_t> out(100);
  auto n = fs_->read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
  EXPECT_EQ(data, out);
  EXPECT_EQ(fs_->getattr(*ino)->size, 100u);
}

TEST_F(FsTest, WriteAtOffsetAndSparseHole) {
  auto ino = fs_->create(kRootIno, "f", 0644);
  const auto data = bytes(10, 2);
  ASSERT_TRUE(fs_->write(*ino, 100000, data).ok());
  EXPECT_EQ(fs_->getattr(*ino)->size, 100010u);
  // The hole reads back as zeros.
  std::vector<std::uint8_t> out(10);
  auto n = fs_->read(*ino, 50, out);
  ASSERT_TRUE(n.ok());
  for (auto b : out) EXPECT_EQ(b, 0);
  fs_->read(*ino, 100000, out);
  EXPECT_EQ(data, out);
}

TEST_F(FsTest, LargeFileThroughIndirectBlocks) {
  auto ino = fs_->create(kRootIno, "big", 0644);
  // 13 MB spans direct (48 KB), indirect (4 MB) and double-indirect.
  const std::uint64_t size = 13ull * 1024 * 1024;
  const auto chunk = bytes(1 << 16, 3);
  for (std::uint64_t off = 0; off < size; off += chunk.size()) {
    ASSERT_TRUE(fs_->write(*ino, off, chunk).ok());
  }
  EXPECT_EQ(fs_->getattr(*ino)->size, size);
  std::vector<std::uint8_t> out(chunk.size());
  // Spot-check all three mapping regions.
  for (std::uint64_t off :
       std::vector<std::uint64_t>{0, 5ull * 1024 * 1024, size - chunk.size()}) {
    auto n = fs_->read(*ino, off, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, chunk.size());
    EXPECT_EQ(chunk, out) << "offset " << off;
  }
}

TEST_F(FsTest, TruncateShrinkFreesAndZeroes) {
  auto ino = fs_->create(kRootIno, "f", 0644);
  const auto data = bytes(64 * 1024, 4);
  ASSERT_TRUE(fs_->write(*ino, 0, data).ok());
  const std::uint64_t free_before = fs_->free_blocks();
  SetAttr sa;
  sa.size = 4096;
  ASSERT_TRUE(fs_->setattr(*ino, sa).ok());
  EXPECT_EQ(fs_->getattr(*ino)->size, 4096u);
  EXPECT_GT(fs_->free_blocks(), free_before);
  // Growing again exposes zeros, not stale data.
  sa.size = 8192;
  ASSERT_TRUE(fs_->setattr(*ino, sa).ok());
  std::vector<std::uint8_t> out(4096);
  fs_->read(*ino, 4096, out);
  for (auto b : out) ASSERT_EQ(b, 0);
}

TEST_F(FsTest, UnlinkFreesInodeAndBlocks) {
  // Force the root directory's first block allocation (it is retained for
  // the directory's lifetime) before taking the baseline.
  ASSERT_TRUE(fs_->create(kRootIno, "warmup", 0644).ok());
  ASSERT_TRUE(fs_->unlink(kRootIno, "warmup").ok());
  const std::uint64_t free_inodes = fs_->free_inodes();
  const std::uint64_t free_blocks = fs_->free_blocks();
  auto ino = fs_->create(kRootIno, "f", 0644);
  ASSERT_TRUE(fs_->write(*ino, 0, bytes(8192, 5)).ok());
  ASSERT_TRUE(fs_->unlink(kRootIno, "f").ok());
  EXPECT_EQ(fs_->free_inodes(), free_inodes);
  EXPECT_EQ(fs_->free_blocks(), free_blocks);
  EXPECT_EQ(fs_->lookup(kRootIno, "f").error(), Err::kNoEnt);
}

TEST_F(FsTest, HardLinksShareInode) {
  auto ino = fs_->create(kRootIno, "a", 0644);
  ASSERT_TRUE(fs_->link(kRootIno, "b", *ino).ok());
  EXPECT_EQ(fs_->getattr(*ino)->nlink, 2);
  ASSERT_TRUE(fs_->write(*ino, 0, bytes(10, 6)).ok());
  auto b = fs_->lookup(kRootIno, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *ino);
  // Unlink one name: data survives under the other.
  ASSERT_TRUE(fs_->unlink(kRootIno, "a").ok());
  EXPECT_EQ(fs_->getattr(*ino)->nlink, 1);
  std::vector<std::uint8_t> out(10);
  EXPECT_TRUE(fs_->read(*ino, 0, out).ok());
}

TEST_F(FsTest, LinkToDirectoryRefused) {
  auto dir = fs_->mkdir(kRootIno, "d", 0755);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(fs_->link(kRootIno, "d2", *dir).error(), Err::kPerm);
}

TEST_F(FsTest, MkdirRmdirSemantics) {
  auto dir = fs_->mkdir(kRootIno, "d", 0755);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(fs_->getattr(kRootIno)->nlink, 3);  // parent link count grows
  ASSERT_TRUE(fs_->create(*dir, "f", 0644).ok());
  EXPECT_EQ(fs_->rmdir(kRootIno, "d").error(), Err::kNotEmpty);
  ASSERT_TRUE(fs_->unlink(*dir, "f").ok());
  ASSERT_TRUE(fs_->rmdir(kRootIno, "d").ok());
  EXPECT_EQ(fs_->getattr(kRootIno)->nlink, 2);
}

TEST_F(FsTest, RmdirOfFileIsNotDir) {
  ASSERT_TRUE(fs_->create(kRootIno, "f", 0644).ok());
  EXPECT_EQ(fs_->rmdir(kRootIno, "f").error(), Err::kNotDir);
  EXPECT_EQ(fs_->unlink(kRootIno, "f").error(), Err::kOk);
}

TEST_F(FsTest, UnlinkOfDirIsIsDir) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  EXPECT_EQ(fs_->unlink(kRootIno, "d").error(), Err::kIsDir);
}

TEST_F(FsTest, FastAndSlowSymlinks) {
  auto s1 = fs_->symlink(kRootIno, "short", "/target");
  ASSERT_TRUE(s1.ok());
  auto t1 = fs_->readlink(*s1);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, "/target");
  EXPECT_EQ(fs_->getattr(*s1)->nblocks, 0u);  // fast symlink: inode-embedded

  const std::string long_target(200, 'x');
  auto s2 = fs_->symlink(kRootIno, "long", "/" + long_target);
  ASSERT_TRUE(s2.ok());
  auto t2 = fs_->readlink(*s2);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, "/" + long_target);
  EXPECT_EQ(fs_->getattr(*s2)->nblocks, 1u);  // data block
}

TEST_F(FsTest, ResolveFollowsSymlinks) {
  auto dir = fs_->mkdir(kRootIno, "real", 0755);
  ASSERT_TRUE(fs_->create(*dir, "f", 0644).ok());
  ASSERT_TRUE(fs_->symlink(kRootIno, "alias", "/real").ok());
  auto r = fs_->resolve("/alias/f");
  ASSERT_TRUE(r.ok());
  auto direct = fs_->resolve("/real/f");
  EXPECT_EQ(*r, *direct);
}

TEST_F(FsTest, SymlinkLoopDetected) {
  ASSERT_TRUE(fs_->symlink(kRootIno, "a", "/b").ok());
  ASSERT_TRUE(fs_->symlink(kRootIno, "b", "/a").ok());
  EXPECT_FALSE(fs_->resolve("/a").ok());
}

TEST_F(FsTest, RenameWithinAndAcrossDirectories) {
  auto d1 = fs_->mkdir(kRootIno, "d1", 0755);
  auto d2 = fs_->mkdir(kRootIno, "d2", 0755);
  auto f = fs_->create(*d1, "f", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs_->write(*f, 0, bytes(10, 8)).ok());

  ASSERT_TRUE(fs_->rename(*d1, "f", *d1, "g").ok());
  EXPECT_EQ(fs_->lookup(*d1, "f").error(), Err::kNoEnt);
  EXPECT_EQ(*fs_->lookup(*d1, "g"), *f);

  ASSERT_TRUE(fs_->rename(*d1, "g", *d2, "h").ok());
  EXPECT_EQ(*fs_->lookup(*d2, "h"), *f);
}

TEST_F(FsTest, RenameDirectoryUpdatesLinkCounts) {
  auto d1 = fs_->mkdir(kRootIno, "d1", 0755);
  auto d2 = fs_->mkdir(kRootIno, "d2", 0755);
  ASSERT_TRUE(fs_->mkdir(*d1, "sub", 0755).ok());
  const auto d1_links = fs_->getattr(*d1)->nlink;
  const auto d2_links = fs_->getattr(*d2)->nlink;
  ASSERT_TRUE(fs_->rename(*d1, "sub", *d2, "sub").ok());
  EXPECT_EQ(fs_->getattr(*d1)->nlink, d1_links - 1);
  EXPECT_EQ(fs_->getattr(*d2)->nlink, d2_links + 1);
}

TEST_F(FsTest, RenameReplacesExistingFile) {
  auto a = fs_->create(kRootIno, "a", 0644);
  ASSERT_TRUE(fs_->create(kRootIno, "b", 0644).ok());
  ASSERT_TRUE(fs_->rename(kRootIno, "a", kRootIno, "b").ok());
  EXPECT_EQ(*fs_->lookup(kRootIno, "b"), *a);
  EXPECT_EQ(fs_->lookup(kRootIno, "a").error(), Err::kNoEnt);
}

TEST_F(FsTest, ReaddirListsEverything) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->create(kRootIno, test::numbered("f", i), 0644).ok());
  }
  auto entries = fs_->readdir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 10u);
}

TEST_F(FsTest, DirectoryGrowsPastOneBlock) {
  // Enough entries to need several directory blocks.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        fs_->create(kRootIno, "longish_file_name_" + std::to_string(i), 0644)
            .ok());
  }
  auto entries = fs_->readdir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 500u);
  EXPECT_GT(fs_->getattr(kRootIno)->size, block::kBlockSize);
  // Every one resolvable.
  EXPECT_TRUE(fs_->lookup(kRootIno, "longish_file_name_499").ok());
}

TEST_F(FsTest, NameTooLongRejected) {
  const std::string huge(300, 'n');
  EXPECT_EQ(fs_->create(kRootIno, huge, 0644).error(), Err::kNameTooLong);
}

TEST_F(FsTest, SetattrModeAndTimes) {
  auto ino = fs_->create(kRootIno, "f", 0644);
  SetAttr sa;
  sa.mode = 0600;
  sa.atime = sim::seconds(11);
  sa.mtime = sim::seconds(22);
  ASSERT_TRUE(fs_->setattr(*ino, sa).ok());
  auto attr = fs_->getattr(*ino);
  EXPECT_EQ(attr->mode & kPermMask, 0600);
  EXPECT_EQ(attr->atime, sim::seconds(11));
  EXPECT_EQ(attr->mtime, sim::seconds(22));
  EXPECT_EQ(attr->type(), FileType::kRegular);  // type bits preserved
}

TEST_F(FsTest, PersistsAcrossRemount) {
  auto dir = fs_->mkdir(kRootIno, "d", 0755);
  auto ino = fs_->create(*dir, "f", 0600);
  const auto data = bytes(10000, 9);
  ASSERT_TRUE(fs_->write(*ino, 0, data).ok());
  ASSERT_TRUE(fs_->symlink(*dir, "s", "/d/f").ok());
  fs_->unmount();
  fs_->mount();

  auto r = fs_->resolve("/d/f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *ino);
  std::vector<std::uint8_t> out(data.size());
  auto n = fs_->read(*r, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(data, out);
  auto attr = fs_->getattr(*r);
  EXPECT_EQ(attr->mode & kPermMask, 0600);
  auto target = fs_->readlink(*fs_->resolve("/d/s", false));
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/d/f");
}

TEST_F(FsTest, FreeCountsConserved) {
  ASSERT_TRUE(fs_->create(kRootIno, "warmup", 0644).ok());
  ASSERT_TRUE(fs_->unlink(kRootIno, "warmup").ok());
  const auto inodes0 = fs_->free_inodes();
  const auto blocks0 = fs_->free_blocks();
  auto d = fs_->mkdir(kRootIno, "d", 0755);
  for (int i = 0; i < 50; ++i) {
    auto f = fs_->create(*d, test::numbered("f", i), 0644);
    ASSERT_TRUE(fs_->write(*f, 0, bytes(20000, 1)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs_->unlink(*d, test::numbered("f", i)).ok());
  }
  ASSERT_TRUE(fs_->rmdir(kRootIno, "d").ok());
  EXPECT_EQ(fs_->free_inodes(), inodes0);
  EXPECT_EQ(fs_->free_blocks(), blocks0);
}

// Regression: a device whose size is not a multiple of the group size
// gets a short last group.  mkfs used to (a) underflow that group's
// free-block count — the metadata marks and the beyond-device marks
// overlap there and were double-counted — which made the directory-
// placement heuristic funnel every new directory into it, and (b)
// advertise the full inodes_per_group even though most of the tail
// group's inode table lies past the device end.  Together these walked
// inode-table I/O off the end of the array once enough files existed.
TEST(FsShortLastGroupTest, AllocationStaysInsideTheDevice) {
  sim::Env env;
  block::MemBlockDevice dev(kBlocksPerGroup + 64);  // full group + 64-block tail
  Ext3Fs::mkfs(dev, MkfsOptions{});
  Ext3Fs fs(env, dev, Ext3Params{});
  fs.mount();

  // Sane accounting: free counts bounded by what the device can hold.
  EXPECT_LT(fs.free_blocks(), dev.block_count());
  // Tail group's usable inode table is 62 blocks = 1984 inodes; group 0
  // contributes 8192 - 1 (root).  Anything above that is phantom.
  EXPECT_LE(fs.free_inodes(), 8192u - 1 + 1984);

  // More creations than the tail group's in-device inode table can hold:
  // with the broken accounting the inode table ran past the device end
  // and died on the block-layer bounds check.
  for (int d = 0; d < 2200; ++d) {
    auto ino = fs.mkdir(kRootIno, test::numbered("d", d), 0755);
    ASSERT_TRUE(ino.ok()) << "mkdir #" << d;
    ASSERT_TRUE(fs.getattr(*ino).ok());
  }
  fs.unmount();
}

// A write that crosses the page cache's dirty high-water mark must reach
// the device with its new contents: the high-water write-back may not
// clean the page before the caller has filled it.  Tiny cache, so the
// crossing happens on the fifth page; remounting drops every cached page
// and the read-back comes from the device.
TEST(FsHighWaterTest, WriteCrossingDirtyHighWaterSurvivesRemount) {
  sim::Env env;
  block::MemBlockDevice dev(64 * 1024);
  Ext3Fs::mkfs(dev, MkfsOptions{});
  Ext3Params params;
  params.page_cache.capacity_pages = 8;
  params.page_cache.dirty_high_water = 4;
  Ext3Fs fs(env, dev, params);
  fs.mount();

  auto ino = fs.create(kRootIno, "hw", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> data(8 * block::kBlockSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(1 + i / block::kBlockSize);
  }
  for (std::uint64_t page = 0; page < 8; ++page) {
    ASSERT_TRUE(fs.write(*ino, page * block::kBlockSize,
                         std::span<const std::uint8_t>{
                             data.data() + page * block::kBlockSize,
                             block::kBlockSize})
                    .ok());
  }
  fs.unmount();
  fs.mount();

  std::vector<std::uint8_t> out(data.size());
  auto n = fs.read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, data.size());
  for (std::size_t page = 0; page < 8; ++page) {
    EXPECT_EQ(out[page * block::kBlockSize], data[page * block::kBlockSize])
        << "page " << page << " lost its write";
  }
}

}  // namespace
}  // namespace netstore::fs
