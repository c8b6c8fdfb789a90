// Tests for the §7 enhancements: strongly-consistent meta-data caching,
// directory delegation with aggregated compounds, and the trace-driven
// consistent-cache simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "workloads/traces.h"

namespace netstore {
namespace {

using core::Protocol;
using core::Testbed;

TEST(ConsistentCacheTest, EliminatesRevalidationMessages) {
  Testbed plain(Protocol::kNfsV4);
  Testbed enhanced(Protocol::kNfsV4Consistent);
  for (Testbed* bed : {&plain, &enhanced}) {
    ASSERT_TRUE(bed->vfs().mkdir("/d", 0755).ok());
    ASSERT_TRUE(bed->vfs().creat("/d/f", 0644).ok());
    (void)bed->vfs().stat("/d/f");
    bed->settle(sim::seconds(10));  // attrs long stale for the plain client
    bed->reset_counters();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(bed->vfs().stat("/d/f").ok());
      bed->settle(sim::seconds(4));
    }
  }
  EXPECT_GT(plain.snapshot().messages, 0u);
  // every stat served from the cache
  EXPECT_EQ(enhanced.snapshot().messages, 0u);
}

TEST(DelegationTest, MetadataUpdatesAggregateIntoCompounds) {
  Testbed bed(Protocol::kNfsV4Delegation);
  bed.reset_counters();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(bed.vfs().mkdir("/d" + std::to_string(i), 0755).ok());
  }
  // Nothing shipped yet: all updates queued under the delegation.
  EXPECT_EQ(bed.snapshot().messages, 0u);
  bed.settle(sim::seconds(10));  // flush interval fires
  // 32 updates in compounds of 16: two exchanges.
  EXPECT_EQ(bed.snapshot().messages, 2u);
  // The directories are real at the server now.
  EXPECT_TRUE(bed.vfs().stat("/d31").ok());
}

TEST(DelegationTest, CreateDeleteAnnihilation) {
  // PostMark's churn: a create+delete pair inside one delegation window
  // costs the server nothing at all.
  Testbed bed(Protocol::kNfsV4Delegation);
  bed.reset_counters();
  for (int i = 0; i < 16; ++i) {
    const std::string p = "/tmp" + std::to_string(i);
    ASSERT_TRUE(bed.vfs().mkdir(p, 0755).ok());
    ASSERT_TRUE(bed.vfs().rmdir(p).ok());
  }
  bed.settle(sim::seconds(10));
  EXPECT_EQ(bed.snapshot().messages, 0u);
  EXPECT_EQ(bed.nfs_client().pending_delegated_updates(), 0u);
}

TEST(DelegationTest, DataDefersLocallyAndShipsAtFlush) {
  Testbed bed(Protocol::kNfsV4Delegation);
  bed.reset_counters();
  auto fd = bed.vfs().creat("/file", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> data(5000, 0x42);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  // Nothing has touched the server yet — data and meta-data are both
  // deferred under the delegation.
  EXPECT_EQ(bed.snapshot().messages, 0u);
  // Read-your-writes from the local buffer.
  std::vector<std::uint8_t> out(5000);
  auto n = bed.vfs().read(*fd, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::vector<std::uint8_t>(data.begin(), data.end()), out);

  bed.nfs_client().flush_delegated_updates();
  // Now the file exists at the server with the written contents.
  auto ino = bed.server_fs().resolve("/file");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(bed.server_fs().getattr(*ino)->size, 5000u);
  // And the client still reads it correctly through the real handle.
  auto fd2 = bed.vfs().open("/file");
  ASSERT_TRUE(fd2.ok());
  std::fill(out.begin(), out.end(), 0);
  ASSERT_TRUE(bed.vfs().read(*fd2, 0, out).ok());
  EXPECT_EQ(std::vector<std::uint8_t>(data.begin(), data.end()), out);
}

TEST(DelegationTest, DeletedBeforeFlushNeverTouchesTheServer) {
  // The paper's PostMark pattern: short-lived files cost zero messages.
  Testbed bed(Protocol::kNfsV4Delegation);
  bed.reset_counters();
  for (int i = 0; i < 8; ++i) {
    const std::string p = "/tmp" + std::to_string(i);
    auto fd = bed.vfs().creat(p, 0644);
    ASSERT_TRUE(fd.ok());
    std::vector<std::uint8_t> data(8192, 0x19);
    ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
    ASSERT_TRUE(bed.vfs().close(*fd).ok());
    ASSERT_TRUE(bed.vfs().unlink(p).ok());
  }
  bed.settle(sim::seconds(10));
  EXPECT_EQ(bed.snapshot().messages, 0u);
}

TEST(DelegationTest, FsyncForcesDurabilityThroughTheServer) {
  Testbed bed(Protocol::kNfsV4Delegation);
  auto fd = bed.vfs().creat("/must-persist", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> data(4096, 0x5E);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
  // Durable at the server now (not just queued).
  auto ino = bed.server_fs().resolve("/must-persist");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(bed.server_fs().getattr(*ino)->size, 4096u);
}

TEST(DelegationTest, UnmountShipsPendingUpdates) {
  Testbed bed(Protocol::kNfsV4Delegation);
  ASSERT_TRUE(bed.vfs().mkdir("/persist", 0755).ok());
  bed.cold_caches();  // unmount flushes the delegation queue
  EXPECT_TRUE(bed.vfs().stat("/persist").ok());
}

TEST(DelegationTest, RenameUnderDelegation) {
  Testbed bed(Protocol::kNfsV4Delegation);
  ASSERT_TRUE(bed.vfs().creat("/old", 0644).ok());
  bed.nfs_client().flush_delegated_updates();
  ASSERT_TRUE(bed.vfs().rename("/old", "/new").ok());
  EXPECT_TRUE(bed.vfs().stat("/new").ok());
  EXPECT_EQ(bed.vfs().stat("/old").error(), fs::Err::kNoEnt);
  bed.nfs_client().flush_delegated_updates();
  EXPECT_TRUE(bed.server_fs().resolve("/new").ok());
  EXPECT_FALSE(bed.server_fs().resolve("/old").ok());
}

// The file's bytes as the server's own file system holds them.
std::vector<std::uint8_t> server_bytes(Testbed& bed, const std::string& path) {
  auto ino = bed.server_fs().resolve(path);
  if (!ino.ok()) return {};
  std::vector<std::uint8_t> out(bed.server_fs().getattr(*ino)->size);
  EXPECT_TRUE(bed.server_fs().read(*ino, 0, out).ok());
  return out;
}

// A client page cache that holds only two pages.
core::TestbedConfig two_page_client_cache() {
  core::TestbedConfig cfg;
  cfg.system.client_cache_pages = 2;
  return cfg;
}

// Writes page `index` filled with a byte unique to it, and records the
// write in `expect`.
void write_page(Testbed& bed, vfs::Fd fd, std::uint64_t index,
                std::vector<std::uint8_t>& expect) {
  const auto fill = static_cast<std::uint8_t>(0x11 * (index + 1));
  std::vector<std::uint8_t> page(4096, fill);
  ASSERT_TRUE(bed.vfs().write(fd, index * 4096, page).ok());
  if (expect.size() < (index + 1) * 4096) expect.resize((index + 1) * 4096);
  std::copy(page.begin(), page.end(), expect.begin() + index * 4096);
}

TEST(DelegationTest, UnshippedPagesOutliveAFullClientCache) {
  // Pages of a file created under the delegation exist only at the
  // client until the flush ships them: evicting one would lose its data.
  Testbed bed(Protocol::kNfsV4Delegation, two_page_client_cache());
  auto fd = bed.vfs().creat("/f", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> expect;
  for (std::uint64_t i = 0; i < 3; ++i) write_page(bed, *fd, i, expect);
  bed.nfs_client().flush_delegated_updates();
  EXPECT_EQ(server_bytes(bed, "/f"), expect);
}

TEST(DelegationTest, ReKeyingShippedPagesEvictsNoUnshippedPage) {
  // Writing page 1 before page 0 leaves page 1 the LRU tail; re-keying
  // page 0 to the server handle must not evict page 1 before it too is
  // re-keyed.
  Testbed bed(Protocol::kNfsV4Delegation, two_page_client_cache());
  auto fd = bed.vfs().creat("/f", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> expect;
  write_page(bed, *fd, 1, expect);
  write_page(bed, *fd, 0, expect);
  bed.nfs_client().flush_delegated_updates();
  EXPECT_EQ(server_bytes(bed, "/f"), expect);
}

// Messages a delegated file of four pages, written in `order`, costs to
// ship; the server must end up holding the same bytes either way.
std::uint64_t ship_messages(const std::vector<std::uint64_t>& order) {
  Testbed bed(Protocol::kNfsV4Delegation);
  auto fd = bed.vfs().creat("/f", 0644);
  EXPECT_TRUE(fd.ok());
  std::vector<std::uint8_t> expect;
  for (const std::uint64_t index : order) write_page(bed, *fd, index, expect);
  bed.reset_counters();
  bed.nfs_client().flush_delegated_updates();
  EXPECT_EQ(server_bytes(bed, "/f"), expect);
  return bed.snapshot().messages;
}

TEST(DelegationTest, ShipsPagesInIndexOrderWhateverTheWriteOrder) {
  // The per-handle page list holds pages in write order; shipping sorts
  // them, so the contiguous file goes out in as few WRITEs as when it was
  // written front to back.
  const std::uint64_t in_order = ship_messages({0, 1, 2, 3});
  EXPECT_GT(in_order, 0u);
  EXPECT_EQ(ship_messages({2, 0, 3, 1}), in_order);
  EXPECT_EQ(ship_messages({3, 2, 1, 0}), in_order);
}

TEST(TraceSimTest, GeneratorIsDeterministic) {
  const auto a = workloads::generate_trace(workloads::TraceProfile::eecs(), 9);
  const auto b = workloads::generate_trace(workloads::TraceProfile::eecs(), 9);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 10000u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a[i].dir, b[i].dir);
    EXPECT_EQ(a[i].client, b[i].client);
  }
}

TEST(TraceSimTest, SharingClassesAreNormalizedAndOrdered) {
  const auto events =
      workloads::generate_trace(workloads::TraceProfile::eecs(), 9);
  const auto points = workloads::analyze_sharing(events, {60, 600});
  for (const auto& p : points) {
    const double total =
        p.read_one + p.written_one + p.read_multi + p.written_multi;
    EXPECT_LE(total, 1.0 + 1e-9);
    EXPECT_GT(total, 0.5);
    // Research profile: single-client access dominates (Figure 7).
    EXPECT_GT(p.read_one + p.written_one, p.read_multi + p.written_multi);
  }
  // Sharing grows with the observation interval.
  EXPECT_GE(points[1].read_multi, points[0].read_multi);
}

TEST(TraceSimTest, ConsistentCacheReducesMessages) {
  const auto events =
      workloads::generate_trace(workloads::TraceProfile::eecs(), 9);
  const auto small = workloads::simulate_consistent_cache(events, 50, 8);
  const auto big = workloads::simulate_consistent_cache(events, 50, 256);
  EXPECT_GT(small.reduction(), 0.1);
  EXPECT_GT(big.reduction(), small.reduction());
  EXPECT_LT(big.callback_ratio(), 0.08);  // paper: callbacks are rare
}

TEST(TraceSimTest, CacheInvariants) {
  const auto events =
      workloads::generate_trace(workloads::TraceProfile::campus(), 9);
  const auto r = workloads::simulate_consistent_cache(events, 100, 64);
  EXPECT_EQ(r.baseline_messages, events.size());
  EXPECT_LE(r.cached_messages, r.baseline_messages);
  // Every write is a message, so the cache can't eliminate those.
  std::uint64_t writes = 0;
  for (const auto& e : events) writes += e.is_write ? 1 : 0;
  EXPECT_GE(r.cached_messages, writes);
}

}  // namespace
}  // namespace netstore
