// Timing-wheel scheduler tests (DESIGN.md §18).
//
// The contract under test: the hierarchical timing wheel behind sim::Env
// dispatches in (deadline, scheduling order) and reproduces the runs of
// the 4-ary heap it replaced.  Pinned three ways:
//   (a) a full protocol run (all four protocols) digests to the value the
//     heap backend produced — the fork_test-style digest covers every
//     StatsSnapshot field plus the sim.timer.* counters (cascades
//     excluded: it is wheel-only work);
//   (b) fixed-seed fleet runs are byte-identical run to run at shards 1
//     and 4 with the wheel driving both the Env queues and the per-shard
//     arrival process;
//   (c) cascade boundary cases: deadlines exactly on a level boundary,
//     same-tick FIFO across a cascade, and past-deadline schedules all
//     dispatch in (deadline, scheduling order).
// Plus the overflow guard: deadlines at/above Env::kNoEvent die under
// NETSTORE_CHECK instead of silently wrapping into the past.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/fleet.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace netstore {
namespace {

using core::Checkpoint;
using core::Fleet;
using core::Protocol;
using core::StatsSnapshot;
using core::Testbed;
using core::WorkloadConfig;

constexpr Protocol kAllProtocols[] = {Protocol::kNfsV2, Protocol::kNfsV3,
                                      Protocol::kNfsV4, Protocol::kIscsi};

// Deterministic mixed protocol run: metadata, sequential and re-read I/O,
// fsync (journal daemon timers), and enough advance to fire flusher
// events.  Ends quiesced so the digest is a complete cut.
void drive_protocol(Testbed& bed, std::uint64_t seed) {
  vfs::Vfs& v = bed.vfs();
  sim::Rng rng(seed);
  ASSERT_TRUE(v.mkdir("/t", 0755));
  std::vector<std::uint8_t> data(16 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> sink(data.size());
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/t/f" + std::to_string(f);
    auto fd = v.creat(path, 0644);
    ASSERT_TRUE(fd);
    for (int blk = 0; blk < 8; ++blk) {
      ASSERT_TRUE(v.write(*fd, static_cast<std::uint64_t>(blk) * data.size(),
                          data));
    }
    if (f % 2 == 0) {
      ASSERT_TRUE(v.fsync(*fd));
    }
    ASSERT_TRUE(v.read(*fd, rng.uniform(8) * data.size(), sink));
    ASSERT_TRUE(v.close(*fd));
    ASSERT_TRUE(v.stat(path));
  }
  ASSERT_TRUE(v.readdir("/t"));
  bed.env().advance(sim::seconds(40));  // sweep past the daemon deadlines
  bed.quiesce();
}

// Run digest: traffic snapshot plus the sim.timer.* counters.  cascades
// is deliberately excluded — overflow redistribution is wheel-only
// bookkeeping the heap-era digests never had.
std::string digest(Testbed& bed) {
  const StatsSnapshot s = bed.snapshot();
  const sim::TimerStats& t = bed.env().timer_stats();
  std::ostringstream os;
  os << "now=" << s.now << " msgs=" << s.messages << " bytes=" << s.bytes
     << " raw=" << s.raw_messages << " retrans=" << s.retransmissions
     << " c2s=" << s.c2s_messages << "/" << s.c2s_bytes
     << " s2c=" << s.s2c_messages << "/" << s.s2c_bytes << std::hexfloat
     << " scpu=" << s.server_cpu_busy << " ccpu=" << s.client_cpu_busy
     << " chit=" << s.client_cache_hit_ratio
     << " shit=" << s.server_cache_hit_ratio << std::defaultfloat
     << " sched=" << t.scheduled.value() << " fired=" << t.fired.value()
     << " end=" << bed.env().now();
  return os.str();
}

// Per-protocol digest of drive_protocol(bed, 7), recorded while the wheel
// and the (since deleted) heap backend were both checked to produce it.
// Pinned so the whole stack keeps reproducing the heap backend's run.
// Only sched has moved since: the NFS runs no longer schedule (and
// cancel) one retransmission timer per RPC.
const char* pinned_digest(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2:
      return "now=40157418839 msgs=178 bytes=1144352 raw=356 retrans=0 "
             "c2s=178/815216 s2c=178/329136 scpu=84330000 ccpu=5165000 "
             "chit=0x0p+0 shit=0x1p+0 sched=2 fired=2 end=40157418839";
    case Protocol::kNfsV3:
      return "now=40099802039 msgs=142 bytes=839888 raw=284 retrans=0 "
             "c2s=142/809456 s2c=142/30432 scpu=70830000 ccpu=5165000 "
             "chit=0x0p+0 shit=0x0p+0 sched=2 fired=2 end=40099802039";
    case Protocol::kNfsV4:
      return "now=40106123194 msgs=133 bytes=834456 raw=266 retrans=0 "
             "c2s=133/807424 s2c=133/27032 scpu=68070000 ccpu=5165000 "
             "chit=0x0p+0 shit=0x0p+0 sched=2 fired=2 end=40106123194";
    default:
      return "now=40041488023 msgs=160 bytes=1524000 raw=326 retrans=0 "
             "c2s=166/1487136 s2c=160/36864 scpu=59105000 ccpu=38180000 "
             "chit=0x1p+0 shit=0x1.b6db6db6db6dbp-1 sched=8 fired=8 "
             "end=40041488023";
  }
}

class BackendIdentityTest : public ::testing::TestWithParam<Protocol> {};

// (a) The whole stack, per protocol: the wheel run digests to the
// recorded heap run.
TEST_P(BackendIdentityTest, WheelRunEqualsHeapRun) {
  Testbed bed(GetParam());
  ASSERT_NO_FATAL_FAILURE(drive_protocol(bed, 7));
  EXPECT_EQ(digest(bed), pinned_digest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BackendIdentityTest,
                         ::testing::ValuesIn(kAllProtocols));

// (b) Fleet determinism on the wheel: the arrival process and all Env
// queues run on wheels; two independent runs at a fixed seed must agree
// byte for byte, sequential and sharded alike.
std::string fleet_digest(Fleet& fleet) {
  obs::Report report("timer_wheel_test", "digest");
  report.add_snapshot("fleet", fleet.world().metrics().snapshot());
  std::ostringstream os;
  os << report.json() << "\nend=" << fleet.world().env().now();
  return os.str();
}

class FleetWheelTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FleetWheelTest, FixedSeedFleetIsByteIdenticalRunToRun) {
  WorkloadConfig w;
  w.clients = 24;
  w.ops = 400;
  w.seed = 4242;
  w.shards = GetParam();

  std::string digests[2];
  for (std::string& d : digests) {
    Testbed proto(Protocol::kNfsV3);
    proto.quiesce();
    Checkpoint cp(proto);
    std::unique_ptr<Fleet> fleet = cp.fleet(w);
    fleet->run();
    d = fleet_digest(*fleet);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

INSTANTIATE_TEST_SUITE_P(Shards, FleetWheelTest, ::testing::Values(1u, 4u));

// (c) Dispatch-order pinning across cascade boundaries.  Deadlines are
// chosen to straddle wheel level boundaries (64, 64^2, 64^3 ticks),
// land exactly ON boundaries, collide on one tick, and fall in the
// past; the observed dispatch order must be the (deadline, scheduling
// order) contract, verified against a reference built by stable-sorting
// the schedule.
std::vector<std::pair<sim::Time, int>> run_boundary_schedule() {
  sim::Env env;
  // Each record is (raw scheduled deadline, schedule index) in dispatch
  // order — raw, because the (deadline, seq) contract orders past-dated
  // events by their original deadline even though they *run* at the next
  // advance with the clock already ahead of them.
  std::vector<std::pair<sim::Time, int>> fired;
  int idx = 0;
  auto at = [&](sim::Time t) {
    const int id = idx++;
    env.schedule_at(t, [&fired, t, id] { fired.emplace_back(t, id); });
  };
  // Warm the cursor off zero so "exactly on a boundary" is relative to a
  // non-trivial wheel state.
  env.advance_to(100);
  const sim::Time base = env.now();
  for (const sim::Time d :
       {sim::Time{0}, sim::Time{1}, sim::Time{63}, sim::Time{64},
        sim::Time{64}, sim::Time{65}, sim::Time{4095}, sim::Time{4096},
        sim::Time{4097}, sim::Time{262143}, sim::Time{262144},
        sim::Time{262145}, sim::Time{64}, sim::Time{4096}}) {
    at(base + d);
  }
  at(base - 50);  // past deadline: runs at the next advance
  at(base - 50);  // and FIFO with its same-deadline sibling
  // Same-tick burst right on a level boundary: batched dispatch must
  // keep scheduling order within the tick.
  for (int i = 0; i < 8; ++i) at(base + 4096);
  env.drain();
  return fired;
}

TEST(CascadeBoundaryTest, DispatchOrderIsDeadlineThenFifo) {
  const auto wheel = run_boundary_schedule();

  // Reference order: stable sort by deadline, past deadlines clamped to
  // the schedule-time clock (they run at the next advance, in order).
  ASSERT_EQ(wheel.size(), 24u);
  std::vector<std::pair<sim::Time, int>> expect = wheel;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second < b.second;
                   });
  EXPECT_EQ(wheel, expect) << "dispatch must be (deadline, seq) ordered";
}

// Re-entrant scheduling during a same-tick batch: an event that schedules
// another event for the *same instant* must see it run within the same
// sweep, after every previously queued same-tick event.
TEST(CascadeBoundaryTest, SameTickReentrantScheduleRunsInSeqOrder) {
  sim::Env env;
  std::vector<int> order;
  env.schedule_at(10, [&] {
    order.push_back(0);
    env.schedule_at(10, [&order] { order.push_back(3); });
  });
  env.schedule_at(10, [&order] { order.push_back(1); });
  env.schedule_at(10, [&order] { order.push_back(2); });
  env.advance_to(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(env.pending_events(), 0u);
}

// Far-future deadlines exercise the top overflow levels; they must still
// round-trip exactly (no truncation on cascade).
TEST(CascadeBoundaryTest, FarFutureDeadlineSurvivesCascadesExactly) {
  sim::Env env;
  const sim::Time far = sim::seconds(3600LL * 24 * 365) * 100;  // ~100 years
  sim::Time fired = 0;
  env.schedule_at(far, [&] { fired = env.now(); });
  EXPECT_EQ(env.next_event_at(), far);
  env.advance_to(far - 1);
  EXPECT_EQ(fired, 0);
  env.advance_to(far);
  EXPECT_EQ(fired, far);
  EXPECT_GT(env.timer_stats().cascades.value(), 0u)
      << "a 100-year deadline must have cascaded down the levels";
}

// Overflow guard (NETSTORE_CHECK): deadlines at/above the kNoEvent
// sentinel and schedule_after sums past the Time range must die loudly —
// a silent wrap would file the event in the past and stall the run.
using TimerOverflowDeathTest = ::testing::Test;

TEST(TimerOverflowDeathTest, ScheduleAtSentinelDies) {
  sim::Env env;
  EXPECT_DEATH(env.schedule_at(sim::Env::kNoEvent, [] {}),
               "deadline overflows sim::Time");
}

TEST(TimerOverflowDeathTest, ScheduleAfterOverflowDies) {
  sim::Env env;
  env.advance_to(sim::seconds(3600LL * 24 * 365));
  EXPECT_DEATH(
      env.schedule_after(std::numeric_limits<sim::Duration>::max(), [] {}),
      "deadline overflows sim::Time");
}

}  // namespace
}  // namespace netstore
