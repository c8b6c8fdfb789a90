// bench_sim_selfperf: wall-clock throughput of the simulator itself.
//
// Unlike the paper benches (which measure *virtual* time), this one times
// the simulator's own hot loops with the host clock:
//
//   events/sec    a self-rescheduling daemon workload drained through the
//                 event loop (sim::Task payloads on the timing wheel).
//   syscalls/sec  warm-cache reads driven through a full Testbed VFS stack
//                 (protocol, caches, RAID — the end-to-end per-op cost).
//
//   sweep speedup  a Figure-5-shaped parameter sweep (3 modes x 10 I/O
//                 sizes x 4 protocols) run twice: every point built from
//                 scratch (construct + warmup replay + measured op), then
//                 every point forked from one warmed per-protocol
//                 checkpoint (the warm-prototype path the sweep benches
//                 use).  The forked total includes building the
//                 prototypes, so the ratio is the end-to-end win.  Each
//                 point's message count is asserted identical across the
//                 two paths (the checkpoint determinism contract).
//
//   fork cost     per protocol: the wall cost of forking one warmed
//                 checkpoint, against a measured estimate of what a
//                 deep-copying clone would add (heap alloc + 4 KB copy of
//                 every page the image shares).  The ratio is the win
//                 from the copy-on-write BufferPool (DESIGN.md §14).
//   allocs/syscall  BufferPool fallback allocations per warm read: the
//                 steady-state data path must run off the frame free
//                 list, so this is ~0 once caches are warm.
//
//   copy scaling  charged copy bytes per warm syscall across I/O sizes
//                 (4 KB..64 KB, iSCSI and NFSv3): every charged copy is
//                 a user-boundary crossing, so below-boundary
//                 bytes/syscall is ~0 in the warm steady state
//                 (DESIGN.md §19).
//
//   timer ops/sec  near-term schedule-and-fire churn over a standing set
//                 of N far-future events (DESIGN.md §18).  Run per depth
//                 (10^2..10^6 pending); O(1) per op means the rate stays
//                 flat with depth.  The CI gate pins the 10^5-pending
//                 point.
//
//   shard speedup  (--shards N) the sharded parallel drive (DESIGN.md
//                 §17): an NFSv3 fleet of --shard-clients flyweights
//                 driven sequentially, then again across {1, 2, 4, ...,
//                 N} per-shard reactors under conservative lookahead.
//                 Wall-clock, so it needs >= N free hardware threads to
//                 show the parallel win.
//
//   bench_sim_selfperf [--events N] [--syscalls N] [--json PATH]
//                      [--shards N] [--shard-clients N] [--shard-ops N]
//                      [--min-events-per-sec X] [--min-sweep-speedup X]
//                      [--min-fork-speedup X] [--min-shard-speedup X]
//                      [--min-timer-ops-per-sec X]
//                      [--max-allocs-per-syscall X]
//                      [--max-copied-bytes-per-syscall X]
//
// The --min-*/--max-* flags make the binary a CI gate: exit 1 if any
// measured value lands on the wrong side of its floor/ceiling.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/buffer_pool.h"
#include "core/checkpoint.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "workloads/microbench.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- events/sec ----------------------------------------------------------
//
// `chains` concurrent daemons, each rescheduling itself at a staggered
// period until the shared budget runs out — the flusher/journal/lease
// pattern that dominates real runs.  The capture mirrors an I/O
// completion closure (context pointers plus a file handle and offset):
// 40 bytes, exactly sim::Task's inline storage.
struct Tick {
  netstore::sim::Env* env;
  std::uint64_t* remaining;
  std::uint64_t period;
  std::uint64_t fh;      // completion payload: file handle...
  std::uint64_t offset;  // ...and byte offset

  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    env->schedule_after(period,
                        Tick{env, remaining, period, fh + 1, offset ^ fh});
  }
};

double events_per_sec(std::uint64_t total_events, int chains) {
  netstore::sim::Env env;
  std::uint64_t remaining = total_events;
  for (int i = 0; i < chains; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    env.schedule_after(i + 1,
                       Tick{&env, &remaining, u % 7 + 1, u, u * 4096});
  }
  const auto t0 = Clock::now();
  env.drain();
  const double dt = seconds_since(t0);
  return static_cast<double>(total_events + chains) / dt;
}

// --- timer ops/sec (hierarchical wheel, DESIGN.md §18) -------------------
//
// The depth question the wheel answers: how fast are near-term
// schedule/fire operations while a large *standing set* of pending
// events sits underneath — a million fleet arrivals, say.  Per depth:
// schedule `pending` far-future events (untimed), then run a timed churn
// of short-deadline events over them — schedule a batch, fire it by
// advancing.  The churn lives in the wheel's lowest levels and never
// touches the standing set, so the rate is O(1) per op regardless of
// depth.
struct TimerPoint {
  std::uint64_t pending = 0;
  double ops_per_sec = 0.0;
};

// One churn pass: batches of near-term events, each scheduled and then
// fired by advancing.  Returns ops performed; each event counts twice
// (schedule + fire).
std::uint64_t timer_churn(netstore::sim::Env& env, std::uint64_t churn_ops,
                          std::uint64_t& sink) {
  constexpr std::uint64_t kBatch = 256;
  constexpr std::uint64_t kWindow = 64;  // ns per batch: wheel level 0
  std::uint64_t ops = 0;
  while (ops < churn_ops) {
    const netstore::sim::Time base = env.now();
    for (std::uint64_t b = 0; b < kBatch; ++b) {
      const auto at = static_cast<netstore::sim::Time>(
          base + 1 + netstore::sim::mix64(ops + b) % kWindow);
      env.schedule_at(at, [&sink, b] { sink += b; });
    }
    env.advance_to(base + kWindow);  // fires the whole batch
    ops += 2 * kBatch;
  }
  return ops;
}

double timer_ops_per_sec(std::uint64_t pending, std::uint64_t churn_ops) {
  netstore::sim::Env env;

  // Standing set: deadlines spread far beyond the churn window, so none
  // fires during the measurement (untimed — depth is the variable here,
  // not the cost of building it).
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < pending; ++i) {
    const auto at = static_cast<netstore::sim::Time>(
        (std::uint64_t{1} << 50) + netstore::sim::mix64(i) % (1 << 30));
    env.schedule_at(at, [&sink, i] { sink += i; });
  }

  // Warm-up (untimed): faults in the bucket vectors and lets the CPU
  // leave its idle frequency before the timed pass.
  (void)timer_churn(env, churn_ops / 4, sink);

  const auto t0 = Clock::now();
  const std::uint64_t ops = timer_churn(env, churn_ops, sink);
  const double dt = seconds_since(t0);
  if (env.pending_events() != pending) std::abort();  // standing set intact
  return static_cast<double>(ops) / dt;
}

std::vector<TimerPoint> timer_scaling() {
  constexpr std::uint64_t kChurnOps = 400'000;
  std::vector<TimerPoint> points;
  for (std::uint64_t pending : {std::uint64_t{100}, std::uint64_t{1'000},
                                std::uint64_t{10'000}, std::uint64_t{100'000},
                                std::uint64_t{1'000'000}}) {
    TimerPoint pt;
    pt.pending = pending;
    // Best of two reps: a single rep is at the mercy of frequency
    // scaling and whatever else shares the machine.
    for (int rep = 0; rep < 2; ++rep) {
      pt.ops_per_sec =
          std::max(pt.ops_per_sec, timer_ops_per_sec(pending, kChurnOps));
    }
    points.push_back(pt);
  }
  return points;
}

// --- syscalls/sec --------------------------------------------------------

struct SyscallPerf {
  double ops_per_sec = 0.0;
  // BufferPool fallback allocations per warm op: frames the free list
  // could not serve during the measured loop.  ~0 in steady state.
  double allocs_per_syscall = 0.0;
};

SyscallPerf syscalls_per_sec(netstore::core::Protocol proto,
                             std::uint64_t ops) {
  netstore::core::Testbed bed(proto);
  constexpr std::uint32_t kFileBytes = 64 * 1024;
  constexpr std::uint32_t kReadBytes = 4 * 1024;

  auto fd = bed.vfs().creat("/hot", 0644);
  if (!fd.ok()) std::abort();
  std::vector<std::uint8_t> buf(kFileBytes, 0x5a);
  if (!bed.vfs().write(*fd, 0, buf).ok()) std::abort();
  if (!bed.vfs().fsync(*fd).ok()) std::abort();

  std::vector<std::uint8_t> rd(kReadBytes);
  (void)bed.vfs().read(*fd, 0, rd);  // warm the cache stack

  auto& pool = netstore::core::BufferPool::instance();
  const std::uint64_t fallbacks_before = pool.alloc_fallbacks();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t off = (i % (kFileBytes / kReadBytes)) * kReadBytes;
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }
  const double dt = seconds_since(t0);
  const std::uint64_t fallbacks =
      pool.alloc_fallbacks() - fallbacks_before;
  (void)bed.vfs().close(*fd);
  SyscallPerf res;
  res.ops_per_sec = static_cast<double>(ops) / dt;
  res.allocs_per_syscall =
      ops > 0 ? static_cast<double>(fallbacks) / static_cast<double>(ops)
              : 0.0;
  return res;
}

// --- copy scaling (zero-copy data plane, DESIGN.md §19) ------------------

struct CopyPoint {
  netstore::core::Protocol proto;
  std::uint32_t io_bytes = 0;
  double ops_per_sec = 0.0;
  // Charged bytes per warm read: the user-boundary copy_out plus any
  // below-boundary staging the plane failed to eliminate.
  double copied_per_syscall = 0.0;
  // (bytes_copied - bytes_read - bytes_written) / ops: copies that are
  // NOT user-boundary crossings.  ~0 in the warm steady state — this is
  // what --max-copied-bytes-per-syscall gates.
  double below_boundary_per_syscall = 0.0;
};

CopyPoint copy_point(netstore::core::Protocol proto, std::uint32_t io_bytes,
                     std::uint64_t ops) {
  netstore::core::Testbed bed(proto);
  constexpr std::uint32_t kFileBytes = 256 * 1024;

  auto fd = bed.vfs().creat("/copy", 0644);
  if (!fd.ok()) std::abort();
  std::vector<std::uint8_t> buf(kFileBytes, 0x6b);
  if (!bed.vfs().write(*fd, 0, buf).ok()) std::abort();
  if (!bed.vfs().fsync(*fd).ok()) std::abort();

  // Warm pass: fault the whole file into every cache layer so the timed
  // loop is the steady state the gate is about.
  std::vector<std::uint8_t> rd(io_bytes);
  for (std::uint64_t off = 0; off < kFileBytes; off += io_bytes) {
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }

  auto& pool = netstore::core::BufferPool::instance();
  const netstore::core::BufferPool::CopyStats before = pool.copy_stats();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t off = (i % (kFileBytes / io_bytes)) * io_bytes;
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }
  const double dt = seconds_since(t0);
  const netstore::core::BufferPool::CopyStats after = pool.copy_stats();
  (void)bed.vfs().close(*fd);

  const auto copied = after.bytes_copied - before.bytes_copied;
  const auto boundary = (after.bytes_read - before.bytes_read) +
                        (after.bytes_written - before.bytes_written);
  CopyPoint pt;
  pt.proto = proto;
  pt.io_bytes = io_bytes;
  pt.ops_per_sec = static_cast<double>(ops) / dt;
  pt.copied_per_syscall =
      ops > 0 ? static_cast<double>(copied) / static_cast<double>(ops) : 0.0;
  pt.below_boundary_per_syscall =
      ops > 0 ? static_cast<double>(copied - boundary) /
                    static_cast<double>(ops)
              : 0.0;
  return pt;
}

std::vector<CopyPoint> copy_scaling(std::uint64_t ops) {
  std::vector<CopyPoint> points;
  for (netstore::core::Protocol p :
       {netstore::core::Protocol::kIscsi, netstore::core::Protocol::kNfsV3}) {
    for (std::uint32_t io : {4u * 1024, 8u * 1024, 16u * 1024, 32u * 1024,
                             64u * 1024}) {
      points.push_back(copy_point(p, io, ops));
    }
  }
  return points;
}

// --- sweep speedup (warm-state checkpoint/fork, DESIGN.md §13) -----------

// The warm state a sweep's points share: file-system aging plus a seeded
// 256 KB file (the shape of Microbench::setup), ending quiesced.  This is
// what every from-scratch point replays and every forked point inherits.
void warm_state(netstore::core::Testbed& bed) {
  auto& v = bed.vfs();
  for (int i = 0; i < 320; ++i) {
    if (!v.creat("/age" + std::to_string(i), 0644).ok()) std::abort();
  }
  std::vector<std::uint8_t> blk(64 * 1024, 0x11);
  auto fd = v.creat("/seed", 0644);
  if (!fd.ok()) std::abort();
  for (std::uint64_t k = 0; k < 4; ++k) {
    if (!v.write(*fd, k * blk.size(), blk).ok()) std::abort();
  }
  if (!v.fsync(*fd).ok()) std::abort();
  if (!v.close(*fd).ok()) std::abort();
  bed.quiesce();
}

struct SweepResult {
  double scratch_ms = 0.0;  // every point: construct + warmup + op
  double forked_ms = 0.0;   // prototypes + checkpoints, then fork + op
  int points = 0;
};

// One Figure-5-shaped sweep over `protocols`: 3 modes x 10 sizes each.
// Runs the from-scratch and the forked path over identical points and
// CHECKs that each point measures the same message count on both.
SweepResult sweep_speedup(
    const std::vector<netstore::core::Protocol>& protocols) {
  using netstore::core::Protocol;
  using netstore::core::Testbed;
  struct Mode {
    bool write;
    bool warm;
  };
  const Mode modes[] = {{false, false}, {false, true}, {true, false}};
  const std::uint32_t sizes[] = {128,  256,  512,   1024,  2048,
                                 4096, 8192, 16384, 32768, 65536};

  SweepResult res;
  std::vector<std::uint64_t> scratch_msgs;
  const auto t0 = Clock::now();
  for (Protocol p : protocols) {
    for (const Mode& m : modes) {
      for (std::uint32_t size : sizes) {
        Testbed bed(p);
        warm_state(bed);
        netstore::workloads::Microbench mb(bed);
        scratch_msgs.push_back(mb.io_op(m.write, size, m.warm));
        ++res.points;
      }
    }
  }
  res.scratch_ms = seconds_since(t0) * 1e3;

  std::size_t i = 0;
  const auto t1 = Clock::now();
  for (Protocol p : protocols) {
    Testbed proto(p);
    warm_state(proto);
    netstore::core::Checkpoint cp(proto);
    for (const Mode& m : modes) {
      for (std::uint32_t size : sizes) {
        auto bed = cp.fork();
        netstore::workloads::Microbench mb(*bed);
        const std::uint64_t msgs = mb.io_op(m.write, size, m.warm);
        if (msgs != scratch_msgs[i]) {
          std::fprintf(stderr,
                       "FAIL: sweep point %zu diverged: forked %llu msgs "
                       "vs scratch %llu\n",
                       i, static_cast<unsigned long long>(msgs),
                       static_cast<unsigned long long>(scratch_msgs[i]));
          std::abort();
        }
        ++i;
      }
    }
  }
  res.forked_ms = seconds_since(t1) * 1e3;
  return res;
}

// --- fork cost (copy-on-write BufferPool, DESIGN.md §14) -----------------

struct ForkCost {
  netstore::core::Protocol proto;
  std::uint64_t image_pages = 0;  // pooled pages the checkpoint shares
  double fork_us = 0.0;           // mean wall cost of one fork
  double page_copy_us = 0.0;      // measured alloc+copy cost of the pages
  // What a deep-copying clone would cost relative to the CoW fork: the
  // fork does all the metadata work either way, plus (before this pool)
  // one heap allocation and 4 KB copy per resident page.
  [[nodiscard]] double speedup() const {
    return fork_us > 0 ? (fork_us + page_copy_us) / fork_us : 0.0;
  }
};

ForkCost fork_cost(netstore::core::Protocol p) {
  using netstore::core::Testbed;
  ForkCost res;
  res.proto = p;
  Testbed proto(p);
  warm_state(proto);

  // Checkpoint construction clones every cache layer; with the pool,
  // each resident page's refcount goes 1 -> 2, so the shared_pages delta
  // counts exactly the pages a deep-copying clone would have copied.
  auto& pool = netstore::core::BufferPool::instance();
  const std::uint64_t shared_before = pool.shared_pages();
  netstore::core::Checkpoint cp(proto);
  res.image_pages = pool.shared_pages() - shared_before;

  constexpr int kForks = 64;
  const auto t0 = Clock::now();
  for (int i = 0; i < kForks; ++i) {
    auto bed = cp.fork();
  }
  res.fork_us = seconds_since(t0) * 1e6 / kForks;

  // Measure (not assert) the removed work: one heap allocation plus one
  // 4 KB copy per image page, what the per-layer clones used to do.
  netstore::block::BlockBuf src;
  src.fill(0x3c);
  std::vector<std::unique_ptr<netstore::block::BlockBuf>> copies;
  copies.reserve(res.image_pages);
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < res.image_pages; ++i) {
    // Deliberately the raw allocation the pool replaced — it IS the
    // baseline being measured.  netstore-lint: allow(raw-blockbuf-alloc)
    copies.push_back(std::make_unique<netstore::block::BlockBuf>(src));
  }
  res.page_copy_us = seconds_since(t1) * 1e6;
  return res;
}

// --- shard scaling (sharded parallel drive, DESIGN.md §17) ---------------

struct ShardPoint {
  std::uint32_t shards = 1;
  double drive_ms = 0.0;
  double speedup_x = 0.0;  // vs the shards=1 sequential drive
  std::uint64_t epochs = 0;
  std::uint64_t xshard_msgs = 0;
};

// One NFS fleet of `clients` flyweights per shard count: a warm
// checkpoint provides the worlds, setup() runs outside the timed window,
// so each point times the drive itself — the sequential arrival loop at
// shards=1 against the barrier-epoch parallel drive above it.  The
// speedup is wall-clock and therefore host-dependent: it needs >= shards
// free hardware threads to mean anything (the CI gate runs on 4-vCPU
// runners; a 1-core container will honestly report ~1x).
std::vector<ShardPoint> shard_scaling(std::uint32_t max_shards,
                                      std::uint64_t clients,
                                      std::uint64_t ops) {
  using netstore::core::Checkpoint;
  using netstore::core::Protocol;
  using netstore::core::Testbed;
  using netstore::core::WorkloadConfig;

  Testbed proto(Protocol::kNfsV3);
  proto.quiesce();
  Checkpoint cp(proto);

  std::vector<std::uint32_t> counts{1};
  for (std::uint32_t s = 2; s <= max_shards; s *= 2) counts.push_back(s);
  if (counts.back() != max_shards) counts.push_back(max_shards);

  std::vector<ShardPoint> points;
  double base_ms = 0.0;
  for (std::uint32_t s : counts) {
    WorkloadConfig w;
    w.clients = clients;
    w.ops = ops;
    w.seed = 42;
    w.shards = s;
    auto fleet = cp.fleet(w);
    fleet->setup();
    const auto t0 = Clock::now();
    fleet->run();
    const double ms = seconds_since(t0) * 1e3;
    if (s == 1) base_ms = ms;
    ShardPoint pt;
    pt.shards = s;
    pt.drive_ms = ms;
    pt.speedup_x = ms > 0 ? base_ms / ms : 0.0;
    pt.epochs = fleet->epochs();
    pt.xshard_msgs = fleet->cross_shard_messages();
    points.push_back(pt);
  }
  return points;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--events N] [--syscalls N] [--json PATH] "
               "[--shards N] [--shard-clients N] [--shard-ops N] "
               "[--min-events-per-sec X] [--min-sweep-speedup X] "
               "[--min-fork-speedup X] [--min-shard-speedup X] "
               "[--min-timer-ops-per-sec X] "
               "[--max-allocs-per-syscall X] "
               "[--max-copied-bytes-per-syscall X]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n_events = 2'000'000;
  std::uint64_t n_syscalls = 200'000;
  // Default daemon count matches reality: the hybrid simulation style
  // keeps the pending-event queue shallow (instrumented Testbed runs hold
  // ~2 events — flusher tick + journal commit), so 4 concurrent chains is
  // already generous.  --chains explores deeper queues.
  int chains = 4;
  std::string json_path;
  // --shards 0 (default) skips the shard-scaling section entirely; the
  // perf-smoke CI job passes --shards 4 --min-shard-speedup 1.8.
  std::uint32_t shards = 0;
  std::uint64_t shard_clients = 100'000;
  std::uint64_t shard_ops = 20'000;
  double min_events_per_sec = 0.0;
  double min_sweep_speedup = 0.0;
  double min_fork_speedup = 0.0;
  double min_shard_speedup = 0.0;
  double min_timer_ops_per_sec = 0.0;
  double max_allocs_per_syscall = -1.0;
  double max_copied_bytes_per_syscall = -1.0;
  // The depth the --min-timer-ops-per-sec gate pins: a deep standing set
  // that stays cheap to build.
  constexpr std::uint64_t kGatedTimerDepth = 100'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--events" && has_value) {
      n_events = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chains" && has_value) {
      chains = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (chains < 1) chains = 1;
    } else if (arg == "--syscalls" && has_value) {
      n_syscalls = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--min-events-per-sec" && has_value) {
      min_events_per_sec = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-sweep-speedup" && has_value) {
      min_sweep_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--shards" && has_value) {
      shards = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--shard-clients" && has_value) {
      shard_clients = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--shard-ops" && has_value) {
      shard_ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--min-fork-speedup" && has_value) {
      min_fork_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-shard-speedup" && has_value) {
      min_shard_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-timer-ops-per-sec" && has_value) {
      min_timer_ops_per_sec = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-allocs-per-syscall" && has_value) {
      max_allocs_per_syscall = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-copied-bytes-per-syscall" && has_value) {
      max_copied_bytes_per_syscall = std::strtod(argv[++i], nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  const int kChains = chains;
  const std::uint64_t inline_before =
      netstore::sim::Task::inline_constructions();
  const std::uint64_t heap_before = netstore::sim::Task::heap_constructions();

  const double current = events_per_sec(n_events, kChains);
  const std::uint64_t inline_delta =
      netstore::sim::Task::inline_constructions() - inline_before;
  const std::uint64_t heap_delta =
      netstore::sim::Task::heap_constructions() - heap_before;

  const std::vector<TimerPoint> timer_points = timer_scaling();

  const SyscallPerf sys_iscsi =
      syscalls_per_sec(netstore::core::Protocol::kIscsi, n_syscalls);
  const SyscallPerf sys_nfsv3 =
      syscalls_per_sec(netstore::core::Protocol::kNfsV3, n_syscalls);

  const std::vector<CopyPoint> copy_points = copy_scaling(n_syscalls / 10);

  const SweepResult sweep = sweep_speedup(
      {netstore::core::Protocol::kNfsV2, netstore::core::Protocol::kNfsV3,
       netstore::core::Protocol::kNfsV4, netstore::core::Protocol::kIscsi});
  const double sweep_x =
      sweep.forked_ms > 0 ? sweep.scratch_ms / sweep.forked_ms : 0.0;

  std::vector<ForkCost> forks;
  for (netstore::core::Protocol p :
       {netstore::core::Protocol::kNfsV2, netstore::core::Protocol::kNfsV3,
        netstore::core::Protocol::kNfsV4, netstore::core::Protocol::kIscsi}) {
    forks.push_back(fork_cost(p));
  }

  std::vector<ShardPoint> shard_points;
  if (shards >= 2) {
    shard_points = shard_scaling(shards, shard_clients, shard_ops);
  }

  std::printf("%-24s %16s\n", "metric", "per second");
  std::printf("%-24s %16.0f\n", "events", current);
  std::printf("%-24s %16.0f\n", "syscalls (iSCSI warm)", sys_iscsi.ops_per_sec);
  std::printf("%-24s %16.0f\n", "syscalls (NFSv3 warm)", sys_nfsv3.ops_per_sec);
  double gated_timer_ops = 0.0;
  for (const TimerPoint& pt : timer_points) {
    if (pt.pending == kGatedTimerDepth) gated_timer_ops = pt.ops_per_sec;
    std::printf("timers %8llu pending: %12.0f ops/s\n",
                static_cast<unsigned long long>(pt.pending), pt.ops_per_sec);
  }
  std::printf("task inline/heap constructions: %llu / %llu\n",
              static_cast<unsigned long long>(inline_delta),
              static_cast<unsigned long long>(heap_delta));
  std::printf("pool allocs/syscall: iSCSI %.4f, NFSv3 %.4f\n",
              sys_iscsi.allocs_per_syscall, sys_nfsv3.allocs_per_syscall);
  double worst_below_boundary = 0.0;
  for (const CopyPoint& pt : copy_points) {
    worst_below_boundary =
        std::max(worst_below_boundary, pt.below_boundary_per_syscall);
    std::printf("copies %-6s %5u B reads: %10.0f ops/s, %8.0f B "
                "copied/syscall, %6.0f B below boundary\n",
                netstore::core::to_string(pt.proto), pt.io_bytes,
                pt.ops_per_sec, pt.copied_per_syscall,
                pt.below_boundary_per_syscall);
  }
  std::printf("sweep (%d points): scratch %.0f ms, forked %.0f ms, "
              "speedup %.2fx\n",
              sweep.points, sweep.scratch_ms, sweep.forked_ms, sweep_x);
  double min_fork_x = 0.0;
  for (const ForkCost& fc : forks) {
    if (min_fork_x == 0.0 || fc.speedup() < min_fork_x) {
      min_fork_x = fc.speedup();
    }
    std::printf("fork %-6s: %5llu pages, fork %.1f us, page copies "
                "+%.1f us, speedup %.2fx\n",
                netstore::core::to_string(fc.proto),
                static_cast<unsigned long long>(fc.image_pages), fc.fork_us,
                fc.page_copy_us, fc.speedup());
  }
  double gated_shard_x = 0.0;  // the speedup at the requested shard count
  for (const ShardPoint& pt : shard_points) {
    if (pt.shards == shards) gated_shard_x = pt.speedup_x;
    std::printf("shards %2u: drive %8.1f ms, speedup %.2fx, %llu epochs, "
                "%llu xshard msgs (NFSv3, %llu clients, %llu ops)\n",
                pt.shards, pt.drive_ms, pt.speedup_x,
                static_cast<unsigned long long>(pt.epochs),
                static_cast<unsigned long long>(pt.xshard_msgs),
                static_cast<unsigned long long>(shard_clients),
                static_cast<unsigned long long>(shard_ops));
  }

  if (!json_path.empty()) {
    netstore::obs::Report report("bench_sim_selfperf",
                                 "simulator hot-path wall-clock throughput");
    auto& t = report.table("selfperf", {"benchmark", "ops", "ops_per_sec"});
    t.row({"events", n_events + kChains, current});
    t.row({"syscalls_iscsi_warm", n_syscalls, sys_iscsi.ops_per_sec});
    t.row({"syscalls_nfsv3_warm", n_syscalls, sys_nfsv3.ops_per_sec});
    auto& s = report.table("task_storage", {"counter", "value"});
    s.row({"inline_constructions", inline_delta});
    s.row({"heap_constructions", heap_delta});
    auto& tm = report.table("timer_scaling", {"pending", "ops_per_sec"});
    for (const TimerPoint& pt : timer_points) {
      tm.row({pt.pending, pt.ops_per_sec});
    }
    auto& sw = report.table("checkpoint_sweep", {"metric", "value"});
    sw.row({"points", static_cast<std::uint64_t>(sweep.points)});
    sw.row({"scratch_ms", sweep.scratch_ms});
    sw.row({"forked_ms", sweep.forked_ms});
    sw.row({"sweep_speedup_x", sweep_x});
    auto& fk = report.table(
        "fork_cost",
        {"protocol", "image_pages", "fork_us", "page_copy_us", "speedup_x"});
    for (const ForkCost& fc : forks) {
      fk.row({netstore::core::to_string(fc.proto), fc.image_pages, fc.fork_us,
              fc.page_copy_us, fc.speedup()});
    }
    if (!shard_points.empty()) {
      auto& sh = report.table(
          "shard_scaling",
          {"shards", "clients", "ops", "drive_ms", "speedup_x", "epochs",
           "xshard_messages"});
      for (const ShardPoint& pt : shard_points) {
        sh.row({static_cast<std::uint64_t>(pt.shards), shard_clients,
                shard_ops, pt.drive_ms, pt.speedup_x, pt.epochs,
                pt.xshard_msgs});
      }
    }
    auto& ap = report.table("pool_path", {"metric", "value"});
    ap.row({"allocs_per_syscall_iscsi", sys_iscsi.allocs_per_syscall});
    ap.row({"allocs_per_syscall_nfsv3", sys_nfsv3.allocs_per_syscall});
    auto& cs = report.table(
        "copy_scaling", {"protocol", "io_bytes", "ops_per_sec",
                         "copied_bytes_per_syscall",
                         "below_boundary_bytes_per_syscall"});
    for (const CopyPoint& pt : copy_points) {
      cs.row({netstore::core::to_string(pt.proto),
              static_cast<std::uint64_t>(pt.io_bytes), pt.ops_per_sec,
              pt.copied_per_syscall, pt.below_boundary_per_syscall});
    }
    // Pool telemetry rides along unconditionally here: this bench exists
    // to watch the simulator's own mechanics, and its output is not part
    // of any byte-identity comparison.
    report.add_snapshot("pool", netstore::bench::pool_snapshot());
    if (!netstore::obs::Report::write_file(json_path, report.json())) {
      return 1;
    }
  }

  if (min_events_per_sec > 0 && current < min_events_per_sec) {
    std::fprintf(stderr,
                 "FAIL: events/sec %.0f below floor %.0f\n", current,
                 min_events_per_sec);
    return 1;
  }
  if (min_sweep_speedup > 0 && sweep_x < min_sweep_speedup) {
    std::fprintf(stderr, "FAIL: sweep speedup %.2fx below floor %.2fx\n",
                 sweep_x, min_sweep_speedup);
    return 1;
  }
  if (min_fork_speedup > 0 && min_fork_x < min_fork_speedup) {
    std::fprintf(stderr, "FAIL: fork speedup %.2fx below floor %.2fx\n",
                 min_fork_x, min_fork_speedup);
    return 1;
  }
  if (min_shard_speedup > 0) {
    if (shards < 2) {
      std::fprintf(stderr,
                   "FAIL: --min-shard-speedup needs --shards >= 2\n");
      return 1;
    }
    if (gated_shard_x < min_shard_speedup) {
      std::fprintf(stderr,
                   "FAIL: shard speedup %.2fx at %u shards below floor "
                   "%.2fx\n",
                   gated_shard_x, shards, min_shard_speedup);
      return 1;
    }
  }
  if (min_timer_ops_per_sec > 0 && gated_timer_ops < min_timer_ops_per_sec) {
    std::fprintf(stderr,
                 "FAIL: timer ops/sec %.0f at %llu pending below floor "
                 "%.0f\n",
                 gated_timer_ops,
                 static_cast<unsigned long long>(kGatedTimerDepth),
                 min_timer_ops_per_sec);
    return 1;
  }
  if (max_allocs_per_syscall >= 0) {
    const double worst =
        std::max(sys_iscsi.allocs_per_syscall, sys_nfsv3.allocs_per_syscall);
    if (worst > max_allocs_per_syscall) {
      std::fprintf(stderr,
                   "FAIL: %.4f pool allocs/syscall above ceiling %.4f\n",
                   worst, max_allocs_per_syscall);
      return 1;
    }
  }
  if (max_copied_bytes_per_syscall >= 0 &&
      worst_below_boundary > max_copied_bytes_per_syscall) {
    std::fprintf(stderr,
                 "FAIL: %.0f below-boundary copied bytes/syscall above "
                 "ceiling %.0f\n",
                 worst_below_boundary, max_copied_bytes_per_syscall);
    return 1;
  }
  return 0;
}
