// Fleet: 10k–1M flyweight clients multiplexed over warm Testbed worlds.
//
// The paper's §6 question — how do NFS and iSCSI scale when many clients
// share one server? — needs client counts no per-client-Testbed design
// can reach: a forked Testbed is an isolated world (its own server, its
// own caches), so N forks produce N non-interacting experiments with no
// contention at all.  A Fleet instead keeps ONE world (typically forked
// from a warm core::Checkpoint) and drives it with N *flyweight* logical
// clients: each is a small struct (its own deterministic Rng stream,
// latency accumulators, and — NFS only — per-object attribute-validation
// times over the shared hot set).  All operations multiplex through the
// world's single protocol stack, so clients genuinely contend for the
// server, the link, and the caches.
//
// Arrivals are open-loop: each client's next operation is scheduled one
// think time after its previous *arrival*, not its completion, so offered
// load does not back off when the server saturates — saturation shows up
// as queueing delay (fleet.queue_delay_us) instead of silently throttling
// the workload.  Think times are heavy-tailed (Pareto) by default.
//
// Coherence model (the paper's Figure 7 contrast):
//   * NFS: client c's view of shared object d is stale when another
//     client wrote d after c last validated it, or c's 3 s attribute
//     window lapsed.  A stale view expires the real client stack's
//     cached attributes (NfsClient::expire_path_attrs — no traffic), so
//     the operation pays a genuine GETATTR through the normal
//     revalidation machinery.  GETATTR rate therefore grows with the
//     number of sharers: the revalidation storm.
//   * iSCSI: the session owns its LUN exclusively (Target::claim_lun),
//     the one block-level cache is authoritative, and no coherence
//     traffic exists at any client count.
//
// Sharded drive mode (DESIGN.md §17): with workload.shards = S > 1 the
// fleet takes S checkpoint-forked worlds — one per reactor, modelling S
// server cores in the style of SPDK's pin-connections-to-a-core target —
// and drives them in parallel under a sim::ShardedEnv with the link's
// minimum RTT as conservative lookahead.  Clients are pinned by id
// (shard = id mod S), latency accumulators stay shard-local and merge at
// the end via Sampler::merge, and NFS shared-write visibility crosses
// shards through timestamped mailbox messages delivered one RTT after
// the write — the soonest another core's client could have observed the
// new mtime.  A sharded point is a different (multi-core) experiment
// from a sequential one, but is byte-identical run to run for any fixed
// S, and S=1 is byte-identical to the sequential engine.
//
// Determinism: every random draw flows through per-client Rngs seeded
// from (workload.seed, client id); arrival ties break by client id.
// Fixed seed + fixed N => byte-identical reports, and a Fleet of N=1
// degenerates to exactly the single-client open-loop run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/testbed.h"
#include "sim/rng.h"
#include "sim/sharded_env.h"
#include "sim/timer_wheel.h"

namespace netstore::core {

class Fleet {
 public:
  /// How run() executes the arrival process.
  enum class DriveMode {
    kAuto,        // sequential for 1 world, sharded epochs for >1
    kSequential,  // classic single-reactor loop (1 world only)
    kSharded,     // epoch-driven via sim::ShardedEnv, any shard count.
                  // With 1 world this runs inline and is byte-identical
                  // to kSequential — the contract sharded_env_test pins.
  };

  /// Takes ownership of a built (typically checkpoint-forked) world and
  /// prepares `workload.clients` flyweight clients for it.  Adopts the
  /// fleet.* metrics it owns into the world's registry.  workload.shards
  /// must be 1.
  Fleet(std::unique_ptr<Testbed> world, WorkloadConfig workload);
  /// Sharded form: one world per reactor (all forks of the same image;
  /// see Checkpoint::fork_shards).  workload.shards must equal
  /// worlds.size().
  Fleet(std::vector<std::unique_ptr<Testbed>> worlds, WorkloadConfig workload);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Creates the shared hot set and the private-file directory in every
  /// shard world, settles deferred traffic, then opens a fresh
  /// measurement window (Testbed::reset_counters).  run() calls this on
  /// first use.
  void setup();

  /// Runs the open-loop arrival process for workload.ops operations
  /// (split across shards when sharded) and fills the per-client
  /// fairness sampler (fleet.client_mean_us).
  void run(DriveMode mode = DriveMode::kAuto);

  /// The primary (shard 0) world: owner of the merged fleet.* metrics.
  [[nodiscard]] Testbed& world() { return *shards_[0].world; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Testbed& shard_world(std::uint32_t s) {
    return *shards_[s].world;
  }
  [[nodiscard]] const WorkloadConfig& workload() const { return workload_; }

  // Aggregates (also exported as fleet.* metrics in world().metrics()).
  [[nodiscard]] std::uint64_t ops_completed() const;
  [[nodiscard]] std::uint64_t shared_ops() const;
  /// NFS: operations that had to expire a fresh cached attribute because
  /// of cross-client sharing.  Always 0 on iSCSI (exclusive LUN).
  [[nodiscard]] std::uint64_t forced_revalidations() const;
  /// Clients that completed at least one operation in the run.
  [[nodiscard]] std::uint64_t active_clients() const;
  /// Jain fairness index over active clients' mean response times:
  /// (sum x)^2 / (n * sum x^2) in (0, 1], 1 = perfectly fair.
  [[nodiscard]] double jain_fairness_index() const;
  /// Barrier epochs / cross-shard messages of the last sharded run
  /// (0 after sequential runs).
  [[nodiscard]] std::uint64_t epochs() const;
  [[nodiscard]] std::uint64_t cross_shard_messages() const;

 private:
  struct Client {
    sim::Rng rng;
    std::uint64_t ops = 0;
    double sum_response_us = 0;
    std::uint32_t private_files = 0;
  };

  /// Per-shard arrival queue: the same O(1) hierarchical wheel the Env
  /// schedules on (DESIGN.md §18), ordered by (arrival time, global
  /// client id).  Ids are unique among pending arrivals (one per client),
  /// so this is exactly the total order the old
  /// std::priority_queue<pair> gave, at O(1) per push/pop instead of
  /// O(log clients).  Payload-free: the wheel key IS the client id.
  struct NoPayload {};
  using ArrivalQueue = sim::TimerWheel<NoPayload>;

  /// One reactor's whole state: its world (a complete server-core stack),
  /// the clients pinned to it, their arrival queue, the shard-local view
  /// of NFS coherence, and shard-local measurement accumulators that
  /// fold into the primary registry after the run.  Owned and touched by
  /// exactly one reactor thread during a sharded drive.
  struct Shard {
    std::unique_ptr<Testbed> world;
    std::vector<Client> clients;  // local index = global id / shard_count
    ArrivalQueue arrivals;

    // NFS coherence state, empty on iSCSI worlds: validated[c*S + d] is
    // the last time local client c validated shared object d (-1 =
    // never), and last_write[d] the last time this shard *learned of* a
    // write to d — local writes immediately, remote writes one RTT after
    // they happened (via the cross-shard mailbox).
    std::vector<sim::Time> validated;
    std::vector<sim::Time> last_write;

    // Per-run op budget (assigned at run() start among shards that have
    // clients) and progress.
    std::uint64_t budget = 0;
    std::uint64_t done = 0;

    // Shard-local accumulators, folded into the Fleet-owned fleet.*
    // metrics at end of run (Sampler::merge / Counter::add in shard
    // order — for one shard this reproduces the sequential recording
    // sequence exactly).
    std::uint64_t ops = 0;
    std::uint64_t shared_ops = 0;
    std::uint64_t forced_revals = 0;
    sim::Sampler response_us;
    sim::Sampler queue_delay_us;
    sim::Sampler service_us;
  };

  [[nodiscard]] std::string shared_path(std::uint64_t obj) const;
  [[nodiscard]] std::string private_path(std::uint64_t client,
                                         std::uint32_t file) const;
  [[nodiscard]] sim::Duration think(Client& cl);
  /// NFS staleness check for (client, shared object); expires the real
  /// attr cache when the flyweight client's view is out of date.
  void force_revalidation_if_stale(Shard& sh, std::uint64_t local_client,
                                   std::uint64_t obj, const std::string& path);
  void do_op(Shard& sh, std::uint64_t client, Client& cl);
  /// Processes every arrival of shard `s` due by `horizon`, honoring the
  /// shard's op budget.  Returns the next pending arrival time, or
  /// ShardedEnv::kIdle when the budget is exhausted.  The sequential
  /// drive is this with an infinite horizon.
  [[nodiscard]] sim::Time drive_shard(std::uint32_t s, sim::Time horizon);
  void assign_budgets();
  /// Folds shard-local accumulators into the primary registry's fleet.*
  /// metrics, in shard order, and rebuilds the fairness digest in global
  /// client-id order.
  void fold_stats();

  WorkloadConfig workload_;
  sim::ZipfSampler zipf_;

  // The fleet.* metrics, adopted into the primary world's registry.
  // Declared before shards_ so the worlds, and their registries, are
  // destroyed first.
  sim::Counter ops_;
  sim::Counter shared_ops_;
  sim::Counter forced_revals_;
  sim::Sampler response_us_;
  sim::Sampler queue_delay_us_;
  sim::Sampler service_us_;
  sim::Sampler client_mean_us_;
  // Adopted by sharded fleets only (absent from sequential registries so
  // shards=1 output stays byte-identical to the pre-sharding engine):
  // epoch and mailbox telemetry plus per-reactor op counts.  The shard
  // vector is sized once, before adoption, and never reallocates.
  sim::Counter epochs_ctr_;
  sim::Counter xshard_msgs_ctr_;
  std::vector<sim::Counter> shard_ops_ctrs_;

  std::vector<Shard> shards_;

  bool setup_done_ = false;

  // Sharded-drive plumbing, live only inside run(kSharded).
  sim::ShardedEnv* senv_ = nullptr;
  sim::Duration lookahead_ = 0;
  std::uint64_t epochs_run_ = 0;
  std::uint64_t xshard_msgs_run_ = 0;
};

}  // namespace netstore::core
