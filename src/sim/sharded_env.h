// ShardedEnv: N per-shard event reactors under conservative lookahead.
//
// One sim::Env is a complete sequential simulation: one clock, one wheel,
// one seq counter.  A ShardedEnv coordinates N of them (DESIGN.md §17) in
// the style of SPDK's pin-connections-to-a-core iSCSI target crossed with
// classic conservative parallel discrete-event simulation: each shard
// runs alone on its own thread up to a shared epoch horizon, and the only
// way state crosses shards is a timestamped Task posted through a
// per-(src, dst) SpscMailbox that is exchanged at the barrier between
// epochs.
//
// The lookahead argument L is the physical lower bound on cross-shard
// signal latency (for the netstore testbed: the link's minimum RTT — no
// client can observe another core's write sooner than one round trip).
// Safety rests on two rules:
//
//   * post() requires deliver_at >= sender clock + L (the cross-shard
//     causality audit; NETSTORE_CHECK, always on);
//   * the horizon never advances more than L per epoch *except* across a
//     provably idle gap: H_{k+1} = max(H_k + L, T_next), where T_next is
//     the earliest future work any shard reported.  In the first case a
//     message posted during epoch k+1 satisfies deliver_at > H_k + L =
//     H_{k+1}; in the skip case there is no work in (H_k, T_next), so the
//     sender's clock is >= T_next when it posts and deliver_at >= T_next
//     + L >= H_{k+1}.  Either way a message drained at the start of epoch
//     k+2 cannot be in the receiver's past — no shard ever sees a message
//     from an epoch it already simulated.  (A shard whose *own* clock
//     overran the horizon — synchronous ops can overshoot under backlog —
//     may receive a message with deliver_at behind its clock; that is the
//     ordinary "events scheduled in the past run at the next advance"
//     rule from env.h, applied deterministically, not a causality hole.)
//
// Determinism: each shard's simulation is a pure function of its own Env
// and the sequence of messages it drains, and drains happen in (src
// shard, FIFO) order at deterministic epoch boundaries.  The thread
// schedule can change which shard runs first in wall time but never what
// any shard observes — a fixed shard count gives byte-identical results
// run to run, and a 1-shard ShardedEnv runs inline on the caller's
// thread, making shards=1 literally the sequential engine.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/env.h"
#include "sim/mailbox.h"
#include "sim/task.h"
#include "sim/time.h"

namespace netstore::sim {

class ShardedEnv {
 public:
  /// Sentinel a shard body returns when it has no future work scheduled.
  static constexpr Time kIdle = std::numeric_limits<Time>::max();

  /// Standalone form: owns `shards` fresh Envs.
  ShardedEnv(std::uint32_t shards, Duration lookahead);
  /// Adopting form: coordinates externally owned Envs (one per shard
  /// world, e.g. a fleet of forked Testbeds).  The Envs must outlive this
  /// object; their shard ids are (re)assigned 0..n-1.
  ShardedEnv(std::vector<Env*> shards, Duration lookahead);

  ShardedEnv(const ShardedEnv&) = delete;
  ShardedEnv& operator=(const ShardedEnv&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Env& shard(std::uint32_t i) { return *shards_[i]; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Cross-shard send: schedules `fn` on shard `dst` at `deliver_at`.
  /// Must be called from `src`'s reactor during `src`'s epoch body.  The
  /// causality audit CHECKs deliver_at >= shard(src).now() + lookahead();
  /// the receiver re-audits at drain time.
  void post(std::uint32_t src, std::uint32_t dst, Time deliver_at, Task fn);

  /// One epoch step of one shard: process all local work with a deadline
  /// <= `horizon` (the shard may run past it — synchronous completions
  /// overshoot — but must not *start* work scheduled later), then return
  /// the deadline of its earliest remaining work, or kIdle if none.  The
  /// returned times drive horizon skipping, so under-reporting stalls the
  /// run and over-reporting (a time that later moves earlier without a
  /// message) would break the lookahead proof.
  /// A borrow, not a store: run_epochs only invokes it synchronously, so
  /// the non-owning FuncRef contract (task.h) holds for any caller lambda.
  using ShardBody = FuncRef<Time(std::uint32_t shard, Time horizon)>;

  /// Runs barrier-synchronized epochs until every shard reports kIdle and
  /// no message is in flight.  With one shard everything runs inline on
  /// the caller's thread; otherwise one thread per shard is spawned for
  /// the duration of the call.  Undelivered end-of-run messages cannot
  /// exist: the final epoch's stop condition requires an empty exchange.
  void run_epochs(const ShardBody& body);

  // Run statistics (accumulated across run_epochs calls).
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t messages_posted() const { return posted_total_; }

 private:
  struct Message {
    Time send_time;   // sender clock at post() — re-audited on drain
    Time deliver_at;  // schedule_at deadline on the destination shard
    Task fn;
  };

  [[nodiscard]] SpscMailbox<Message>& mailbox(std::uint32_t src,
                                              std::uint32_t dst) {
    return mailboxes_[src * shards_.size() + dst];
  }
  /// Drains every mailbox aimed at `dst` from the *previous* epoch into
  /// dst's Env, in (src, FIFO) order.  Runs on dst's reactor thread,
  /// strictly after the barrier that ended the sending epoch.
  void drain_inbox(std::uint32_t dst);
  /// Epoch-boundary control step (the barrier completion function; also
  /// the inline 1-shard step): counts the epoch's posts, decides
  /// termination, and advances the horizon.  Returns true to stop.
  bool step_epoch_control();

  std::vector<std::unique_ptr<Env>> owned_;
  std::vector<Env*> shards_;
  Duration lookahead_;
  std::vector<SpscMailbox<Message>> mailboxes_;  // src * n + dst

  // Epoch state.  Written only inside step_epoch_control (all reactor
  // threads are parked in the barrier) or by the owning reactor thread
  // (next_work_[s]); the barrier provides every cross-thread edge.
  // netstore: shard_safe -- barrier-published epoch control block, never
  // written concurrently with a reader
  std::uint64_t epoch_ = 0;
  Time horizon_ = 0;
  bool stop_ = false;
  std::vector<Time> next_work_;

  std::uint64_t epochs_ = 0;
  std::uint64_t posted_total_ = 0;
};

}  // namespace netstore::sim
