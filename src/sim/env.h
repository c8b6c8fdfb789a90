// Simulation environment: virtual clock plus pending-event queue.
//
// netstore uses a hybrid simulation style: protocol operations execute
// synchronously in caller context and account for elapsed virtual time by
// advancing the shared clock, while background activity (journal commit
// daemons, dirty-page flushers, lease expiry) registers timed events that
// fire whenever the clock sweeps past their deadline.  This keeps protocol
// state machines readable (straight-line code, no callback chains) while
// still modelling asynchronous daemons faithfully.
//
// The event queue is the hottest structure in the repo — every bench sweep
// pushes and pops millions of events — so it is built from the hot-path
// primitives in task.h / timer_wheel.h: events hold a sim::Task (inline
// capture storage, no per-event allocation) and live in a hierarchical
// timing wheel with O(1) amortized schedule and batched same-tick
// dispatch in (deadline, seq) FIFO order (DESIGN.md §18).  A scheduled
// event always fires; nothing cancels one.  Waits that end at a known
// time (an RPC reply, a queued write's completion) advance the clock
// instead of scheduling anything (sim::InflightWindow).
#pragma once

#include <cstdint>
#include <limits>

#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace netstore::obs {
class Tracer;
}  // namespace netstore::obs

namespace netstore::sim {

/// Scheduling telemetry, exported as the sim.timer.* counters (src/obs).
/// Every scheduled event fires exactly once, so fired <= scheduled, the
/// difference being events still pending.  cascades counts entries the
/// wheel re-filed out of overflow buckets.
struct TimerStats {
  Counter scheduled;  // schedule_* accepted
  Counter fired;      // events dispatched
  Counter cascades;   // entries re-filed by overflow-bucket cascades

  void reset() {
    scheduled.reset();
    fired.reset();
    cascades.reset();
  }
};

/// The simulation environment.  One instance per testbed; every simulated
/// component keeps a reference to it.  Not thread-safe: the simulation is
/// strictly single-threaded and deterministic.
class Env {
 public:
  Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` to run when the clock reaches `at`.  Events scheduled
  /// for the same instant run in scheduling order.  Events scheduled in the
  /// past run at the next advance.  `at` must be below kNoEvent (the
  /// far-future sentinel); NETSTORE_CHECK enforces it.
  void schedule_at(Time at, Task fn);

  /// Schedules `fn` to run `after` from now.  NETSTORE_CHECKs that
  /// now() + after does not overflow Time — wheel overflow levels make
  /// far-future deadlines routine, and a silent wrap would file the event
  /// in the past.
  void schedule_after(Duration after, Task fn);

  /// Advances the clock to `t`, firing every event whose deadline is <= t
  /// in deadline order.  Events may schedule further events; those also run
  /// if due.  No-op if `t` is in the past.
  void advance_to(Time t);

  /// Advances the clock by `dt` (see advance_to).
  void advance(Duration dt) { advance_to(now_ + dt); }

  /// Fires all pending events in order, advancing the clock to each
  /// deadline.  Used at experiment teardown to quiesce daemons.
  void drain();

  /// Number of pending (not yet fired) events.
  [[nodiscard]] std::size_t pending_events() const { return wheel_.size(); }

  /// Deadline of the earliest pending event, or kNoEvent when none.
  /// Shard bodies use this to report their next work time for
  /// epoch-horizon skipping (sharded_env.h), so it must be exact; the
  /// wheel reads its cached bucket minima.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  [[nodiscard]] Time next_event_at() const { return wheel_.next_at(); }

  /// Reactor placement (sharded_env.h): which shard this Env belongs to.
  /// 0 for a standalone sequential environment; assigned by ShardedEnv.
  void set_shard(std::uint32_t s) { shard_ = s; }
  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  /// Enables runtime invariant audits (debug tooling, off by default):
  /// every event dispatch verifies that the clock never moves backwards
  /// and that no event fires past the sweep target.  Testbeds turn this
  /// on for the whole stack via TestbedConfig::invariant_audits.
  void set_audit(bool on) { audit_ = on; }
  [[nodiscard]] bool audit() const { return audit_; }

  /// Teardown invariant: every registered daemon event has fired.  Call
  /// after drain() when quiescence is expected; aborts via NETSTORE_CHECK
  /// if events are still pending.
  void check_quiesced() const;

  /// Copies the clock, sequence counter, timer counters, wheel cursor,
  /// and audit bookkeeping from a *quiesced* source environment
  /// (checkpoint/fork support).  Both wheels must be empty — events hold
  /// type-erased callables that capture pointers into the source world
  /// and cannot be rewired, which is why fork() only exists for quiesced
  /// testbeds.  The tracer pointer and audit flag are deliberately NOT
  /// copied: they belong to the new owner and are wired up by the forking
  /// Testbed.
  void clone_from(const Env& src);

  /// Scheduling telemetry; adopted into the registry as sim.timer.* by
  /// the owning Testbed.
  [[nodiscard]] const TimerStats& timer_stats() const { return timer_stats_; }
  [[nodiscard]] TimerStats& mutable_timer_stats() { return timer_stats_; }

  /// Tracer wiring (owned by the Testbed, see src/obs).  Null when a
  /// component is driven standalone; every instrumentation site must
  /// null-check.  The Env suspends the tracer around deferred-event
  /// dispatch so daemon work (journal commits, page flushes) never bills
  /// the request that happens to be advancing the clock.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

 private:
  /// Audit-mode dispatch bookkeeping (see set_audit).
  void audit_pop(Time at, std::uint64_t seq, Time target);

  /// Shared dispatch loop behind advance_to (drain_all=false: stop once
  /// the next deadline exceeds `target`) and drain (drain_all=true:
  /// `target` ignored, each event audited against its own deadline).
  void run_pending(Time target, bool drain_all);
  void dispatch(Time at, std::uint64_t seq, Task& fn, Time target,
                bool drain_all);

  Time now_ = 0;
  // netstore: not_cloned -- observer, not simulated state:
  // Testbed::clone_from re-installs its own tracer right after
  // Env::clone_from returns
  obs::Tracer* tracer_ = nullptr;
  // netstore: not_cloned -- config, re-derived by Testbed::clone_from
  bool audit_ = false;
  bool audit_has_last_pop_ = false;
  Time audit_last_pop_at_ = 0;
  std::uint64_t audit_last_pop_seq_ = 0;
  std::uint64_t audit_seq_snapshot_ = 0;
  std::uint64_t next_seq_ = 0;
  // netstore: not_cloned -- reactor placement, reassigned by the owning
  // ShardedEnv / Testbed after a fork, not simulated state
  std::uint32_t shard_ = 0;
  TimerStats timer_stats_;

  TimerWheel<Task> wheel_;
};

}  // namespace netstore::sim
