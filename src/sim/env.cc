#include "sim/env.h"

#include <utility>

#include "core/check.h"
// Header-only use of the tracer's inline suspend/resume; netstore_sim does
// not link netstore_obs (the obs library links sim, not vice versa).
#include "obs/trace.h"

namespace netstore::sim {

Env::Env() {
  wheel_.set_cascade_counter(&timer_stats_.cascades);
}

void Env::schedule_at(Time at, Task fn) {
  // kNoEvent is the "no pending work" sentinel consumed by the sharded
  // horizon logic; letting an event carry it (or a wrapped negative from
  // an overflowing now+after) would silently corrupt epoch skipping.
  NETSTORE_CHECK_LT(at, kNoEvent, "event deadline overflows sim::Time");
  timer_stats_.scheduled.add(1);
  wheel_.push(at, next_seq_++, std::move(fn));
}

void Env::schedule_after(Duration after, Task fn) {
  NETSTORE_CHECK_LE(after, kNoEvent - 1 - now_,
                    "event deadline overflows sim::Time");
  schedule_at(now_ + after, std::move(fn));
}

void Env::audit_pop(Time at, std::uint64_t seq, Time target) {
  NETSTORE_CHECK_LE(at, target, "event fired past the sweep target");
  // Between two pops with no intervening schedule_at (the sequence counter
  // is unchanged), the queue must yield events in strict (deadline, seq)
  // order.  A violation means the backend or its ordering is corrupt —
  // exactly the class of bug that silently reorders daemon work and breaks
  // run-to-run determinism: this verifies the wheel's in-bucket sort and
  // batch insert discipline.
  if (audit_has_last_pop_ && next_seq_ == audit_seq_snapshot_) {
    NETSTORE_CHECK_GE(at, audit_last_pop_at_,
                      "event queue yielded deadlines out of order");
    if (at == audit_last_pop_at_) {
      NETSTORE_CHECK_GT(seq, audit_last_pop_seq_,
                        "same-deadline FIFO order violated");
    }
  }
  audit_has_last_pop_ = true;
  audit_last_pop_at_ = at;
  audit_last_pop_seq_ = seq;
  audit_seq_snapshot_ = next_seq_;
}

void Env::dispatch(Time at, std::uint64_t seq, Task& fn, Time target,
                   bool drain_all) {
  timer_stats_.fired.add(1);
  if (audit_) {
    audit_pop(at, seq, drain_all ? (at > now_ ? at : now_) : target);
  }
  if (at > now_) now_ = at;
  {
    // Deferred daemon work must not bill the request whose advance
    // happens to dispatch it.
    obs::SuspendGuard guard(tracer_);
    fn();
  }
}

void Env::run_pending(Time target, bool drain_all) {
  for (;;) {
    // next_at() is exact and non-mutating: the decision to STOP must not
    // cascade overflow buckets.  A sweep ending just short of a large
    // far-future bucket (a standing set of fleet arrivals, say) would
    // otherwise redistribute it on every advance.
    const Time t = wheel_.next_at();
    if (t == TimerWheel<Task>::kNone) break;
    if (!drain_all && t > target) break;
    // pop() leaves the wheel consistent before the callback runs, so
    // callbacks may schedule re-entrantly.
    TimerWheel<Task>::Entry e = wheel_.pop();
    dispatch(e.at, e.key, e.payload, target, drain_all);
  }
}

void Env::advance_to(Time t) {
  if (t < now_) return;
  run_pending(t, /*drain_all=*/false);
  // A callback may re-entrantly advance the clock past `t` (e.g. a flusher
  // blocking on a device); never move it backwards.
  if (t > now_) now_ = t;
}

void Env::drain() { run_pending(/*target=*/0, /*drain_all=*/true); }

void Env::check_quiesced() const {
  NETSTORE_CHECK_EQ(pending_events(), std::size_t{0},
                    "events still pending at teardown");
}

void Env::clone_from(const Env& src) {
  NETSTORE_CHECK_EQ(src.pending_events(), std::size_t{0},
                    "cannot clone an Env with pending events");
  NETSTORE_CHECK_EQ(pending_events(), std::size_t{0},
                    "cannot clone into an Env with pending events");
  now_ = src.now_;
  next_seq_ = src.next_seq_;
  // Counter values carry over so a forked snapshot equals the source's;
  // the wheel cursor carries over so future entries file at the same
  // levels (and cascade identically) as they would have in the source.
  timer_stats_ = src.timer_stats_;
  wheel_.clone_cursor_from(src.wheel_);
  audit_has_last_pop_ = src.audit_has_last_pop_;
  audit_last_pop_at_ = src.audit_last_pop_at_;
  audit_last_pop_seq_ = src.audit_last_pop_seq_;
  audit_seq_snapshot_ = src.audit_seq_snapshot_;
}

}  // namespace netstore::sim
