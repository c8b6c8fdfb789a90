// Hierarchical timing wheel: the O(1) scheduling core behind sim::Env.
//
// A Varghese–Lauck wheel specialised for a deterministic discrete-event
// simulator.  Eleven levels of 64 slots each cover every representable
// non-negative Time delta (6 bits per level, 66 bits total); an entry's
// level is the position of the highest bit in which its placement key
// differs from the wheel cursor:
//
//     k     = max(at, cur)                  (past deadlines clamp to cur)
//     level = high_bit(k ^ cur) / 6         (0 when k == cur)
//     slot  = (k >> 6*level) & 63
//
// This XOR-prefix placement — the scheme timerfd-era kernel wheels use —
// gives two invariants the classic delta-based formulation lacks:
//
//   * every level-l entry shares the cursor's bits above position
//     6*(l+1), so a slot holds one aligned key range, never two ranges a
//     rotation apart;
//   * k >= cur for every stored entry, hence no occupied slot precedes
//     the cursor's slot at any level, and the first occupied slot of the
//     lowest occupied level always holds the globally smallest key.
//
// From the second invariant, next_at() is *exact* and const: the minimum
// pending deadline is the cached per-bucket minimum of that first bucket
// (level-0 buckets hold exactly one key; clamped past-deadline entries
// land in the cursor's own slot, which sorts first).  Exactness matters
// beyond latency: ShardedEnv's epoch-horizon skipping consumes
// next_event_at() and its lookahead proof breaks if the value ever
// over-reports (sharded_env.h).
//
// Dispatch is batched by tick: pop() detaches the argmin level-0 bucket
// as the current *batch*, sorted by (at, key) — with key = the Env's
// event sequence number this is the (deadline, seq) FIFO order Env
// promises, which the Env audit hooks re-verify on
// every pop.  The batch stays a member, consumed through a cursor, so
// re-entrant scheduling during dispatch (the hybrid-simulation norm:
// callbacks advance the clock, which pops more events) keeps working:
// while a batch is live, any insert with at <= the batch tick
// sorted-inserts into the unconsumed region (its fresh key is the
// largest, so FIFO order is preserved); later deadlines file into the
// wheel as usual.  Cascades — redistributing an overflow bucket when the
// cursor reaches it — only ever advance the cursor to the bucket's own
// minimum deadline, so no entry is skipped and each entry cascades at
// most kLevels-1 times in its life (O(1) amortized).
//
// Entries are fire-and-forget: nothing cancels or moves one once it is
// pushed, so an entry's position never needs tracking.
//
// The wheel is a dumb container on purpose: no clock, no callbacks run
// here.  sim::Env owns time, audit, and dispatch; core::Fleet reuses the
// same structure for its per-shard arrival queues (key = client id).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::sim {

template <typename Payload>
class TimerWheel {
 public:
  /// Sentinel for "no pending entry" (mirrors Env::kNoEvent).
  static constexpr Time kNone = std::numeric_limits<Time>::max();

  struct Entry {
    Time at = 0;
    std::uint64_t key = 0;  // total-order tie-break among equal deadlines
    Payload payload{};
  };

  TimerWheel() { occ_.fill(0); }
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;
  TimerWheel(TimerWheel&&) noexcept = default;
  TimerWheel& operator=(TimerWheel&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Counts entries redistributed by overflow-bucket cascades (telemetry;
  /// may be null).  Not part of the determinism contract across backends.
  void set_cascade_counter(Counter* c) { cascades_ = c; }

  /// Inserts an entry; `key` must be unique among pending entries (the
  /// Env uses its event sequence number, the Fleet a client id).
  void push(Time at, std::uint64_t key, Payload payload) {
    ++size_;
    attach(Entry{at, key, std::move(payload)});
  }

  /// Deadline of the next entry pop() would return, or kNone when empty.
  /// May cascade overflow buckets to line up the next batch.
  [[nodiscard]] Time peek_at() {
    if (size_ == 0) return kNone;
    if (batch_.empty()) refill_batch();
    return batch_[batch_pos_].at;
  }

  /// Removes and returns the earliest entry in (at, key) order.  The
  /// wheel must not be empty.
  Entry pop() {
    NETSTORE_CHECK_GT(size_, std::size_t{0}, "pop() from an empty wheel");
    if (batch_.empty()) refill_batch();
    Entry e = std::move(batch_[batch_pos_]);
    ++batch_pos_;
    --size_;
    if (batch_pos_ == batch_.size()) {
      batch_.clear();
      batch_pos_ = 0;
    }
    return e;
  }

  /// Exact earliest pending deadline without mutating the wheel (no
  /// cascade): the live batch head, else the cached minimum of the first
  /// occupied bucket of the lowest occupied level (see file comment for
  /// why that bucket always holds the global minimum).
  [[nodiscard]] Time next_at() const {
    if (!batch_.empty()) return batch_[batch_pos_].at;
    for (int l = 0; l < kLevels; ++l) {
      if (occ_[l] != 0) {
        const int slot = std::countr_zero(occ_[l]);
        return buckets_[l][slot].min_at;
      }
    }
    return kNone;
  }

  /// Checkpoint support: adopts the cursor of a quiesced source wheel so
  /// a forked world files future entries at the same levels (and thus
  /// cascades identically) as the source would have.  Both wheels must be
  /// empty — entries cannot be rewired across worlds (env.h clone_from).
  void clone_cursor_from(const TimerWheel& src) {
    NETSTORE_CHECK_EQ(src.size_, std::size_t{0},
                      "cannot clone from a wheel with pending entries");
    NETSTORE_CHECK_EQ(size_, std::size_t{0},
                      "cannot clone into a wheel with pending entries");
    cur_ = src.cur_;
  }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  // 11 levels * 6 bits = 66 >= the 63 value bits of a non-negative Time,
  // so place() never needs a range check beyond the level clamp.
  static constexpr int kLevels = 11;

  struct Bucket {
    std::vector<Entry> entries;
    Time min_at = kNone;  // min true deadline over entries (not key)
  };

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  [[nodiscard]] std::pair<int, int> place(Time k) const {
    const auto x =
        static_cast<std::uint64_t>(k) ^ static_cast<std::uint64_t>(cur_);
    if (x == 0) return {0, static_cast<int>(k & (kSlots - 1))};
    const int level = (63 - std::countl_zero(x)) / kSlotBits;
    const int slot = static_cast<int>(
        (static_cast<std::uint64_t>(k) >> (level * kSlotBits)) & (kSlots - 1));
    return {level, slot};
  }

  void attach(Entry e) {
    if (!batch_.empty() && e.at <= batch_tick_) {
      // Due during the batch being dispatched: FIFO order demands it fire
      // within this batch.  Its key (a fresh sequence number for Env
      // entries) exceeds every pending key at the same deadline, so the
      // upper_bound position reproduces (deadline, seq) FIFO exactly.
      const auto it = std::upper_bound(batch_.begin() + batch_pos_,
                                       batch_.end(), e, entry_before);
      batch_.insert(it, std::move(e));
      return;
    }
    const Time k = e.at > cur_ ? e.at : cur_;
    const auto [level, slot] = place(k);
    Bucket& b = buckets_[level][slot];
    if (e.at < b.min_at) b.min_at = e.at;
    b.entries.push_back(std::move(e));
    occ_[level] |= std::uint64_t{1} << slot;
  }

  /// Detaches the argmin level-0 bucket as the next batch, cascading any
  /// lower-keyed overflow buckets down first.  Precondition: the batch is
  /// empty and the wheel is not.
  void refill_batch() {
    for (;;) {
      int level = 0;
      while (occ_[level] == 0) {
        ++level;
        NETSTORE_CHECK_LT(level, kLevels, "wheel size/occupancy mismatch");
      }
      const int slot = std::countr_zero(occ_[level]);
      Bucket& b = buckets_[level][slot];
      if (level == 0) {
        // Level-0 buckets hold exactly one key: the cursor's prefix plus
        // the slot index (clamped past-deadline entries share the
        // cursor's own slot and sort to the front by true deadline).
        const Time tick =
            (cur_ & ~static_cast<Time>(kSlots - 1)) | static_cast<Time>(slot);
        NETSTORE_CHECK_GE(tick, cur_, "wheel cursor moved past a pending tick");
        cur_ = tick;
        batch_tick_ = tick;
        // Swap, not move-assign: the exhausted batch's buffer goes back to
        // the bucket, so steady-state churn recycles two allocations
        // forever instead of paying malloc/free on every refill.
        batch_.swap(b.entries);
        b.min_at = kNone;
        occ_[0] &= ~(std::uint64_t{1} << slot);
        // A level-0 bucket holds one tick, and same-deadline entries are
        // appended in key (FIFO) order, so the common case is already
        // sorted — is_sorted costs compares only, never entry moves.
        if (!std::is_sorted(batch_.begin(), batch_.end(), entry_before)) {
          std::sort(batch_.begin(), batch_.end(), entry_before);
        }
        batch_pos_ = 0;
        return;
      }
      // Cascade: advance the cursor to this bucket's earliest deadline
      // (provably the global minimum) and re-file its entries, each of
      // which now lands at a strictly lower level.
      NETSTORE_CHECK_GE(b.min_at, cur_, "overflow bucket behind the cursor");
      cur_ = b.min_at;
      occ_[level] &= ~(std::uint64_t{1} << slot);
      spill_.clear();
      spill_.swap(b.entries);
      b.min_at = kNone;
      if (cascades_ != nullptr) cascades_->add(spill_.size());
      for (Entry& e : spill_) attach(std::move(e));
    }
  }

  Time cur_ = 0;  // never exceeds the smallest pending key
  std::size_t size_ = 0;
  std::array<std::array<Bucket, kSlots>, kLevels> buckets_{};
  std::array<std::uint64_t, kLevels> occ_{};  // non-empty-slot bitmask

  // The batch being dispatched: the detached argmin tick, sorted, with a
  // consumption cursor so re-entrant pops (callbacks that advance the
  // clock) drain the same batch instead of a stale copy.
  std::vector<Entry> batch_;
  std::size_t batch_pos_ = 0;
  Time batch_tick_ = 0;

  // Cascade scratch buffer, recycled across refills (see refill_batch).
  std::vector<Entry> spill_;

  Counter* cascades_ = nullptr;
};

}  // namespace netstore::sim
