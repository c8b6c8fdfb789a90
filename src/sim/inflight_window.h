// Bounded window of in-flight asynchronous requests, tracked by their
// completion times.
//
// Both protocols bound their write-behind the same way: NFSv3/v4's pool
// of outstanding unstable WRITE RPCs (the Linux "pseudo-synchronous"
// writes behind Table 4 / Figure 6) and the iSCSI initiator's tagged
// command queue.  A request occupies a slot from issue until its reply
// arrives; issuing into a full window blocks the caller (advances the
// clock) until the earliest reply frees a slot, and a barrier waits out
// every reply.  Completions are reaped lazily, so entries already in the
// past may linger until the next reserve().
//
// A min-heap of sim::Time over a plain vector: the window is small (the
// pool or queue depth), and the vector lets settled_by() scan it const.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/check.h"
#include "sim/env.h"
#include "sim/time.h"

namespace netstore::sim {

class InflightWindow {
 public:
  /// Makes room for one more request under `limit` slots: drops
  /// completions already in the past, then, while the window is full,
  /// advances the clock to the earliest completion and retires it.
  void reserve(Env& env, std::size_t limit) {
    NETSTORE_CHECK_GT(limit, std::size_t{0}, "in-flight window of size 0");
    while (!heap_.empty() && heap_.front() <= env.now()) pop();
    while (heap_.size() >= limit) {
      env.advance_to(heap_.front());
      pop();
    }
  }

  /// Records a request in flight until `completion`.
  void add(Time completion) {
    heap_.push_back(completion);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Barrier: advances the clock to each completion in turn (a no-op for
  /// those already past) and empties the window.
  void drain(Env& env) {
    while (!heap_.empty()) {
      env.advance_to(heap_.front());
      pop();
    }
  }

  /// True if no request completes after `t` — the quiesced-fork rule for
  /// the clone()s that copy a window.
  [[nodiscard]] bool settled_by(Time t) const {
    return std::all_of(heap_.begin(), heap_.end(),
                       [t](Time c) { return c <= t; });
  }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
  }

  std::vector<Time> heap_;  // min-heap of completion times
};

}  // namespace netstore::sim
