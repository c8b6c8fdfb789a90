// In-house d-ary min-heap: the priority queue behind
// iscsi::Initiator's outstanding write completions (sim::Env schedules on
// the timing wheel, timer_wheel.h).
//
// std::priority_queue costs a queue twice: top() only hands out a const
// reference, forcing a full element copy before every pop, and the
// binary-heap layout takes log2(n) cache-missing hops per operation.
// This heap fixes both:
//
//   * pop() RETURNS the minimum BY MOVE — no copy, and the queue is
//     already consistent before the caller acts on the element, so the
//     caller may freely push re-entrantly.
//   * Arity 4 (the default) halves the tree depth; the 4-child min-scan
//     stays within one cache line for small elements, which benchmarks
//     consistently favour over binary heaps for sift-down-heavy loads
//     (a completion queue pops everything it pushes).
//   * Sift-up and sift-down move elements through a hole instead of
//     swapping, one move per level instead of three.
//
// Ordering contract: `Less(a, b)` means a must pop before b.  Equal
// elements have no stability guarantee; a caller that needs FIFO among
// equal keys encodes it in the comparator (e.g. a sequence tie-break).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace netstore::sim {

template <typename T, typename Less, std::size_t Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }

  /// The element that pop() would return.  Reference is invalidated by any
  /// mutation.
  [[nodiscard]] const T& top() const { return v_.front(); }

  void push(T value) {
    // push_back first so a reallocation happens while `value` is still a
    // complete element.  Daemons overwhelmingly schedule into the future,
    // so the new element usually belongs exactly where it landed — check
    // before paying the extract/replace moves of a hole sift.
    v_.push_back(std::move(value));
    std::size_t hole = v_.size() - 1;
    if (hole == 0 || !less_(v_[hole], v_[(hole - 1) / Arity])) return;
    T item = std::move(v_[hole]);
    do {
      const std::size_t parent = (hole - 1) / Arity;
      if (!less_(item, v_[parent])) break;
      v_[hole] = std::move(v_[parent]);
      hole = parent;
    } while (hole > 0);
    v_[hole] = std::move(item);
  }

  /// Removes and returns the minimum.  The heap is fully consistent before
  /// this returns, so the caller may push() re-entrantly while consuming
  /// the returned element.
  T pop() {
    T result = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) {
      const std::size_t n = v_.size();
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = hole * Arity + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t fence = first + Arity < n ? first + Arity : n;
        for (std::size_t c = first + 1; c < fence; ++c) {
          if (less_(v_[c], v_[best])) best = c;
        }
        if (!less_(v_[best], last)) break;
        v_[hole] = std::move(v_[best]);
        hole = best;
      }
      v_[hole] = std::move(last);
    }
    return result;
  }

 private:
  std::vector<T> v_;
  [[no_unique_address]] Less less_;
};

}  // namespace netstore::sim
