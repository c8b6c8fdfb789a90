// Intrusive doubly-linked list, threaded through nodes a map owns.
//
// The caches keep their entries in an unordered_map and thread every
// ordering they need through the map's value nodes: unordered_map nodes
// are address-stable, so an entry is one allocation and one hash lookup
// per touch, and list operations are pointer splices on memory that is
// already hot.  A node carries one `ListLink` per list it can be on, and
// `IntrusiveList<Node, &Node::link>` names which one a list uses, so one
// node can sit on several lists at once:
//
//   * `lru`         cache-wide recency (every cache; `LruList` below),
//   * `file`        its inode's (file handle's) page list, so per-inode
//                   work (fsync, truncate, unlink, shipping a delegated
//                   file) walks that inode's pages, not the whole map,
//   * `dirty_link`  its inode's dirty sublist (fs::PageCache only; the
//                   NFS client's pages are write-through, never dirty).
//
// The same shape threads inode records onto fs::PageCache's list of
// inodes with dirty pages.  This is Linux 2.4's `address_space` (per-inode
// clean/dirty page lists) and `sb->s_dirty`, and 4.4BSD's per-vnode
// clean/dirty buffer lists.
//
// The list never owns nodes; the map does.  Invariants (audited by the
// page caches' index checks, relied on everywhere): a node is on a list
// iff it is reachable from that list's head, unlink() is only called on a
// node that is on the list, and a map entry is unlinked from every list
// before it is erased.  For an LRU, front = most recently used, back =
// coldest.
#pragma once

#include <cstddef>

namespace netstore::core {

/// One pair of links: a node holds one per list it can be on.
template <typename Node>
struct ListLink {
  Node* prev = nullptr;
  Node* next = nullptr;
};

template <typename Node, ListLink<Node> Node::*Link>
class IntrusiveList {
 public:
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Node* front() const { return head_; }
  [[nodiscard]] Node* back() const { return tail_; }

  /// Steps toward back() (for an LRU: toward colder entries); nullptr at
  /// the end.  Safe while iterating as long as the current node is not
  /// unlinked before stepping.
  static Node* next(const Node* n) { return (n->*Link).next; }
  /// Steps toward front() (for an LRU: toward warmer entries).
  static Node* prev(const Node* n) { return (n->*Link).prev; }

  void push_front(Node* n) {
    (n->*Link).prev = nullptr;
    (n->*Link).next = head_;
    if (head_ != nullptr) {
      (head_->*Link).prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
    ++size_;
  }

  void push_back(Node* n) {
    (n->*Link).next = nullptr;
    (n->*Link).prev = tail_;
    if (tail_ != nullptr) {
      (tail_->*Link).next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
  }

  void unlink(Node* n) {
    ListLink<Node>& l = n->*Link;
    if (l.prev != nullptr) {
      (l.prev->*Link).next = l.next;
    } else {
      head_ = l.next;
    }
    if (l.next != nullptr) {
      (l.next->*Link).prev = l.prev;
    } else {
      tail_ = l.prev;
    }
    --size_;
  }

  /// Moves `n` to the front (most-recently-used).  No-op when already
  /// there — the common case for streaming access patterns.
  void touch(Node* n) {
    if (head_ == n) return;
    unlink(n);
    push_front(n);
  }

  /// Forgets every node (callers clear the owning map alongside).
  void reset() {
    head_ = nullptr;
    tail_ = nullptr;
    size_ = 0;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// The recency list every cache keeps, threaded through `Node::lru`.
template <typename Node>
using LruList = IntrusiveList<Node, &Node::lru>;

/// Checkpoint/fork helper: after deep-copying a cache's map, rebuild the
/// clone's recency order to mirror the source exactly.  `lookup` maps a
/// source node to its already-copied destination node (typically a hash
/// lookup by key).  Walking coldest→warmest and pushing each at the front
/// reproduces the source order, so future evictions pick identical
/// victims in both worlds.
template <typename Node, typename Lookup>
void clone_lru_order(const LruList<Node>& src, LruList<Node>& dst,
                     Lookup&& lookup) {
  for (Node* n = src.back(); n != nullptr; n = LruList<Node>::prev(n)) {
    dst.push_front(lookup(*n));
  }
}

}  // namespace netstore::core
