#include "fs/page_cache.h"

#include <algorithm>

#include "core/check.h"

namespace netstore::fs {

using block::kBlockSize;

PageCache::PageCache(sim::Env& env, block::BlockDevice& dev,
                     PageCacheParams params)
    : env_(env), dev_(dev), params_(params) {}

std::unique_ptr<PageCache> PageCache::clone(sim::Env& env,
                                            block::BlockDevice& dev) const {
  NETSTORE_CHECK(!flusher_scheduled_,
                 "cannot clone a PageCache with a scheduled flusher tick");
  check_index();
  auto copy = std::make_unique<PageCache>(env, dev, params_);
  copy->pages_.reserve(pages_.size());
  // One pass, coldest to warmest: pushing each copy at the LRU front
  // reproduces the source's recency order, so future evictions pick
  // identical victims in both worlds.  The per-inode lists come out in
  // LRU order rather than the source's, which nothing observes: every
  // write-back sorts its victims by LBA.
  for (const Page* s = lru_.back(); s != nullptr; s = lru_.prev(s)) {
    Page& p = copy->pages_[s->key];
    p.key = s->key;
    p.data = s->data;  // shares the frame (copy-on-write)
    p.lba = s->lba;
    p.dirty = s->dirty;
    p.ready_at = s->ready_at;
    p.dirty_since = s->dirty_since;
    copy->lru_.push_front(&p);
    p.owner = &copy->inodes_[s->key.ino];
    p.owner->pages.push_back(&p);
    if (p.dirty) {
      if (p.owner->dirty.empty()) copy->dirty_inodes_.push_back(p.owner);
      p.owner->dirty.push_back(&p);
    }
  }
  copy->dirty_count_ = dirty_count_;
  copy->stopped_ = stopped_;
  copy->stats_ = stats_;
  return copy;
}

void PageCache::check_index() const {
  NETSTORE_CHECK_EQ(lru_.size(), pages_.size(),
                    "page map and page LRU out of sync");
  std::size_t listed = 0;
  std::size_t dirty = 0;
  std::size_t dirty_inodes = 0;
  // Order-free: only counts and per-node checks.
  // netstore-lint: allow(unordered-iter)
  for (const auto& [ino, f] : inodes_) {
    NETSTORE_CHECK(!f.pages.empty(), "inode record with no pages");
    for (const Page* p = f.pages.front(); p != nullptr;
         p = f.pages.next(p)) {
      NETSTORE_CHECK(p->owner == &f && p->key.ino == ino,
                     "page listed under the wrong inode");
      ++listed;
    }
    for (const Page* p = f.dirty.front(); p != nullptr;
         p = f.dirty.next(p)) {
      NETSTORE_CHECK(p->dirty && p->owner == &f,
                     "clean or foreign page on an inode's dirty list");
      ++dirty;
    }
    if (!f.dirty.empty()) ++dirty_inodes;
  }
  NETSTORE_CHECK_EQ(listed, pages_.size(),
                    "per-inode page lists and page map out of sync");
  NETSTORE_CHECK_EQ(dirty, dirty_count_,
                    "dirty sublists and dirty count out of sync");
  NETSTORE_CHECK_EQ(dirty_inodes, dirty_inodes_.size(),
                    "dirty-inode list and dirty sublists out of sync");
}

PageCache::Page* PageCache::lookup(Ino ino, std::uint64_t index) {
  auto it = pages_.find(Key{ino, index});
  if (it == pages_.end()) return nullptr;
  lru_.touch(&it->second);
  return &it->second;
}

PageCache::Page& PageCache::emplace(Ino ino, std::uint64_t index,
                                    block::Lba lba) {
  evict_if_needed();
  const Key key{ino, index};
  Page& p = pages_[key];
  p.key = key;
  // p.data stays null: every caller assigns a frame (adopted, copied
  // into, or zero-filled) before the page is observable.
  p.lba = lba;
  lru_.push_front(&p);
  p.owner = &inodes_[ino];
  p.owner->pages.push_back(&p);
  return p;
}

void PageCache::erase(Page* p) {
  if (p->dirty) mark_clean(p);
  lru_.unlink(p);
  InodePages* f = p->owner;
  f->pages.unlink(p);
  const Key key = p->key;  // copy: erase destroys the node
  pages_.erase(key);
  if (f->pages.empty()) inodes_.erase(key.ino);
}

void PageCache::evict_if_needed() {
  while (pages_.size() >= params_.capacity_pages) {
    // Coldest clean page goes first; if everything is dirty, write back
    // the aged pages and retry.
    Page* victim = nullptr;
    for (Page* p = lru_.back(); p != nullptr; p = lru_.prev(p)) {
      if (!p->dirty) {
        victim = p;
        break;
      }
    }
    if (victim != nullptr) {
      erase(victim);
    } else {
      // Everything; then the loop evicts clean pages.
      writeback_dirty();
    }
  }
}

const core::BufRef* PageCache::find_ref(Ino ino, std::uint64_t index) {
  Page* p = lookup(ino, index);
  if (!p) {
    stats_.misses.add(1);
    return nullptr;
  }
  stats_.hits.add(1);
  if (p->ready_at > env_.now()) env_.advance_to(p->ready_at);
  return &p->data;
}

bool PageCache::contains(Ino ino, std::uint64_t index) const {
  return pages_.contains(Key{ino, index});
}

void PageCache::insert_clean_ref(Ino ino, std::uint64_t index, block::Lba lba,
                                 core::BufRef data, sim::Time ready_at) {
  Page* existing = lookup(ino, index);
  Page& p = existing ? *existing : emplace(ino, index, lba);
  if (p.dirty) return;  // never clobber dirty data with a stale read
  p.data = std::move(data);  // adopts the handle: no copy, no allocation
  p.lba = lba;
  p.ready_at = ready_at;
  if (ready_at > env_.now()) stats_.readahead_pages.add(1);
}

PageCache::Page& PageCache::dirty_page(Ino ino, std::uint64_t index,
                                       block::Lba lba) {
  Page* existing = lookup(ino, index);
  Page& p = existing ? *existing : emplace(ino, index, lba);
  if (p.ready_at > env_.now()) env_.advance_to(p.ready_at);
  p.lba = lba;
  if (!p.dirty) {
    p.dirty = true;
    p.dirty_since = env_.now();
    dirty_count_++;
    if (p.owner->dirty.empty()) dirty_inodes_.push_back(p.owner);
    p.owner->dirty.push_back(&p);
  }
  return p;
}

void PageCache::mark_clean(Page* p) {
  p->dirty = false;
  NETSTORE_CHECK_GT(dirty_count_, 0u, "page-cache dirty count underflow");
  dirty_count_--;
  p->owner->dirty.unlink(p);
  if (p->owner->dirty.empty()) dirty_inodes_.unlink(p->owner);
}

void PageCache::balance_dirty() {
  schedule_flusher();
  if (dirty_count_ > params_.dirty_high_water) {
    // bdflush: over the high-water mark, push everything dirty out (the
    // writes are asynchronous; only the initiator queue throttles us).
    writeback_dirty();
  }
}

void PageCache::write_page(Ino ino, std::uint64_t index, block::Lba lba,
                           sim::FuncRef<void(block::BlockBuf&)> fill) {
  Page& p = dirty_page(ino, index, lba);
  if (!p.data) {
    // Fresh page: zero-filled, so a partial write leaves zeros elsewhere.
    p.data = core::BufferPool::instance().alloc();
    p.data.mutable_block().fill(0);
  }
  fill(p.data.mutable_block());
  balance_dirty();
}

void PageCache::install_dirty(Ino ino, std::uint64_t index, block::Lba lba,
                              core::BufRef data) {
  // The whole-block payload replaces the page's frame outright: no
  // zero-fill, no byte copy.
  dirty_page(ino, index, lba).data = std::move(data);
  balance_dirty();
}

void PageCache::writeback_dirty(sim::Time dirtied_by) {
  std::vector<Page*> victims;
  for (InodePages* f = dirty_inodes_.front(); f != nullptr;
       f = dirty_inodes_.next(f)) {
    for (Page* p = f->dirty.front(); p != nullptr; p = f->dirty.next(p)) {
      if (p->dirty_since <= dirtied_by) victims.push_back(p);
    }
  }
  writeback(victims);
}

void PageCache::writeback(std::vector<Page*>& victims) {
  // Sort by LBA and coalesce contiguous runs into large device writes
  // (this is where iSCSI's big write requests come from).  The victims
  // are a local, not a member: an async device write may advance the
  // clock and dispatch a flusher tick that re-enters writeback.
  std::sort(victims.begin(), victims.end(),
            [](const Page* a, const Page* b) { return a->lba < b->lba; });
  // Distinct LBAs make the sorted order, and so the device write stream,
  // independent of the order the dirty lists held the pages in.
  NETSTORE_DCHECK(std::adjacent_find(victims.begin(), victims.end(),
                                     [](const Page* a, const Page* b) {
                                       return a->lba == b->lba;
                                     }) == victims.end(),
                  "two dirty pages map to one LBA");

  std::vector<core::BufRef> refs;
  std::size_t i = 0;
  while (i < victims.size()) {
    // A flusher tick dispatched inside an earlier run's device write may
    // already have written (and cleaned) later victims: skip them.
    if (!victims[i]->dirty) {
      ++i;
      continue;
    }
    std::size_t run = 1;
    while (i + run < victims.size() && victims[i + run]->dirty &&
           victims[i + run]->lba == victims[i]->lba + run) {
      run++;
    }
    // One coalesced device write per run; the payload is the pool
    // handles themselves, so devices that store blocks adopt the frames.
    refs.clear();
    for (std::size_t j = 0; j < run; ++j) {
      refs.push_back(victims[i + j]->data);  // shares the frame
      mark_clean(victims[i + j]);
    }
    dev_.write(victims[i]->lba, refs, block::WriteMode::kAsync);
    stats_.writeback_pages.add(run);
    i += run;
  }
}

void PageCache::schedule_flusher() {
  if (flusher_scheduled_ || stopped_) return;
  flusher_scheduled_ = true;
  env_.schedule_after(params_.flush_interval,
                      [this, alive = std::weak_ptr<int>(alive_)] {
    if (alive.expired()) return;
    flusher_scheduled_ = false;
    if (stopped_) return;
    writeback_dirty(env_.now() - params_.max_dirty_age);
    if (dirty_count_ > 0) schedule_flusher();
  });
}

void PageCache::drop_inode(Ino ino, std::uint64_t from_index) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return;
  // erase() frees the record along with its last page; `next` is null by
  // then, so the loop never reads the record again.
  auto& pages = it->second.pages;
  for (Page* p = pages.front(); p != nullptr;) {
    Page* next = pages.next(p);
    if (p->key.index >= from_index) erase(p);
    p = next;
  }
}

void PageCache::flush_inode(Ino ino) {
  auto it = inodes_.find(ino);
  if (it != inodes_.end()) {
    const auto& dirty = it->second.dirty;
    std::vector<Page*> victims;
    victims.reserve(dirty.size());
    for (Page* p = dirty.front(); p != nullptr; p = dirty.next(p)) {
      victims.push_back(p);
    }
    writeback(victims);
  }
  dev_.flush();
}

void PageCache::flush_all(bool wait) {
  writeback_dirty();
  if (wait) dev_.flush();
}

void PageCache::clear() {
  stopped_ = true;
  flush_all(true);
  pages_.clear();
  lru_.reset();
  inodes_.clear();
  dirty_inodes_.reset();
  dirty_count_ = 0;
  stopped_ = false;
}

void PageCache::crash() {
  stopped_ = true;
  pages_.clear();
  lru_.reset();
  inodes_.clear();
  dirty_inodes_.reset();
  dirty_count_ = 0;
  stopped_ = false;
}

}  // namespace netstore::fs
