// §7 enhancement: directory delegation.
//
// Under a directory delegation the client owns the directory's meta-data:
// mutations are applied to the local caches immediately and shipped to the
// server later as aggregated compounds (the paper's proposed mechanism for
// giving NFS the update-aggregation benefit it measured in iSCSI).  A
// create/delete pair that never left the client annihilates entirely —
// exactly the PostMark pattern.
//
// Files created locally carry *provisional* handles until shipped; any
// operation that needs a server-visible handle (open/read/write of the
// file) first materializes it by flushing the queue prefix that creates
// it.
#include <algorithm>
#include <vector>

#include "core/check.h"
#include "nfs/client.h"

namespace netstore::nfs {

using block::kBlockSize;

Fh NfsClient::to_real(Fh fh) const {
  auto it = provisional_to_real_.find(fh);
  return it == provisional_to_real_.end() ? fh : it->second;
}

void NfsClient::schedule_deleg_flush() {
  if (deleg_flush_scheduled_) return;
  deleg_flush_scheduled_ = true;
  env_.schedule_after(config_.delegation_flush_interval, [this] {
    deleg_flush_scheduled_ = false;
    if (mounted_ && !deleg_queue_.empty()) flush_delegated_updates();
  });
}

void NfsClient::queue_update(PendingUpdate u) {
  // Create/delete annihilation: deleting a file or directory whose create
  // is still queued cancels both server-side operations.
  if (u.op == Proc::kRemove || u.op == Proc::kRmdir) {
    auto match = std::find_if(
        deleg_queue_.begin(), deleg_queue_.end(), [&](const PendingUpdate& q) {
          return (q.op == Proc::kCreate || q.op == Proc::kMkdir ||
                  q.op == Proc::kSymlink || q.op == Proc::kLink) &&
                 q.dir == u.dir && q.name == u.name;
        });
    if (match != deleg_queue_.end()) {
      const Fh prov = match->provisional;
      deleg_queue_.erase(match);
      forget_dentry(u.dir, u.name);
      if (prov != 0) {
        attrs_.erase(prov);
        drop_pages(prov);
      }
      stats_.batched_ops.add(2);  // both ops handled without the server
      return;
    }
  }

  // Local cache effects (the client is the authority under delegation).
  switch (u.op) {
    case Proc::kCreate:
    case Proc::kMkdir:
    case Proc::kSymlink: {
      u.provisional = next_provisional_++;
      const fs::FileType t = u.op == Proc::kMkdir  ? fs::FileType::kDirectory
                             : u.op == Proc::kCreate ? fs::FileType::kRegular
                                                     : fs::FileType::kSymlink;
      remember_dentry(u.dir, u.name, u.provisional, t);
      fs::Attr a;
      a.ino = u.provisional;
      a.mode = fs::make_mode(t, u.perm == 0 ? 0755 : u.perm);
      a.nlink = t == fs::FileType::kDirectory ? 2 : 1;
      a.atime = a.mtime = a.ctime = env_.now();
      remember_attr(u.provisional, a);
      break;
    }
    case Proc::kLink: {
      remember_dentry(u.dir, u.name, u.aux_fh, fs::FileType::kRegular);
      auto it = attrs_.find(u.aux_fh);
      if (it != attrs_.end()) {
        it->second.attr.nlink++;
        it->second.attr.ctime = env_.now();
      }
      break;
    }
    case Proc::kRemove:
    case Proc::kRmdir:
      forget_dentry(u.dir, u.name);
      deleg_negative_.insert(DentryKey{u.dir, u.name});
      attrs_.erase(u.aux_fh);
      drop_pages(u.aux_fh);
      break;
    case Proc::kRename: {
      auto it = dentries_.find(DentryKey{u.dir, u.name});
      if (it != dentries_.end()) {
        const Dentry d = it->second;
        forget_dentry(u.dir, u.name);
        remember_dentry(u.aux_fh, u.aux, d.fh, d.type);
      }
      deleg_negative_.insert(DentryKey{u.dir, u.name});
      break;
    }
    default:
      NETSTORE_CHECK(false, "not a delegated update");
  }

  deleg_queue_.push_back(std::move(u));
  schedule_deleg_flush();
}

void NfsClient::materialize(Fh fh) {
  if (!delegated()) return;
  if (fh != 0 && !is_provisional(fh)) return;
  // A provisional handle depends on its creating update and, potentially,
  // on earlier updates in the same directories; ship the whole queue
  // prefix (simple and safe — ordering is preserved).
  flush_delegated_updates();
}

void NfsClient::flush_delegated_updates() {
  if (deleg_queue_.empty()) return;
  std::vector<PendingUpdate> queue;
  queue.swap(deleg_queue_);

  // Ship in aggregated compounds of up to `compound_batch` updates: one
  // exchange carries many meta-data operations (the compounding benefit
  // §6.3 of the paper speculates about, made concrete).
  std::size_t i = 0;
  while (i < queue.size()) {
    const std::size_t batch =
        std::min<std::size_t>(config_.compound_batch, queue.size() - i);
    std::uint32_t payload = 0;
    for (std::size_t j = 0; j < batch; ++j) {
      payload += WireSizes::name_arg(queue[i + j].name) + WireSizes::kSetAttrs;
    }
    stats_.batch_flushes.add(1);
    stats_.batched_ops.add(batch);
    call(Proc::kBatchedUpdate, payload,
         batch * static_cast<std::uint32_t>(WireSizes::kAttrs), [&] {
           for (std::size_t j = 0; j < batch; ++j) {
             PendingUpdate& u = queue[i + j];
             const Fh dir = to_real(u.dir);
             switch (u.op) {
               case Proc::kCreate: {
                 fs::Result<NfsServer::LookupReply> r =
                     server_.create(dir, u.name, u.perm);
                 if (r) provisional_to_real_[u.provisional] = r->fh;
                 break;
               }
               case Proc::kMkdir: {
                 fs::Result<NfsServer::LookupReply> r =
                     server_.mkdir(dir, u.name, u.perm);
                 if (r) provisional_to_real_[u.provisional] = r->fh;
                 break;
               }
               case Proc::kSymlink: {
                 fs::Result<NfsServer::LookupReply> r =
                     server_.symlink(dir, u.name, u.aux);
                 if (r) provisional_to_real_[u.provisional] = r->fh;
                 break;
               }
               case Proc::kLink:
                 (void)server_.link(dir, u.name, to_real(u.aux_fh));
                 break;
               case Proc::kRemove:
                 (void)server_.remove(dir, u.name);
                 break;
               case Proc::kRmdir:
                 (void)server_.rmdir(dir, u.name);
                 break;
               case Proc::kRename:
                 (void)server_.rename(dir, u.name, to_real(u.aux_fh), u.aux);
                 break;
               default:
                 break;
             }
           }
         });
    i += batch;
  }

  deleg_negative_.clear();  // the server namespace is in sync again

  // Ship the locally buffered file data of every created file that made
  // it to the server (deleted-before-flush files never send a byte).
  for (const PendingUpdate& u : queue) {
    if (u.provisional != 0 && provisional_to_real_.contains(u.provisional)) {
      ship_local_data(u.provisional, provisional_to_real_[u.provisional]);
    }
  }

  // Re-point caches from provisional to real handles (both the dentry
  // values and the directory-fh halves of the keys).
  // netstore-lint: allow(unordered-iter) -- independent value rewrites
  for (auto& [key, dentry] : dentries_) {
    if (is_provisional(dentry.fh)) dentry.fh = to_real(dentry.fh);
  }
  std::vector<std::pair<DentryKey, Dentry>> rekeyed;
  // netstore-lint: allow(unordered-iter) -- key rewrite, map-to-map only
  for (auto it = dentries_.begin(); it != dentries_.end();) {
    if (is_provisional(it->first.dir) &&
        provisional_to_real_.contains(it->first.dir)) {
      rekeyed.emplace_back(DentryKey{to_real(it->first.dir), it->first.name},
                           it->second);
      it = dentries_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [key, dentry] : rekeyed) dentries_[key] = dentry;
  std::vector<std::pair<Fh, CachedAttr>> moved;
  // netstore-lint: allow(unordered-iter) -- key rewrite, map-to-map only
  for (auto it = attrs_.begin(); it != attrs_.end();) {
    if (is_provisional(it->first) &&
        provisional_to_real_.contains(it->first)) {
      moved.emplace_back(to_real(it->first), it->second);
      it = attrs_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [fh, ca] : moved) attrs_[fh] = ca;
}

void NfsClient::ship_local_data(Fh provisional, Fh real) {
  // Collect the provisional file's pages in index order.
  std::vector<std::pair<std::uint64_t, Page*>> file_pages;
  if (auto it = file_pages_.find(provisional); it != file_pages_.end()) {
    for (Page* p = it->second.front(); p != nullptr; p = FilePages::next(p)) {
      file_pages.emplace_back(p->key.index, p);
    }
  }
  if (file_pages.empty()) {
    // Still propagate the size (sparse or metadata-only create).
    auto it = attrs_.find(provisional);
    if (it != attrs_.end() && it->second.attr.size > 0) {
      fs::SetAttr sa;
      sa.size = static_cast<std::int64_t>(it->second.attr.size);
      call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
           WireSizes::kAttrs, [&] { (void)server_.setattr(real, sa); });
    }
    return;
  }
  std::sort(file_pages.begin(), file_pages.end());

  auto ait = attrs_.find(provisional);
  const std::uint64_t size =
      ait != attrs_.end() ? ait->second.attr.size : 0;
  const std::uint32_t wsize_pages =
      transfer_limit(config_.version) / kBlockSize;

  // WRITE RPCs in transfer-limit chunks of contiguous pages, through the
  // bounded pool like any other write-behind.
  std::size_t i = 0;
  while (i < file_pages.size()) {
    std::size_t run = 1;
    while (run < wsize_pages && i + run < file_pages.size() &&
           file_pages[i + run].first == file_pages[i].first + run) {
      run++;
    }
    const std::uint64_t off = file_pages[i].first * kBlockSize;
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        run * kBlockSize, size > off ? size - off : 0));
    if (len > 0) {
      // The payload is slices of the provisional pages, trimmed at EOF.
      core::IoVec iov;
      for (std::size_t j = 0; j * kBlockSize < len; ++j) {
        iov.push_back(core::BufSlice{
            file_pages[i + j].second->data, 0,
            static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kBlockSize, len - j * kBlockSize))});
      }
      write_pool_.reserve(env_, config_.write_pool_slots);
      const std::uint64_t woff = off;
      const sim::Time completion = call_async(
          Proc::kWrite, WireSizes::kFh + 16 + len, WireSizes::kAttrs, [&] {
            (void)server_.write_iov(real, woff, iov, /*stable=*/false);
          });
      write_pool_.add(completion);
      files_[real].needs_commit = true;
    }
    i += run;
  }

  // Re-key the pages so later reads hit the real handle.  Eviction never
  // removes a provisional page, so every collected Page* stays valid.
  for (auto& [index, page] : file_pages) {
    insert_page_ref(real, index, page->data, env_.now());
  }
  drop_pages(provisional);
}

}  // namespace netstore::nfs
