// NFS client: v2, v3 and v4 state machines, plus the paper's §7 proposed
// enhancements (strongly-consistent meta-data caching and directory
// delegation) as opt-in extensions.
//
// The client reproduces the protocol interactions the paper measured:
//   * per-component LOOKUPs during path resolution (cold),
//   * dentry/attribute caching with consistency-check revalidation
//     (GETATTR) after the 3 s meta-data window (warm),
//   * synchronous meta-data mutations (MKDIR/CREATE/REMOVE/... RPCs),
//   * v2's fully synchronous writes; v3/v4's bounded asynchronous write
//     pool that degenerates to write-through when full (the Linux
//     "pseudo-synchronous" behaviour behind Table 4 / Figure 6),
//   * v4 OPEN/OPEN_CONFIRM/CLOSE statefulness and the Linux v4 client's
//     per-component ACCESS chatter (Table 2's higher v4 counts),
//   * close-to-open consistency (GETATTR on open, flush + COMMIT on
//     close).
//
// Data pages are write-through and live in one map node each, threaded
// onto the cache-wide LRU and onto their file handle's page list
// (core/intrusive_list.h), so dropping a file's pages (unlink, truncate,
// a changed mtime) and shipping a delegated file's pages cost O(that
// file's pages), never a walk of the whole cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nfs/proto.h"
#include "nfs/server.h"
#include "rpc/rpc.h"
#include "block/block.h"
#include "core/buffer_pool.h"
#include "core/intrusive_list.h"
#include "core/iovec.h"
#include "sim/env.h"
#include "sim/inflight_window.h"
#include "sim/stats.h"

namespace netstore::nfs {

struct ClientConfig {
  Version version = Version::kV3;
  // Consistency windows (paper §2.3: Linux treats cached meta-data as
  // potentially stale after 3 s, data after 30 s).
  sim::Duration attr_timeout = sim::seconds(3);
  sim::Duration data_timeout = sim::seconds(30);
  // Bounded async-write pool (v3/v4).  Past this many outstanding WRITE
  // RPCs the client blocks on completions: pseudo-synchronous writes.
  std::uint32_t write_pool_slots = 16;
  // Outstanding read-ahead READ RPCs on a sequential stream.
  std::uint32_t readahead_pages = 2;
  std::uint64_t page_cache_capacity = 64 * 1024;  // 256 MB of pages
  // Linux v4 idiosyncrasy: ACCESS exchange per directory component.
  bool v4_access_per_component = true;
  // v4 read delegation (server grants on open; lets reads skip
  // revalidation).
  bool v4_read_delegation = false;

  // --- §7 enhancements (meaningful with version = kV4) ---
  // Strongly-consistent read-only name/attribute cache: entries stay
  // valid until a server callback invalidates them, so consistency-check
  // messages disappear.
  bool consistent_metadata_cache = false;
  // Directory delegation: meta-data updates are applied locally and
  // shipped to the server in aggregated compounds.
  bool directory_delegation = false;
  sim::Duration delegation_flush_interval = sim::seconds(5);
  std::uint32_t compound_batch = 16;  // ops per aggregated compound
};

struct ClientStats {
  sim::Counter lookups;       // LOOKUP RPCs
  sim::Counter revalidations; // consistency-check GETATTRs
  sim::Counter batched_ops;   // §7: meta-data ops shipped in compounds
  sim::Counter batch_flushes; // §7: aggregated compounds sent

  void reset() {
    lookups.reset();
    revalidations.reset();
    batched_ops.reset();
    batch_flushes.reset();
  }
};

class NfsClient {
 public:
  NfsClient(sim::Env& env, rpc::RpcTransport& rpc, NfsServer& server,
            ClientConfig config);
  ~NfsClient();

  /// MOUNT exchange: obtains the root file handle and primes its
  /// attributes (as the Linux mount path does).
  void mount();

  /// Flushes pending writes and queued delegated updates, then forgets
  /// all state.
  void unmount();

  /// Drops every cache without traffic — the paper's client-side
  /// cold-cache emulation (remount).
  void invalidate_caches();

  /// Expires the cached attributes (and v4 ACCESS result) of the object at
  /// `path`, walking the dentry cache only — no RPCs, no time.  The next
  /// operation touching the path pays a real GETATTR consistency check
  /// through the normal revalidation machinery.  This is how core::Fleet
  /// models another client writing a shared object: writer's change makes
  /// this client's 3 s window meaningless, exactly as an out-of-date
  /// cached mtime would on Linux.  Returns false if the path is not fully
  /// dentry-cached (nothing to expire — the next walk LOOKUPs anyway).
  bool expire_path_attrs(const std::string& path);

  // --- path-based operations (the 17 system calls of Table 1) ---
  fs::Status mkdir(const std::string& path, std::uint16_t perm);
  fs::Status chdir(const std::string& path);
  fs::Result<std::vector<fs::DirEntry>> readdir(const std::string& path);
  fs::Result<fs::Ino> symlink(const std::string& target,
                              const std::string& linkpath);
  fs::Result<std::string> readlink(const std::string& path);
  fs::Status unlink(const std::string& path);
  fs::Status rmdir(const std::string& path);
  fs::Result<Fh> creat(const std::string& path, std::uint16_t perm);
  fs::Result<Fh> open(const std::string& path);
  fs::Status close(Fh fh);
  fs::Status link(const std::string& existing, const std::string& linkpath);
  fs::Status rename(const std::string& from, const std::string& to);
  fs::Status truncate(const std::string& path, std::uint64_t size);
  fs::Status chmod(const std::string& path, std::uint16_t perm);
  fs::Status chown(const std::string& path, std::uint32_t uid,
                   std::uint32_t gid);
  fs::Status access(const std::string& path, int amode);
  fs::Result<fs::Attr> stat(const std::string& path);
  fs::Status utime(const std::string& path, sim::Time atime, sim::Time mtime);

  // --- data path ---
  fs::Result<std::uint32_t> read(Fh fh, std::uint64_t off,
                                 std::span<std::uint8_t> out);
  fs::Result<std::uint32_t> write(Fh fh, std::uint64_t off,
                                  std::span<const std::uint8_t> in);
  fs::Status fsync(Fh fh);

  [[nodiscard]] const ClientConfig& config() const { return config_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] ClientStats& mutable_stats() { return stats_; }
  [[nodiscard]] rpc::RpcTransport& transport() { return rpc_; }

  /// §7: forces the delegated-update queue out now (tests/benches).
  void flush_delegated_updates();
  [[nodiscard]] std::size_t pending_delegated_updates() const {
    return deleg_queue_.size();
  }

  /// True while a delegation-flush tick is scheduled (quiescence probe).
  [[nodiscard]] bool deleg_flush_scheduled() const {
    return deleg_flush_scheduled_;
  }

  /// Waits out every outstanding asynchronous WRITE RPC, advancing the
  /// clock to each completion (Testbed::quiesce() support).
  void drain_pending_writes() { write_pool_.drain(env_); }

  /// CHECK-fails unless the page index agrees with the page map: every
  /// page is on the LRU and on its own handle's list, and no handle's
  /// list is empty.  O(resident pages); runs at clone and in audited
  /// quiesce.
  void check_page_index() const;

  /// Deep copy for checkpoint/fork, rehomed onto the cloned env/rpc/server:
  /// dentry/attr/access caches, the page cache (LRU order preserved), file
  /// states, the async write pool, and all §7 delegation state.  CHECKs
  /// the quiesced-fork rules: no scheduled delegation flush and no write
  /// RPC still in flight (every pool slot's completion time <= now).
  [[nodiscard]] std::unique_ptr<NfsClient> clone(sim::Env& env,
                                                 rpc::RpcTransport& rpc,
                                                 NfsServer& server) const;

 private:
  // -- caches --
  struct DentryKey {
    Fh dir;
    std::string name;
    bool operator==(const DentryKey&) const = default;
  };
  struct DentryKeyHash {
    std::size_t operator()(const DentryKey& k) const {
      return std::hash<std::uint64_t>()(k.dir) ^
             std::hash<std::string>()(k.name);
    }
  };
  struct Dentry {
    Fh fh;
    fs::FileType type;
    sim::Time cached_at;
  };
  struct CachedAttr {
    fs::Attr attr;
    sim::Time fetched_at;
  };
  struct PageKey {
    Fh fh;
    std::uint64_t index;
    bool operator==(const PageKey&) const = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      // Full mix of both words: a multiply-then-XOR of the raw index left
      // the low bits of consecutive pages colliding across files.
      return static_cast<std::size_t>(sim::mix64(k.fh ^ sim::mix64(k.index)));
    }
  };
  // Pages are write-through (every write is already an RPC), so unlike
  // fs::PageCache they need no dirty sublist: just the LRU and their file
  // handle's page list (core/intrusive_list.h).
  struct Page {
    core::ListLink<Page> lru;   // cache-wide recency (core::LruList)
    core::ListLink<Page> file;  // *owner
    core::IntrusiveList<Page, &Page::file>* owner = nullptr;
    PageKey key{};              // owning map key, for erase via a list walk
    core::BufRef data;          // pooled frame; may be shared with a fork
    sim::Time ready_at = 0;
  };
  using FilePages = core::IntrusiveList<Page, &Page::file>;
  struct FileState {
    sim::Time last_reval = -1;
    sim::Time known_mtime = -1;
    std::uint64_t last_read_page = ~0ull;
    std::uint32_t streak = 0;
    bool needs_commit = false;
    bool read_delegation = false;
    bool open_confirmed = false;
  };

  // -- RPC helpers --
  /// One synchronous RPC; `work` runs at the server (clock advanced to the
  /// request's arrival first).  `work` is a borrowed view (sim::FuncRef):
  /// it is invoked before the call returns and never stored.
  void call(Proc proc, std::uint32_t req_payload, std::uint32_t resp_payload,
            sim::FuncRef<void()> work);
  /// Async variant; returns reply arrival time.
  sim::Time call_async(Proc proc, std::uint32_t req_payload,
                       std::uint32_t resp_payload, sim::FuncRef<void()> work);

  void remember_attr(Fh fh, const fs::Attr& a);
  void remember_dentry(Fh dir, const std::string& name, Fh fh,
                       fs::FileType type);
  void forget_dentry(Fh dir, const std::string& name);
  [[nodiscard]] bool attr_fresh(Fh fh) const;

  /// GETATTR consistency check; refreshes the attr cache.
  fs::Status do_getattr(Fh fh);
  /// v4: ensure an ACCESS result is cached for `fh` (1 exchange if not).
  void v4_ensure_access(Fh fh);

  /// Resolves all components of `path`.  `final_was_cached` (optional)
  /// reports whether the final component came from the dentry cache —
  /// some ops (chdir) revalidate only in that case.
  fs::Result<Fh> walk(const std::string& path,
                      bool* final_was_cached = nullptr);
  /// Resolves the parent of `path`; `leaf` gets the final component.
  fs::Result<Fh> walk_parent(const std::string& path, std::string& leaf);
  /// One component step shared by the walkers.
  fs::Result<Fh> step(Fh dir, const std::string& name,
                      bool* was_cached = nullptr);

  // LOOKUP RPC.
  fs::Result<NfsServer::LookupReply> rpc_lookup(Fh dir,
                                                const std::string& name);

  // -- data-path helpers --
  Page* find_page(Fh fh, std::uint64_t index);
  /// Installs a page by adopting a pooled handle (a shared server frame
  /// or the pool zero page).
  void insert_page_ref(Fh fh, std::uint64_t index, core::BufRef data,
                       sim::Time ready_at);
  /// Installs a READ reply's slices as client pages starting at `first`;
  /// whole-frame slices are adopted, the EOF tail is staged into a fresh
  /// frame, and pages past the reply (beyond EOF) share the zero page
  /// until `first + count`.
  void install_slices(Fh fh, std::uint64_t first, std::uint32_t count,
                      const core::IoVec& iov, sim::Time ready_at);
  void drop_pages(Fh fh);
  /// Unlinks `p` from both lists and erases it, and its handle's list with
  /// it when `p` was the last page.
  void erase_page(Page* p);
  void evict_pages_if_needed();
  fs::Status revalidate_data(Fh fh, FileState& st);
  void do_readahead(Fh fh, FileState& st, std::uint64_t index,
                    std::uint64_t eof_page, std::uint32_t chunk_pages);
  /// Demand READ RPC for `count` bytes at `off`; fills pages.
  fs::Status fetch_range(Fh fh, std::uint64_t off, std::uint32_t count);

  // -- v4 helpers --
  void v4_open_sequence(Fh fh, FileState& st, bool with_access);

  // -- §7 delegation --
  struct PendingUpdate {
    Proc op;
    Fh dir;
    std::string name;
    std::string aux{};   // symlink target / rename destination name
    Fh aux_fh = 0;       // link target / rename destination dir
    Fh provisional = 0;  // handle assigned locally for creates
    std::uint16_t perm = 0;
  };
  [[nodiscard]] bool delegated() const {
    return config_.directory_delegation && mounted_;
  }
  /// Queues a delegated metadata update and applies it to local caches.
  void queue_update(PendingUpdate u);
  void schedule_deleg_flush();
  /// True if `fh` was created locally and not yet shipped to the server.
  [[nodiscard]] bool is_provisional(Fh fh) const {
    return fh >= kProvisionalBase;
  }
  /// Ships queued updates covering `fh` (or everything if fh == 0) so the
  /// caller can use a real server handle.
  void materialize(Fh fh);
  Fh to_real(Fh fh) const;
  /// §7 delegation, data path: buffered I/O against a file that exists
  /// only in the local update queue.
  fs::Result<std::uint32_t> write_local(Fh fh, std::uint64_t off,
                                        std::span<const std::uint8_t> in);
  fs::Result<std::uint32_t> read_local(Fh fh, std::uint64_t off,
                                       std::span<std::uint8_t> out);
  /// Ships a provisional file's locally buffered pages after its create
  /// reached the server (returns the WRITE/COMMIT message cost).
  void ship_local_data(Fh provisional, Fh real);

  static constexpr Fh kProvisionalBase = 1ull << 62;

  sim::Env& env_;
  rpc::RpcTransport& rpc_;
  NfsServer& server_;
  ClientConfig config_;
  bool mounted_ = false;

  Fh root_ = 0;
  std::unordered_map<DentryKey, Dentry, DentryKeyHash> dentries_;
  // §7 delegation: names removed locally but not yet shipped must mask
  // the server's (stale) copy during lookups.
  std::unordered_set<DentryKey, DentryKeyHash> deleg_negative_;
  std::unordered_map<Fh, CachedAttr> attrs_;
  std::unordered_map<Fh, sim::Time> access_cache_;  // v4
  std::unordered_map<PageKey, Page, PageKeyHash> pages_;
  core::LruList<Page> page_lru_;  // front = most recent
  // Per-handle page index; an entry exists while the handle has a page.
  std::unordered_map<Fh, FilePages> file_pages_;
  std::unordered_map<Fh, FileState> files_;

  // Completion times of outstanding async WRITE RPCs (v3/v4).
  sim::InflightWindow write_pool_;

  // §7 delegation state.
  std::vector<PendingUpdate> deleg_queue_;
  std::unordered_map<Fh, Fh> provisional_to_real_;
  Fh next_provisional_ = kProvisionalBase;
  bool deleg_flush_scheduled_ = false;

  ClientStats stats_;
};

}  // namespace netstore::nfs
