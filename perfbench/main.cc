// perfbench: end-to-end host benchmark of netstore.
//
// One process runs one workload on an NFSv3 testbed and then on an iSCSI
// testbed, single-threaded (sequential drive, one shard).  It measures
// from outside: every timed region is a call into a public function of
// core::Testbed, core::Checkpoint, core::Fleet or vfs::Vfs, timed with
// std::chrono::steady_clock.  Layers below vfs are described by the exact
// simulated counts their public stats expose.  perfbench/run.py builds
// this binary and is the command BENCHMARK.json names.
//
// Shape of one run: kSetupReps reps, each run on NFSv3 and then on iSCSI,
// so both protocols' samples spread over the whole run.  One rep:
//   setup   build a Testbed, populate it from the rep's seed (derived from
//           --seed), quiesce it (oltp also drops every cache so the
//           database opens cold) and capture a Checkpoint; a set-up
//           shorter than kMinSetupSeconds is repeated for more samples.
//   rounds  fork the checkpoint, run one fixed, seeded batch of
//           operations, quiesce; repeat until the protocol has spent its
//           share of --seconds.  Every round of a rep is the same
//           simulated work, so its sim_digest must repeat exactly.
// Reads are checked against the generator's shadow of what it wrote.  The
// last round of each protocol also runs end-of-run checks and verifies
// RAID-5 parity.  Any failure makes the exit status non-zero.
//
// With --trace 1, spans are recorded around every timed call (name,
// start, end, parent, protocol) on alternate setups and rounds; the
// untraced ones give the tracing overhead, and their digests must equal
// the traced ones.  Spans are written out at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/buffer_pool.h"
#include "core/checkpoint.h"
#include "core/fleet.h"
#include "core/testbed.h"
#include "sim/rng.h"

namespace {

namespace core = netstore::core;
namespace fs = netstore::fs;
namespace sim = netstore::sim;
namespace vfs = netstore::vfs;

using Clock = std::chrono::steady_clock;

// Worlds per protocol in one run; set-up time is the median over the
// set-up samples of all of them.
constexpr int kSetupReps = 5;
constexpr double kMinSetupSeconds = 0.25;
constexpr std::size_t kMinRounds = 2;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------
// Spans

const char* const kProtoNames[] = {"nfsv3", "iscsi"};

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the log, -1 for a root
  std::uint8_t proto;   // index into kProtoNames
};

/// In-memory span log.  Recording is off unless enabled; a disabled log
/// costs one branch per call and reads no clock.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_protocol(std::uint8_t p) { proto_ = p; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        Span{name, now_ns(), -1, stack_.empty() ? -1 : stack_.back(), proto_});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the time its direct children cover
  /// (children of one span are sequential, never overlapping).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::uint8_t proto_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Runs f() inside a span and returns its host seconds (always measured,
/// traced or not).
template <class F>
double timed(SpanLog& log, const char* name, F&& f) {
  Scoped s(log, name);
  const Clock::time_point t0 = Clock::now();
  std::forward<F>(f)();
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------
// Correctness accounting

class Checker {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  /// An end-of-run check: one attempted operation that passes or fails.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(what);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// The benchmark's own vfs::Vfs call sites: each call is one operation,
// one span (vfs.<kind>), and its status is checked.

class Io {
 public:
  Io(vfs::Vfs& v, SpanLog& log, Checker& chk) : v_(v), log_(log), chk_(chk) {}

  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// Read-back bytes differ from the generator's shadow: the read failed.
  void mismatch(const std::string& what) { chk_.fail(what); }

  bool mkdir(const std::string& path) {
    Scoped s(log_, "vfs.meta");
    return status("mkdir", path, v_.mkdir(path, 0755));
  }
  bool unlink(const std::string& path) {
    Scoped s(log_, "vfs.meta");
    return status("unlink", path, v_.unlink(path));
  }
  std::optional<fs::Attr> stat(const std::string& path) {
    Scoped s(log_, "vfs.meta");
    return result("stat", path, v_.stat(path));
  }
  std::optional<std::vector<fs::DirEntry>> readdir(const std::string& path) {
    Scoped s(log_, "vfs.meta");
    return result("readdir", path, v_.readdir(path));
  }
  std::optional<vfs::Fd> creat(const std::string& path) {
    Scoped s(log_, "vfs.open");
    return result("creat", path, v_.creat(path, 0644));
  }
  std::optional<vfs::Fd> open(const std::string& path) {
    Scoped s(log_, "vfs.open");
    return result("open", path, v_.open(path));
  }
  bool close(vfs::Fd fd) {
    Scoped s(log_, "vfs.close");
    return status("close", "", v_.close(fd));
  }
  bool fsync(vfs::Fd fd) {
    Scoped s(log_, "vfs.fsync");
    return status("fsync", "", v_.fsync(fd));
  }
  /// A write must accept every byte.
  bool write(vfs::Fd fd, std::uint64_t off, std::span<const std::uint8_t> in) {
    Scoped s(log_, "vfs.write");
    auto r = result("write", "", v_.write(fd, off, in));
    if (r && *r != in.size()) {
      chk_.fail("short write at " + std::to_string(off));
      return false;
    }
    return r.has_value();
  }
  std::optional<std::uint32_t> read(vfs::Fd fd, std::uint64_t off,
                                    std::span<std::uint8_t> out) {
    Scoped s(log_, "vfs.read");
    return result("read", "", v_.read(fd, off, out));
  }

 private:
  bool status(const char* call, const std::string& path, fs::Status st) {
    ++ops_;
    chk_.attempt();
    if (!st.ok()) chk_.fail(std::string(call) + " " + path + ": " + fs::to_string(st.error()));
    return st.ok();
  }
  template <class T>
  std::optional<T> result(const char* call, const std::string& path,
                          fs::Result<T> r) {
    ++ops_;
    chk_.attempt();
    if (!r.ok()) {
      chk_.fail(std::string(call) + " " + path + ": " + fs::to_string(r.error()));
      return std::nullopt;
    }
    return std::move(r.value());
  }

  vfs::Vfs& v_;
  SpanLog& log_;
  Checker& chk_;
  std::uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------
// Deterministic simulated outputs: component counts and sim_digest

using Counts = std::map<std::string, double>;

/// Cumulative simulated work counters of one world, from public stats.
Counts layer_counts(core::Testbed& bed) {
  Counts c;
  fs::Ext3Fs& f = bed.is_nfs() ? bed.server_fs() : bed.client_fs();
  const fs::PageCacheStats& pc = f.pages().stats();
  c["fs.page_cache.hits"] = static_cast<double>(pc.hits.value());
  c["fs.page_cache.misses"] = static_cast<double>(pc.misses.value());
  c["fs.page_cache.writeback_pages"] = static_cast<double>(pc.writeback_pages.value());
  c["fs.page_cache.readahead_pages"] = static_cast<double>(pc.readahead_pages.value());
  const fs::JournalStats& js = f.journal().stats();
  c["fs.journal.commits"] = static_cast<double>(js.commits.value());
  c["fs.journal.blocks_logged"] = static_cast<double>(js.blocks_logged.value());
  c["fs.journal.checkpoint_writes"] = static_cast<double>(js.checkpoint_writes.value());

  const auto m = bed.metrics().snapshot();
  auto counter = [&m](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  if (bed.is_nfs()) {
    c["nfs.client.lookups"] = counter("nfs.client.lookups");
    c["nfs.client.revalidations"] = counter("nfs.client.revalidations");
    c["nfs.server.requests"] = counter("nfs.server.requests");
    c["rpc.calls"] = counter("rpc.calls");
    c["rpc.retransmissions"] = counter("rpc.retransmissions");
  } else {
    c["initiator.exchanges"] = counter("iscsi.initiator.exchanges");
    c["initiator.write_commands"] = counter("iscsi.initiator.write_commands");
    c["target.cache.hits"] = counter("iscsi.target.cache.hits");
    c["target.cache.misses"] = counter("iscsi.target.cache.misses");
  }
  c["net.messages"] = counter("link.c2s.messages") + counter("link.s2c.messages");
  c["net.bytes"] = counter("link.c2s.bytes") + counter("link.s2c.bytes");
  double disk_requests = 0;
  for (std::uint32_t i = 0; i < bed.config().system.raid.num_disks; ++i) {
    disk_requests += static_cast<double>(bed.raid().disk(i).requests_serviced());
  }
  c["block.disk.requests"] = disk_requests;
  c["sim.timer.scheduled"] = counter("sim.timer.scheduled");
  c["sim.timer.fired"] = counter("sim.timer.fired");
  c["sim.timer.cancelled"] = counter("sim.timer.cancelled");
  c["sim.virtual_s"] = sim::to_seconds(bed.env().now());
  return c;
}

/// Process-wide buffer-pool telemetry (host memory behaviour; outside the
/// digest because every world in the process shares the pool).
Counts pool_counts() {
  const core::BufferPool& p = core::BufferPool::instance();
  return Counts{{"core.pool.copies", static_cast<double>(p.copies())},
                {"core.pool.bytes_copied", static_cast<double>(p.bytes_copied())},
                {"core.pool.unshare_ops", static_cast<double>(p.unshare_ops())},
                {"core.pool.slabs", static_cast<double>(p.slabs())},
                {"core.pool.alloc_fallbacks", static_cast<double>(p.alloc_fallbacks())}};
}

Counts delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

/// FNV-1a over a stream of 64-bit words and strings.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char ch : s) {
      h_ ^= static_cast<unsigned char>(ch);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hash of every deterministic simulated output of a world:
/// Testbed::snapshot(), the metrics registry and the component counts.
std::uint64_t sim_digest(core::Testbed& bed) {
  Digest d;
  const core::StatsSnapshot s = bed.snapshot();
  for (const std::uint64_t v :
       {s.messages, s.bytes, s.raw_messages, s.retransmissions, s.c2s_messages,
        s.c2s_bytes, s.s2c_messages, s.s2c_bytes}) {
    d.add(v);
  }
  d.add(s.now);
  d.add(s.server_cpu_busy);
  d.add(s.client_cpu_busy);
  d.add(s.client_cache_hit_ratio);
  d.add(s.server_cache_hit_ratio);
  for (const auto& [key, m] : bed.metrics().snapshot()) {
    d.add(key);
    d.add(static_cast<std::uint64_t>(m.kind));
    d.add(m.count);
    const sim::Sampler::Summary& su = m.summary;
    d.add(static_cast<std::uint64_t>(su.count));
    for (const double v : {su.mean, su.min, su.max, su.p50, su.p95, su.p99, su.p999}) {
      d.add(v);
    }
    for (const auto& [bound, n] : m.buckets) {
      d.add(bound);
      d.add(n);
    }
  }
  for (const auto& [key, v] : layer_counts(bed)) {
    d.add(key);
    d.add(v);
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------
// Workloads

/// One round's world: a checkpoint fork, or the world a Fleet owns.
struct Round {
  std::unique_ptr<core::Testbed> own;
  std::unique_ptr<core::Fleet> fleet;
  core::Testbed* world = nullptr;
  double fork_s = 0;      // Checkpoint::fork / Checkpoint::fleet
  double prepare_s = 0;   // Fleet::setup (hot set); 0 elsewhere
  double fleet_run_s = 0; // Fleet::run; 0 elsewhere
  std::uint64_t ops = 0;  // operations the measured phase completed
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string params() const = 0;
  /// Seeds the generator for the next world (populate and every round).
  virtual void set_seed(std::uint64_t seed) = 0;
  /// Fills a freshly built world (before quiesce and capture).
  virtual void populate(Io&) {}
  /// True when the measured phase must start with every cache dropped.
  [[nodiscard]] virtual bool cold() const { return false; }
  /// Forks the round's world from the checkpoint (and prepares it).
  virtual void prepare(const core::Checkpoint& ckpt, Round& r, SpanLog& log) {
    r.fork_s = timed(log, "core.fork", [&] { r.own = ckpt.fork(); });
    r.world = r.own.get();
    r.world->reset_counters();
  }
  /// The measured batch of operations; sets r.ops.
  virtual void run(Round& r, Io& io, SpanLog& log, Checker& chk) = 0;
  /// End-of-run checks on the round's quiesced world.
  virtual void check(Round& r, Io& io, Checker& chk) = 0;
};

// PostMark (paper §5.1, Table 5): a pool of small files in one directory,
// transactions equally create/delete and read/append.  Every byte a file
// holds is content_byte(file id, offset) — appends only extend files and
// ids are never reused — so the shadow is just (id, size) per live file.
class Postmark final : public Workload {
 public:
  Postmark(std::uint32_t pool, std::uint32_t txns)
      : pool_size_(pool), txns_(txns) {}

  void set_seed(std::uint64_t seed) override { seed_ = seed; }

  [[nodiscard]] std::string params() const override {
    return "{\"files\": " + std::to_string(pool_size_) +
           ", \"transactions\": " + std::to_string(txns_) +
           ", \"min_size\": 512, \"max_size\": 16384, \"read_chunk\": 4096}";
  }

  void populate(Io& io) override {
    sim::Rng rng(sim::mix64(seed_ ^ 0x706f6f6cull));
    base_ = State{};
    io.mkdir("/pm");
    for (std::uint32_t i = 0; i < pool_size_; ++i) create(io, rng, base_);
  }

  void run(Round& r, Io& io, SpanLog&, Checker&) override {
    live_ = base_;
    sim::Rng rng(sim::mix64(seed_ ^ 0x74786e73ull));
    const std::uint64_t ops0 = io.ops();
    for (std::uint32_t t = 0; t < txns_; ++t) {
      if (rng.chance(0.5)) {
        if (rng.chance(0.5)) {
          create(io, rng, live_);
        } else {
          remove(io, rng);
        }
      } else if (rng.chance(0.5)) {
        read(io, rng);
      } else {
        append(io, rng);
      }
    }
    r.ops = io.ops() - ops0;
  }

  void check(Round&, Io& io, Checker& chk) override {
    std::set<std::string> expect;
    for (const File& f : live_.files) expect.insert(name(f.id));
    std::set<std::string> got;
    if (auto list = io.readdir("/pm")) {
      for (const fs::DirEntry& e : *list) {
        if (e.name != "." && e.name != "..") got.insert(e.name);
      }
    }
    chk.check(got == expect, "postmark: /pm listing differs from the shadow");
    // Every live file's size, through the attribute path.
    std::uint64_t size_mismatch = 0;
    for (const File& f : live_.files) {
      auto a = io.stat("/pm/" + name(f.id));
      if (a && a->size != f.size) ++size_mismatch;
    }
    chk.check(size_mismatch == 0, "postmark: " + std::to_string(size_mismatch) +
                                      " file sizes differ from the shadow");
  }

 private:
  struct File {
    std::uint64_t id;
    std::uint64_t size;
  };
  struct State {
    std::vector<File> files;
    std::uint64_t next_id = 0;
  };

  static std::string name(std::uint64_t id) { return "f" + std::to_string(id); }
  static std::uint8_t content_byte(std::uint64_t id, std::uint64_t off) {
    const std::uint64_t w =
        (id * 0x9e3779b97f4a7c15ull) ^ ((off >> 3) * 0xc2b2ae3d27d4eb4full);
    return static_cast<std::uint8_t>(w >> ((off & 7) * 8));
  }
  void fill(std::uint64_t id, std::uint64_t off, std::size_t n) {
    buf_.resize(n);
    for (std::size_t i = 0; i < n; ++i) buf_[i] = content_byte(id, off + i);
  }
  std::uint32_t rand_size(sim::Rng& rng) const {
    return static_cast<std::uint32_t>(rng.uniform_range(512, 16 * 1024));
  }

  void create(Io& io, sim::Rng& rng, State& st) {
    const std::uint64_t id = st.next_id++;
    const std::uint32_t size = rand_size(rng);
    auto fd = io.creat("/pm/" + name(id));
    if (!fd) return;
    fill(id, 0, size);
    io.write(*fd, 0, buf_);
    io.close(*fd);
    st.files.push_back(File{id, size});
  }

  void remove(Io& io, sim::Rng& rng) {
    if (live_.files.empty()) return;
    const std::size_t idx = rng.uniform(live_.files.size());
    io.unlink("/pm/" + name(live_.files[idx].id));
    live_.files[idx] = live_.files.back();
    live_.files.pop_back();
  }

  void read(Io& io, sim::Rng& rng) {
    if (live_.files.empty()) return;
    const File& f = live_.files[rng.uniform(live_.files.size())];
    auto fd = io.open("/pm/" + name(f.id));
    if (!fd) return;
    std::uint8_t chunk[4096];
    std::uint64_t off = 0;
    bool same = true;
    while (off < f.size) {
      auto got = io.read(*fd, off, chunk);
      if (!got || *got == 0) break;
      for (std::uint32_t i = 0; i < *got; ++i) {
        same &= chunk[i] == content_byte(f.id, off + i);
      }
      off += *got;
    }
    io.close(*fd);
    if (!same || off != f.size) {
      io.mismatch("postmark: read-back of " + name(f.id) + " differs from the shadow");
    }
  }

  void append(Io& io, sim::Rng& rng) {
    if (live_.files.empty()) return;
    File& f = live_.files[rng.uniform(live_.files.size())];
    auto fd = io.open("/pm/" + name(f.id));
    if (!fd) return;
    const std::uint32_t amount = rand_size(rng) / 2 + 1;
    fill(f.id, f.size, amount);
    if (io.write(*fd, f.size, buf_)) f.size += amount;
    io.close(*fd);
  }

  std::uint64_t seed_ = 0;
  std::uint32_t pool_size_;
  std::uint32_t txns_;
  State base_;
  State live_;
  std::vector<std::uint8_t> buf_;
};

// TPC-C-like OLTP (paper §5.2, Table 6): 4 KB random page I/O on a
// database file larger than every cache in the stack (client 384 MB,
// server 768 MB, target 896 MB), opened cold.  Two thirds reads, one third
// writes, a log append per transaction and a log fsync every
// kFsyncEvery transactions.  Page p at version v holds fill_page(p, v),
// so the shadow is one version number per page.
class Oltp final : public Workload {
 public:
  Oltp(std::uint64_t db_mb, std::uint32_t txns)
      : db_mb_(db_mb), pages_(db_mb * 256), txns_(txns) {}

  void set_seed(std::uint64_t seed) override { seed_ = seed; }

  [[nodiscard]] std::string params() const override {
    return "{\"database_mb\": " + std::to_string(db_mb_) +
           ", \"transactions\": " + std::to_string(txns_) +
           ", \"ios_per_txn\": " + std::to_string(kIosPerTxn) +
           ", \"read_fraction\": 0.6667, \"log_bytes_per_txn\": " +
           std::to_string(kLogBytes) +
           ", \"fsync_every\": " + std::to_string(kFsyncEvery) + "}";
  }

  void populate(Io& io) override {
    auto fd = io.creat("/oltp.db");
    if (!fd) return;
    std::vector<std::uint8_t> chunk(1024 * 1024);
    for (std::uint64_t m = 0; m < db_mb_; ++m) {
      for (std::uint64_t k = 0; k < 256; ++k) {
        fill_page(m * 256 + k, 0, {chunk.data() + k * kPage, kPage});
      }
      io.write(*fd, m * chunk.size(), chunk);
    }
    io.fsync(*fd);
    io.close(*fd);
    if (auto lg = io.creat("/oltp.log")) io.close(*lg);
  }

  [[nodiscard]] bool cold() const override { return true; }

  void run(Round& r, Io& io, SpanLog&, Checker&) override {
    core::Testbed& bed = *r.world;
    version_.assign(pages_, 0);
    recent_.clear();
    const std::uint64_t ops0 = io.ops();
    auto db = io.open("/oltp.db");
    auto lg = io.open("/oltp.log");
    if (!db || !lg) return;
    sim::Rng rng(sim::mix64(seed_ ^ 0x6f6c7470ull));
    std::uint8_t page[kPage];
    std::uint8_t expect[kPage];
    std::vector<std::uint8_t> logrec(kLogBytes);
    for (std::uint32_t t = 0; t < txns_; ++t) {
      // Client-side transaction processing (the paper's clients saturate).
      bed.env().advance(kClientCpuPerTxn);
      bed.client_cpu().charge(bed.env().now(), kClientCpuPerTxn);
      for (std::uint32_t i = 0; i < kIosPerTxn; ++i) {
        const std::uint64_t p = rng.uniform(pages_);
        if (rng.uniform01() < 2.0 / 3.0) {
          auto got = io.read(*db, p * kPage, page);
          if (!got) continue;
          fill_page(p, version_[p], expect);
          if (*got != kPage || std::memcmp(page, expect, kPage) != 0) {
            io.mismatch("oltp: page " + std::to_string(p) + " differs from the shadow");
          }
        } else {
          fill_page(p, ++version_[p], page);
          io.write(*db, p * kPage, page);
          recent_.push_back(p);
        }
      }
      // Write-ahead log append, group-committed every kFsyncEvery txns.
      std::memset(logrec.data(), static_cast<int>(t & 0xff), logrec.size());
      io.write(*lg, std::uint64_t{t} * kLogBytes, logrec);
      if ((t + 1) % kFsyncEvery == 0) io.fsync(*lg);
    }
    io.fsync(*db);
    io.fsync(*lg);
    io.close(*db);
    io.close(*lg);
    r.ops = io.ops() - ops0;
  }

  void check(Round&, Io& io, Checker& chk) override {
    auto log_attr = io.stat("/oltp.log");
    chk.check(log_attr && log_attr->size == std::uint64_t{txns_} * kLogBytes,
              "oltp: log size differs from the appends");
    auto db_attr = io.stat("/oltp.db");
    chk.check(db_attr && db_attr->size == pages_ * kPage,
              "oltp: database size changed");
    // The most recent writes read back at their latest versions.
    auto db = io.open("/oltp.db");
    if (!db) return;
    std::uint8_t page[kPage];
    std::uint8_t expect[kPage];
    const std::size_t n = std::min<std::size_t>(recent_.size(), 256);
    std::uint64_t bad = 0;
    for (std::size_t i = recent_.size() - n; i < recent_.size(); ++i) {
      const std::uint64_t p = recent_[i];
      auto got = io.read(*db, p * kPage, page);
      fill_page(p, version_[p], expect);
      if (!got || *got != kPage || std::memcmp(page, expect, kPage) != 0) ++bad;
    }
    io.close(*db);
    chk.check(bad == 0, "oltp: " + std::to_string(bad) +
                            " recently written pages read back wrong");
  }

 private:
  static constexpr std::size_t kPage = 4096;
  static constexpr std::uint32_t kIosPerTxn = 12;
  static constexpr std::uint32_t kLogBytes = 2048;
  static constexpr std::uint32_t kFsyncEvery = 10;
  static constexpr sim::Duration kClientCpuPerTxn = sim::milliseconds(35);

  static void fill_page(std::uint64_t p, std::uint32_t v, std::span<std::uint8_t> out) {
    for (std::size_t i = 0; i < kPage / 8; ++i) {
      const std::uint64_t w =
          ((p << 32) | (std::uint64_t{v} << 9) | i) ^ 0x5deece66d5deece6ull;
      std::memcpy(out.data() + i * 8, &w, 8);
    }
  }

  std::uint64_t seed_ = 0;
  std::uint64_t db_mb_;
  std::uint64_t pages_;
  std::uint32_t txns_;
  std::vector<std::uint32_t> version_;
  std::vector<std::uint64_t> recent_;
};

// Multi-client sharing (paper §6): core::Fleet's open-loop Pareto
// arrivals from many flyweight clients over a Zipf hot set, forked from
// one quiesced world.  Fleet issues its own vfs calls; the benchmark
// times Fleet::setup and Fleet::run and then audits the namespace the
// fleet left behind.
class FleetLoad final : public Workload {
 public:
  FleetLoad(std::uint64_t clients, std::uint64_t ops) {
    wl_.clients = clients;
    wl_.ops = ops;
    wl_.shards = 1;
  }

  void set_seed(std::uint64_t seed) override { wl_.seed = seed; }

  [[nodiscard]] std::string params() const override {
    return "{\"clients\": " + std::to_string(wl_.clients) +
           ", \"ops\": " + std::to_string(wl_.ops) +
           ", \"shared_objects\": " + std::to_string(wl_.shared_objects) +
           ", \"sharing_ratio\": " + std::to_string(wl_.sharing_ratio) +
           ", \"think_time\": \"pareto\", \"shards\": 1}";
  }

  void prepare(const core::Checkpoint& ckpt, Round& r, SpanLog& log) override {
    r.fork_s = timed(log, "core.fork", [&] { r.fleet = ckpt.fleet(wl_); });
    r.prepare_s = timed(log, "core.fleet_setup", [&] { r.fleet->setup(); });
    r.world = &r.fleet->world();
  }

  void run(Round& r, Io&, SpanLog& log, Checker& chk) override {
    r.fleet_run_s = timed(log, "core.fleet_run", [&] {
      r.fleet->run(core::Fleet::DriveMode::kSequential);
    });
    r.ops = r.fleet->ops_completed();
    // Fleet discards each operation's status; its ops count as attempted
    // and the end-of-run checks audit what they left behind.
    chk.attempt(r.ops);
  }

  void check(Round& r, Io& io, Checker& chk) override {
    core::Fleet& f = *r.fleet;
    chk.check(f.ops_completed() == wl_.ops, "fleet: completed " +
                                                std::to_string(f.ops_completed()) +
                                                " of " + std::to_string(wl_.ops));
    if (!r.world->is_nfs()) {
      chk.check(f.forced_revalidations() == 0,
                "fleet: iSCSI forced attribute revalidations");
    }
    // The hot set: exactly the shared objects, each still empty (shared
    // writes are utime only).
    std::set<std::string> shared;
    if (auto list = io.readdir("/fleet_shared")) {
      for (const fs::DirEntry& e : *list) {
        if (e.name != "." && e.name != "..") shared.insert(e.name);
      }
    }
    std::uint64_t bad_shared = shared.size() == wl_.shared_objects ? 0 : 1;
    for (std::uint32_t d = 0; d < wl_.shared_objects; ++d) {
      const std::string path = "/fleet_shared/o" + std::to_string(d);
      if (shared.count("o" + std::to_string(d)) == 0) ++bad_shared;
      auto fd = io.open(path);
      if (!fd) continue;
      std::uint8_t buf[512];
      auto got = io.read(*fd, 0, buf);
      if (!got || *got != 0) ++bad_shared;
      io.close(*fd);
    }
    chk.check(bad_shared == 0, "fleet: hot set differs from the shared objects");
    // Private files: c<client>_f<k>, created in order, so each client's
    // files are exactly f0..f(n-1), and every listed name resolves.
    std::map<std::uint64_t, std::set<std::uint64_t>> files;
    std::uint64_t bad_private = 0;
    auto list = io.readdir("/fleet_priv");
    if (list) {
      for (const fs::DirEntry& e : *list) {
        if (e.name == "." || e.name == "..") continue;
        unsigned long long c = 0, k = 0;
        if (std::sscanf(e.name.c_str(), "c%llu_f%llu", &c, &k) != 2 ||
            c >= wl_.clients) {
          ++bad_private;
          continue;
        }
        files[c].insert(k);
        auto a = io.stat("/fleet_priv/" + e.name);
        if (!a || a->size != 0) ++bad_private;
      }
    }
    for (const auto& [c, ks] : files) {
      if (*ks.rbegin() + 1 != ks.size()) ++bad_private;
    }
    chk.check(list && !files.empty() && bad_private == 0,
              "fleet: " + std::to_string(bad_private) +
                  " private files out of order or unreadable");
  }

 private:
  core::WorkloadConfig wl_;
};

// ---------------------------------------------------------------------
// Run loop

struct SetupTimes {
  bool traced = false;
  double total = 0;
  double build = 0;
  double quiesce = 0;
  double cold = 0;
  double capture = 0;
};

struct RoundTimes {
  bool traced = false;
  double fork = 0;
  double prepare = 0;
  double run = 0;  // the measured batch plus its closing quiesce
  double fleet_run = 0;
  std::uint64_t ops = 0;
};

struct ProtoRun {
  core::Protocol protocol = core::Protocol::kNfsV3;
  std::vector<SetupTimes> setups;
  std::vector<RoundTimes> rounds;
  Digest reps_digest;  // over each rep's round digest, in rep order
  double rounds_s = 0;  // host time of the round loops so far
  Counts counts;  // simulated work of the first round
  Counts pool;    // buffer-pool telemetry over the first round
  std::map<std::string, double> latency_p50_us;
};

/// One rep of one protocol: build, populate and capture a world from
/// `seed`, then fork rounds from it until the protocol has spent
/// `budget_s` of round time in total.  The last rep ends with the
/// end-of-run checks.
void run_rep(Workload& w, ProtoRun& out, std::uint64_t seed, int rep,
             double budget_s, bool trace, SpanLog& log, Checker& chk) {
  const std::string pname =
      out.protocol == core::Protocol::kIscsi ? "iscsi" : "nfsv3";
  const bool last_rep = rep + 1 == kSetupReps;
  w.set_seed(seed);
  std::unique_ptr<core::Checkpoint> ckpt;
  // A set-up much shorter than kMinSetupSeconds (fleet's takes a few ms)
  // is repeated on the same seed, so its median rests on many samples;
  // the rounds fork from the last one.
  for (double spent = 0; !ckpt || spent < kMinSetupSeconds;) {
    ckpt.reset();
    SetupTimes s;
    s.traced = trace && out.setups.size() % 2 == 0;
    log.set_enabled(s.traced);
    std::unique_ptr<core::Testbed> bed;
    const Clock::time_point t0 = Clock::now();
    const std::int32_t span = log.open("setup");
    s.build = timed(log, "core.testbed_build",
                    [&] { bed = std::make_unique<core::Testbed>(out.protocol); });
    Io io(bed->vfs(), log, chk);
    timed(log, "populate", [&] { w.populate(io); });
    s.quiesce = timed(log, "core.quiesce", [&] { bed->quiesce(); });
    if (w.cold()) {
      s.cold = timed(log, "core.cold_caches", [&] { bed->cold_caches(); });
      s.quiesce += timed(log, "core.quiesce", [&] { bed->quiesce(); });
    }
    s.capture = timed(log, "core.checkpoint",
                      [&] { ckpt = std::make_unique<core::Checkpoint>(*bed); });
    log.close(span);
    s.total = seconds_between(t0, Clock::now());
    spent += s.total;
    out.setups.push_back(s);
  }

  std::uint64_t rep_digest = 0;
  for (int j = 0;; ++j) {
    const Clock::time_point t0 = Clock::now();
    const auto round = out.rounds.size();
    RoundTimes t;
    t.traced = trace && round % 2 == 0;
    log.set_enabled(t.traced);
    Round r;
    const std::int32_t span = log.open("round");
    w.prepare(*ckpt, r, log);
    Io io(r.world->vfs(), log, chk);
    const Counts c0 = layer_counts(*r.world);
    const Counts p0 = pool_counts();
    t.run = timed(log, "workload", [&] { w.run(r, io, log, chk); });
    t.run += timed(log, "core.quiesce", [&] { r.world->quiesce(); });
    log.close(span);
    t.fork = r.fork_s;
    t.prepare = r.prepare_s;
    t.fleet_run = r.fleet_run_s;
    t.ops = r.ops;
    out.rounds.push_back(t);

    // Every round of a rep is the same simulated work, traced or not.
    const std::uint64_t d = sim_digest(*r.world);
    if (j == 0) rep_digest = d;
    chk.check(d == rep_digest, pname + ": rep " + std::to_string(rep) +
                                   " round " + std::to_string(j) +
                                   " sim_digest " + hex(d) + " != " +
                                   hex(rep_digest));
    if (round == 0) {
      out.counts = delta(layer_counts(*r.world), c0);
      out.pool = delta(pool_counts(), p0);
      const auto m = r.world->metrics().snapshot();
      for (const char* c : {"network", "cpu", "cache", "media", "protocol"}) {
        const auto it = m.find(std::string("trace.component.") + c + "_us");
        out.latency_p50_us[c] = it == m.end() ? 0.0 : it->second.summary.p50;
      }
    }
    out.rounds_s += seconds_between(t0, Clock::now());
    // A traced run needs an untraced round to compare with.
    const bool done = out.rounds_s >= budget_s &&
                      (!last_rep || out.rounds.size() >= kMinRounds);
    if (done && last_rep) {
      // End of run: the final quiesced world must hold consistent parity
      // and everything the generator wrote.
      chk.check(r.world->raid().verify_parity(
                    r.world->config().system.volume_blocks),
                pname + ": RAID-5 parity mismatch");
      log.set_enabled(trace);
      Scoped s(log, "check");
      w.check(r, io, chk);
    }
    if (done) break;
  }
  out.reps_digest.add(rep_digest);
  log.set_enabled(false);
}

// Medians of one protocol's samples, optionally only traced/untraced ones.
struct Medians {
  double setup = 0;   // set-up rep + round fork/prepare
  double run = 0;     // measured phase
  double ops_per_s = 0;
};

Medians medians(const ProtoRun& p, std::optional<bool> traced = std::nullopt) {
  std::vector<double> setup, prep, run, rate;
  for (const SetupTimes& s : p.setups) {
    if (!traced || s.traced == *traced) setup.push_back(s.total);
  }
  for (const RoundTimes& t : p.rounds) {
    if (traced && t.traced != *traced) continue;
    prep.push_back(t.fork + t.prepare);
    run.push_back(t.run);
    rate.push_back(static_cast<double>(t.ops) / t.run);
  }
  return Medians{median(setup) + median(prep), median(run), median(rate)};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void add_layer_metrics(std::vector<Metric>& out, std::uint8_t pidx,
                       const ProtoRun& r, const SpanLog& log,
                       const std::vector<std::int64_t>& self) {
  const std::string pre = std::string(kProtoNames[pidx]) + ".";
  // vfs: host time per call, over every traced call outside set-up.
  const auto& spans = log.spans();
  std::vector<const char*> root(spans.size());
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<double> generator_self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent < 0 ? s.name : root[static_cast<std::size_t>(s.parent)];
    if (s.proto != pidx) continue;
    if (std::strncmp(s.name, "vfs.", 4) == 0 && std::strcmp(root[i], "setup") != 0) {
      by_kind[s.name + 4].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    if (std::strcmp(s.name, "workload") == 0) {
      generator_self_ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  for (const char* k : {"meta", "open", "close", "read", "write", "fsync"}) {
    const std::vector<double>& v = by_kind[k];
    const std::string key = pre + "vfs." + k + ".host_us.";
    out.push_back({key + "p50", percentile(v, 50), "us"});
    out.push_back({key + "p99", percentile(v, 99), "us"});
    out.push_back({key + "count", static_cast<double>(v.size()), "count"});
  }
  // core: host time of the module calls, medians over reps.
  std::vector<double> build, quiesce, cold, capture, fork, fleet_run;
  for (const SetupTimes& s : r.setups) {
    build.push_back(s.build);
    quiesce.push_back(s.quiesce);
    cold.push_back(s.cold);
    capture.push_back(s.capture);
  }
  for (const RoundTimes& t : r.rounds) {
    fork.push_back(t.fork);
    fleet_run.push_back(t.fleet_run);
  }
  out.push_back({pre + "core.testbed_build_ms", 1e3 * median(build), "ms"});
  out.push_back({pre + "core.quiesce_ms", 1e3 * median(quiesce), "ms"});
  out.push_back({pre + "core.cold_caches_ms", 1e3 * median(cold), "ms"});
  out.push_back({pre + "core.fork_ms", 1e3 * (median(capture) + median(fork)), "ms"});
  out.push_back({pre + "core.fleet_run_ms", 1e3 * median(fleet_run), "ms"});
  for (const auto& [k, v] : r.pool) {
    out.push_back({pre + k, v, k == "core.pool.bytes_copied" ? "B" : "count"});
  }
  // Simulated work of one round, from the layers' public stats.
  const Counts& c = r.counts;
  auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  for (const char* k : {"fs.page_cache.hits", "fs.page_cache.misses",
                        "fs.page_cache.writeback_pages",
                        "fs.page_cache.readahead_pages"}) {
    out.push_back({pre + k, c.at(k), "count"});
  }
  out.push_back({pre + "fs.page_cache.hit_ratio",
                 ratio(c.at("fs.page_cache.hits"), c.at("fs.page_cache.misses")),
                 "ratio"});
  for (const char* k : {"fs.journal.commits", "fs.journal.blocks_logged",
                        "fs.journal.checkpoint_writes"}) {
    out.push_back({pre + k, c.at(k), "count"});
  }
  if (pidx == 0) {
    for (const char* k : {"nfs.client.lookups", "nfs.client.revalidations",
                          "nfs.server.requests", "rpc.calls",
                          "rpc.retransmissions"}) {
      out.push_back({pre + k, c.at(k), "count"});
    }
  } else {
    for (const char* k : {"initiator.exchanges", "initiator.write_commands"}) {
      out.push_back({pre + k, c.at(k), "count"});
    }
    out.push_back({pre + "target.cache.hit_ratio",
                   ratio(c.at("target.cache.hits"), c.at("target.cache.misses")),
                   "ratio"});
  }
  out.push_back({pre + "net.messages", c.at("net.messages"), "count"});
  out.push_back({pre + "net.bytes", c.at("net.bytes"), "B"});
  out.push_back({pre + "block.disk.requests", c.at("block.disk.requests"), "count"});
  for (const char* k : {"sim.timer.scheduled", "sim.timer.fired", "sim.timer.cancelled"}) {
    out.push_back({pre + k, c.at(k), "count"});
  }
  out.push_back({pre + "sim.virtual_s", c.at("sim.virtual_s"), "sim_s"});
  for (const auto& [comp, v] : r.latency_p50_us) {
    out.push_back({pre + "obs.latency." + comp + "_us.p50", v, "sim_us"});
  }
  out.push_back({pre + "bench.generator_self_ms", median(generator_self_ms), "ms"});
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload postmark|oltp|fleet --seed N --seconds S "
               "--trace 0|1 [--report PATH] [--spans PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, report_path, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--report") {
      report_path = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_seed || seconds <= 0 || (trace != 0 && trace != 1)) usage(argv[0]);

  // Inputs derive from the seed; sizes are fixed per workload so that each
  // protocol's round takes a fraction of a second to a few seconds.
  std::unique_ptr<Workload> w;
  if (workload == "postmark") {
    w = std::make_unique<Postmark>(5000, 1000);
  } else if (workload == "oltp") {
    w = std::make_unique<Oltp>(1024, 3000);
  } else if (workload == "fleet") {
    w = std::make_unique<FleetLoad>(10000, 10000);
  } else {
    usage(argv[0]);
  }

  const Clock::time_point epoch = Clock::now();
  SpanLog log(epoch);
  Checker chk;
  const core::Protocol protos[] = {core::Protocol::kNfsV3, core::Protocol::kIscsi};
  ProtoRun runs[2];
  runs[0].protocol = protos[0];
  runs[1].protocol = protos[1];
  // Reps alternate between the protocols, so each protocol's samples
  // spread over the whole run and slow drift in host speed hits both
  // alike.  Each rep is a world of its own, generated from a seed derived
  // from the run's: the host cost of a world depends on its data and
  // allocation history, so a run averages kSetupReps of them.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t rep_seed =
        sim::mix64(seed ^ sim::mix64(static_cast<std::uint64_t>(rep) + 1));
    for (std::uint8_t p = 0; p < 2; ++p) {
      log.set_protocol(p);
      run_rep(*w, runs[p], rep_seed, rep,
              seconds / 2 * (rep + 1) / kSetupReps, trace == 1, log, chk);
    }
  }

  const Medians m0 = medians(runs[0]);
  const Medians m1 = medians(runs[1]);
  const double setup_s = m0.setup + m1.setup;
  const double wall_s = setup_s + m0.run + m1.run;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double failed_ratio =
      static_cast<double>(chk.failed()) / static_cast<double>(std::max<std::uint64_t>(chk.attempted(), 1));

  std::vector<Metric> e2e = {
      {"ops_per_s.nfsv3", m0.ops_per_s, "1/s"},
      {"ops_per_s.iscsi", m1.ops_per_s, "1/s"},
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::vector<Metric> layers;
  if (trace == 1) {
    const std::vector<std::int64_t> self = log.self_ns();
    add_layer_metrics(layers, 0, runs[0], log, self);
    add_layer_metrics(layers, 1, runs[1], log, self);
    double overhead = 0;
    for (const ProtoRun& r : runs) {
      const Medians on = medians(r, true);
      const Medians off = medians(r, false);
      overhead += (on.setup + on.run) - (off.setup + off.run);
    }
    layers.push_back({"trace.overhead_s", overhead, "s"});
  }

  for (const Metric& e : e2e) std::printf("%-40s %16.6f %s\n", e.name.c_str(), e.value, e.unit);
  std::printf("%-40s %16.6f %s\n", "failed_ops_ratio", failed_ratio, "ratio");
  for (const Metric& e : layers) std::printf("%-40s %16.6f %s\n", e.name.c_str(), e.value, e.unit);
  for (int p = 0; p < 2; ++p) {
    std::printf("sim_digest.%s %s  (%zu setups, %zu rounds, %" PRIu64 " ops/round)\n",
                kProtoNames[p], hex(runs[p].reps_digest.value()).c_str(), runs[p].setups.size(),
                runs[p].rounds.size(), runs[p].rounds.front().ops);
  }

  if (!report_path.empty()) {
    if (FILE* f = std::fopen(report_path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %s, "
                   "\"trace\": %d, \"params\": %s, \"sim_digest\": {\"nfsv3\": \"%s\", "
                   "\"iscsi\": \"%s\"}, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                   ", \"failed_ops_ratio\": %s, \"end_to_end\": %s, \"per_layer\": %s",
                   workload.c_str(), seed, json_number(seconds).c_str(), trace,
                   w->params().c_str(), hex(runs[0].reps_digest.value()).c_str(),
                   hex(runs[1].reps_digest.value()).c_str(), chk.attempted(), chk.failed(),
                   json_number(failed_ratio).c_str(), metrics_json(e2e).c_str(),
                   metrics_json(layers).c_str());
      std::fprintf(f, ", \"samples\": {");
      for (int p = 0; p < 2; ++p) {
        std::fprintf(f, "%s\"%s\": {\"setup_s\": [", p ? ", " : "", kProtoNames[p]);
        for (std::size_t i = 0; i < runs[p].setups.size(); ++i) {
          std::fprintf(f, "%s%s", i ? ", " : "", json_number(runs[p].setups[i].total).c_str());
        }
        std::fprintf(f, "], \"round_s\": [");
        for (std::size_t i = 0; i < runs[p].rounds.size(); ++i) {
          std::fprintf(f, "%s%s", i ? ", " : "", json_number(runs[p].rounds[i].run).c_str());
        }
        std::fprintf(f, "], \"ops_per_round\": %" PRIu64 "}", runs[p].rounds.front().ops);
      }
      std::fprintf(f, "}}\n");
      std::fclose(f);
    }
  }

  if (!spans_path.empty() && !log.spans().empty()) {
    if (FILE* f = std::fopen(spans_path.c_str(), "w")) {
      const std::vector<std::int64_t> self = log.self_ns();
      std::fprintf(f, "workload\tprotocol\tid\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
      for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const Span& s = log.spans()[i];
        std::fprintf(f, "%s\t%s\t%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRId64 "\n",
                     workload.c_str(), kProtoNames[s.proto], i, s.name, s.start_ns,
                     s.end_ns, s.parent, self[i]);
      }
      std::fclose(f);
    }
  }

  const bool correct = chk.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", chk.attempted(), chk.failed(),
              metrics_json(trace == 1 ? layers : e2e).c_str());
  return correct ? 0 : 1;
}
