#include "core/testbed.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"

namespace netstore::core {

/// The one vfs::Instrumentation the testbed installs: opens/closes a trace
/// span around every syscall and charges the per-call client CPU cost
/// (clock advance via Vfs::ScopedSyscall, CPU window + trace attribution
/// here).  The syscall kind is the span's obs::Op request class.
class Testbed::ClientInstr final : public vfs::Instrumentation {
 public:
  using CostFn =
      std::function<sim::Duration(sim::Time, obs::Op, std::uint32_t)>;

  ClientInstr(obs::Tracer& tracer, CostFn cost)
      : tracer_(tracer), cost_(std::move(cost)) {}

  sim::Duration syscall_cost(sim::Time at, obs::Op kind,
                             std::uint32_t bytes) override {
    const sim::Duration d = cost_(at, kind, bytes);
    tracer_.charge(obs::Component::kCpu, d);
    return d;
  }

  void syscall_enter(sim::Time at, obs::Op kind,
                     std::uint32_t /*bytes*/) override {
    spans_.push_back(tracer_.begin(kind, at));
  }

  void syscall_exit(sim::Time at, obs::Op /*kind*/) override {
    NETSTORE_CHECK(!spans_.empty(), "syscall_exit without matching enter");
    tracer_.end(spans_.back(), at);
    spans_.pop_back();
  }

 private:
  obs::Tracer& tracer_;
  CostFn cost_;
  std::vector<obs::SpanId> spans_;  // innermost last (syscalls may nest)
};

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2:
      return "NFS v2";
    case Protocol::kNfsV3:
      return "NFS v3";
    case Protocol::kNfsV4:
      return "NFS v4";
    case Protocol::kNfsV4Consistent:
      return "NFS v4 + consistent meta-data cache";
    case Protocol::kNfsV4Delegation:
      return "NFS v4 + directory delegation";
    case Protocol::kIscsi:
      return "iSCSI";
  }
  return "?";
}

Testbed::Testbed(Protocol protocol, TestbedConfig config)
    : protocol_(protocol),
      config_(config),
      server_cpu_(config.system.cpu_sample_period),
      client_cpu_(config.system.cpu_sample_period) {
  env_.set_audit(config_.system.invariant_audits);
  // Tracer first: components built below may cache env pointers.
  env_.set_tracer(&tracer_);
  link_ = std::make_unique<net::Link>(env_, config_.system.link);
  // Size the array to hold the requested volume.
  config_.system.raid.disk.block_count =
      config_.system.volume_blocks / (config_.system.raid.num_disks - 1) +
      config_.system.raid.stripe_unit_blocks;
  raid_ = std::make_unique<block::Raid5Array>(config_.system.raid);
  raid_->set_audit(config_.system.invariant_audits);

  if (protocol_ == Protocol::kIscsi) {
    build_iscsi();
  } else {
    build_nfs();
  }
  register_metrics();
}

Testbed::~Testbed() {
  if (config_.system.invariant_audits) {
    // Audited teardown: fire every deferred daemon event, then verify the
    // queue actually quiesced.
    env_.drain();
    env_.check_quiesced();
  }
}

void Testbed::quiesce() {
  // Fire every deferred daemon event, then wait out the asynchronous
  // writes those daemons issued (page flushes land in the initiator's
  // tagged queue / the client's write pool).  Waiting advances the clock,
  // which cannot schedule new events on an empty queue, but a daemon may
  // have re-armed while firing — loop until a full pass leaves the queue
  // empty.
  do {
    env_.drain();
    if (protocol_ == Protocol::kIscsi) {
      initiator_->flush();
    } else {
      nfs_client_->drain_pending_writes();
    }
  } while (env_.pending_events() > 0);
  if (config_.system.invariant_audits) {
    if (protocol_ == Protocol::kIscsi) {
      client_fs_->pages().check_index();
    } else {
      server_fs_->pages().check_index();
      nfs_client_->check_page_index();
    }
  }
}

Testbed::Testbed(const Testbed& src, ForkTag)
    : protocol_(src.protocol_),
      config_(src.config_),
      server_cpu_(src.server_cpu_),
      client_cpu_(src.client_cpu_) {
  // The quiescence contract: events hold callables that capture pointers
  // into the source world and cannot be rewired, so none may be pending.
  // The per-component clones CHECK the rest (no scheduled journal commit
  // or flusher tick, no in-flight asynchronous writes, no open spans).
  NETSTORE_CHECK_EQ(src.env_.pending_events(), std::size_t{0},
                    "fork() requires a quiesced testbed — call quiesce()");
  env_.clone_from(src.env_);
  env_.set_audit(config_.system.invariant_audits);
  env_.set_tracer(&tracer_);
  tracer_.clone_from(src.tracer_);

  link_ = src.link_->clone(env_);
  raid_ = src.raid_->clone();

  if (protocol_ == Protocol::kIscsi) {
    target_cache_ = src.target_cache_->clone(*raid_);
    target_cache_->set_tracer(&tracer_);
    target_ = src.target_->clone(*target_cache_);
    initiator_ = src.initiator_->clone(env_, *link_, *target_);
    install_iscsi_cost_hooks();
    client_fs_ = src.client_fs_->clone(env_, *initiator_);
    wire_local_vfs();
  } else {
    server_disk_ = std::make_unique<block::LocalBlockDevice>(env_, *raid_);
    server_disk_->clone_state_from(*src.server_disk_);
    server_fs_ = src.server_fs_->clone(env_, *server_disk_);
    nfs_server_ = src.nfs_server_->clone(env_, *server_fs_);
    install_nfs_cost_hooks();
    rpc_ = src.rpc_->clone(env_, *link_);
    nfs_client_ = src.nfs_client_->clone(env_, *rpc_, *nfs_server_);
    wire_nfs_vfs();
  }
  // Rebuilding the registry against the cloned components re-adopts every
  // counter at its carried-over value, so a forked snapshot equals the
  // source's.
  register_metrics();
}

std::unique_ptr<Testbed> Testbed::fork() const {
  return std::unique_ptr<Testbed>(new Testbed(*this, ForkTag{}));
}

fs::Ext3Params Testbed::client_fs_params(const TestbedConfig& c) {
  fs::Ext3Params p;
  p.bcache_capacity_blocks = c.system.client_metadata_blocks;
  p.page_cache.capacity_pages = c.system.client_cache_pages;
  p.page_cache.dirty_high_water = c.system.client_cache_pages / 4;
  p.commit_interval = c.system.commit_interval;
  p.readahead_max = c.system.fs_readahead_max;
  if (p.readahead_max == 0) p.readahead_min = 0;
  p.invariant_audits = c.system.invariant_audits;
  return p;
}

void Testbed::install_iscsi_cost_hooks() {
  target_->set_cost_hook(
      [this](sim::Time at, bool is_write, std::uint32_t nblocks) {
        const sim::Duration d =
            config_.system.cpu.server_layer * config_.system.cpu.iscsi_layers +
            (is_write ? config_.system.cpu.server_per_page_write
                      : config_.system.cpu.server_per_page_read) *
                nblocks;
        server_cpu_.charge(at, d);
        tracer_.charge(obs::Component::kCpu, d);
        return d;
      });
  initiator_->set_cost_hook([this](sim::Time at, bool, std::uint32_t) {
    const sim::Duration d = config_.system.cpu.client_per_command;
    client_cpu_.charge(at, d);
    tracer_.charge(obs::Component::kCpu, d);
    return d;
  });
}

void Testbed::wire_local_vfs() {
  auto local = std::make_unique<vfs::LocalVfs>(env_, *client_fs_);
  instr_ = std::make_unique<ClientInstr>(
      tracer_, [this](sim::Time at, obs::Op, std::uint32_t bytes) {
        const sim::Duration d =
            config_.system.cpu.client_fs_syscall +
            config_.system.cpu.client_per_page *
                ((bytes + block::kBlockSize - 1) / block::kBlockSize);
        client_cpu_.charge(at, d);
        return d;
      });
  local->set_instrumentation(instr_.get());
  vfs_ = std::move(local);
}

void Testbed::build_iscsi() {
  target_cache_ = std::make_unique<block::TimedCache>(
      *raid_, config_.system.target_cache_blocks, config_.system.target_cache_blocks / 2);
  target_cache_->set_tracer(&tracer_);
  target_ = std::make_unique<iscsi::Target>(*target_cache_,
                                            config_.system.volume_blocks);
  initiator_ =
      std::make_unique<iscsi::Initiator>(env_, *link_, *target_, config_.system.iscsi);
  install_iscsi_cost_hooks();
  initiator_->login();

  fs::MkfsOptions mkfs;
  mkfs.journal_blocks = config_.system.journal_blocks;
  fs::Ext3Fs::mkfs(*initiator_, mkfs);

  client_fs_ =
      std::make_unique<fs::Ext3Fs>(env_, *initiator_, client_fs_params(config_));
  client_fs_->mount();

  wire_local_vfs();
}

nfs::ClientConfig Testbed::nfs_client_config() const {
  nfs::ClientConfig c;
  switch (protocol_) {
    case Protocol::kNfsV2:
      c.version = nfs::Version::kV2;
      break;
    case Protocol::kNfsV3:
      c.version = nfs::Version::kV3;
      break;
    case Protocol::kNfsV4:
      c.version = nfs::Version::kV4;
      break;
    case Protocol::kNfsV4Consistent:
      c.version = nfs::Version::kV4;
      c.consistent_metadata_cache = true;
      c.v4_read_delegation = true;
      break;
    case Protocol::kNfsV4Delegation:
      c.version = nfs::Version::kV4;
      c.consistent_metadata_cache = true;
      c.v4_read_delegation = true;
      c.directory_delegation = true;
      break;
    default:
      throw std::logic_error("not an NFS protocol");
  }
  c.page_cache_capacity = config_.system.client_cache_pages;
  c.write_pool_slots = config_.system.nfs_write_pool_slots;
  return c;
}

void Testbed::install_nfs_cost_hooks() {
  nfs_server_->set_cost_hook(
      [this](sim::Time at, nfs::Proc proc, std::uint32_t bytes) {
        std::uint32_t layers = config_.system.cpu.nfs_layers;
        // Meta-data requests that miss the server cache traverse the
        // VFS/FS/block layers repeatedly (paper §5.4).
        const bool is_meta = proc != nfs::Proc::kRead &&
                             proc != nfs::Proc::kWrite &&
                             proc != nfs::Proc::kCommit;
        if (is_meta) layers += config_.system.cpu.nfs_meta_miss_layers / 2;
        sim::Duration d = config_.system.cpu.server_layer * layers;
        if (!is_meta) {
          const sim::Duration per_page =
              proc == nfs::Proc::kWrite ? config_.system.cpu.server_per_page_write
                                        : config_.system.cpu.server_per_page_read;
          d += per_page *
               ((bytes + block::kBlockSize - 1) / block::kBlockSize);
        }
        server_cpu_.charge(at, d);
        tracer_.charge(obs::Component::kCpu, d);
        return d;
      });
}

void Testbed::wire_nfs_vfs() {
  auto v = std::make_unique<vfs::NfsVfs>(env_, *nfs_client_);
  instr_ = std::make_unique<ClientInstr>(
      tracer_, [this](sim::Time at, obs::Op, std::uint32_t bytes) {
        const sim::Duration d =
            config_.system.cpu.client_nfs_syscall +
            config_.system.cpu.client_per_page *
                ((bytes + block::kBlockSize - 1) / block::kBlockSize) / 2;
        client_cpu_.charge(at, d);
        return d;
      });
  v->set_instrumentation(instr_.get());
  vfs_ = std::move(v);
}

void Testbed::build_nfs() {
  server_disk_ = std::make_unique<block::LocalBlockDevice>(env_, *raid_);

  fs::MkfsOptions mkfs;
  mkfs.journal_blocks = config_.system.journal_blocks;
  fs::Ext3Fs::mkfs(*server_disk_, mkfs);

  fs::Ext3Params p;
  p.bcache_capacity_blocks = config_.system.server_metadata_blocks;
  p.page_cache.capacity_pages = config_.system.server_cache_pages;
  p.page_cache.dirty_high_water = config_.system.server_cache_pages / 4;
  p.commit_interval = config_.system.commit_interval;
  p.invariant_audits = config_.system.invariant_audits;
  server_fs_ = std::make_unique<fs::Ext3Fs>(env_, *server_disk_, p);
  server_fs_->mount();

  nfs::ServerConfig sc;
  sc.sync_data = protocol_ == Protocol::kNfsV2;
  nfs_server_ = std::make_unique<nfs::NfsServer>(env_, *server_fs_, sc);
  install_nfs_cost_hooks();

  rpc_ = std::make_unique<rpc::RpcTransport>(env_, *link_, config_.system.rpc);
  nfs_client_ = std::make_unique<nfs::NfsClient>(env_, *rpc_, *nfs_server_,
                                                 nfs_client_config());
  nfs_client_->mount();

  wire_nfs_vfs();
}

namespace {

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

}  // namespace

StatsSnapshot Testbed::snapshot() const {
  StatsSnapshot s;
  s.now = env_.now();

  const net::TrafficStats& c2s =
      link_->stats(net::Direction::kClientToServer);
  const net::TrafficStats& s2c =
      link_->stats(net::Direction::kServerToClient);
  s.c2s_messages = c2s.messages.value();
  s.c2s_bytes = c2s.bytes.value();
  s.s2c_messages = s2c.messages.value();
  s.s2c_bytes = s2c.bytes.value();
  s.raw_messages = s.c2s_messages + s.s2c_messages;
  s.bytes = s.c2s_bytes + s.s2c_bytes;

  if (protocol_ == Protocol::kIscsi) {
    s.messages = initiator_->exchanges();
    s.retransmissions = 0;
    s.client_cache_hit_ratio =
        hit_ratio(client_fs_->pages().stats().hits.value(),
                  client_fs_->pages().stats().misses.value());
    s.server_cache_hit_ratio = hit_ratio(target_cache_->hits().value(),
                                         target_cache_->misses().value());
  } else {
    s.messages = rpc_->stats().calls.value();
    s.retransmissions = rpc_->stats().retransmissions.value();
    s.server_cache_hit_ratio =
        hit_ratio(server_fs_->pages().stats().hits.value(),
                  server_fs_->pages().stats().misses.value());
  }

  s.server_cpu_busy = server_cpu_.total_busy();
  s.client_cpu_busy = client_cpu_.total_busy();
  return s;
}

void Testbed::register_metrics() {
  // Engine scheduling telemetry (DESIGN.md §18).  cascades counts the
  // wheel's overflow-bucket refiling work, so it tracks how far ahead
  // events are scheduled, not how many there are.
  sim::TimerStats& ts = env_.mutable_timer_stats();
  metrics_.adopt_counter("sim.timer.scheduled", ts.scheduled);
  metrics_.adopt_counter("sim.timer.fired", ts.fired);
  metrics_.adopt_counter("sim.timer.cascades", ts.cascades);

  metrics_.adopt_counter(
      "link.c2s.messages",
      link_->mutable_stats(net::Direction::kClientToServer).messages);
  metrics_.adopt_counter(
      "link.c2s.bytes",
      link_->mutable_stats(net::Direction::kClientToServer).bytes);
  metrics_.adopt_counter(
      "link.s2c.messages",
      link_->mutable_stats(net::Direction::kServerToClient).messages);
  metrics_.adopt_counter(
      "link.s2c.bytes",
      link_->mutable_stats(net::Direction::kServerToClient).bytes);

  if (protocol_ == Protocol::kIscsi) {
    metrics_.adopt_counter("iscsi.initiator.exchanges",
                           initiator_->exchanges_counter());
    metrics_.adopt_counter("iscsi.initiator.write_commands",
                           initiator_->write_commands_counter());
    metrics_.adopt_counter("iscsi.initiator.write_bytes",
                           initiator_->write_bytes_counter());
    metrics_.adopt_counter("iscsi.target.cache.hits",
                           target_cache_->hits_counter());
    metrics_.adopt_counter("iscsi.target.cache.misses",
                           target_cache_->misses_counter());
  } else {
    rpc::RpcStats& rs = rpc_->mutable_stats();
    metrics_.adopt_counter("rpc.calls", rs.calls);
    metrics_.adopt_counter("rpc.retransmissions", rs.retransmissions);
    nfs::ClientStats& cs = nfs_client_->mutable_stats();
    metrics_.adopt_counter("nfs.client.lookups", cs.lookups);
    metrics_.adopt_counter("nfs.client.revalidations", cs.revalidations);
    metrics_.adopt_counter("nfs.client.batched_ops", cs.batched_ops);
    metrics_.adopt_counter("nfs.client.batch_flushes", cs.batch_flushes);
    metrics_.adopt_counter("nfs.server.requests",
                           nfs_server_->requests_counter());
  }

  metrics_.adopt_sampler("trace.total_us", tracer_.total_us());
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    const auto c = static_cast<obs::Component>(i);
    metrics_.adopt_sampler(
        std::string("trace.component.") + obs::to_string(c) + "_us",
        tracer_.component_us(c));
  }
  for (std::size_t i = 0; i < obs::kOpCount; ++i) {
    const auto op = static_cast<obs::Op>(i);
    metrics_.adopt_sampler(
        std::string("trace.op.") + obs::to_string(op) + "_us",
        tracer_.op_total_us(op));
  }
}

void Testbed::reset_counters() {
  env_.mutable_timer_stats().reset();
  link_->reset_stats();
  if (protocol_ == Protocol::kIscsi) {
    initiator_->reset_stats();
  } else {
    rpc_->reset_stats();
  }
  server_cpu_.begin_window(env_.now());
  client_cpu_.begin_window(env_.now());
  // A fresh measurement phase also starts from a clean span history, so
  // Table 4's latency breakdown covers only the measured requests.
  tracer_.reset();
}

void Testbed::cold_caches() {
  if (protocol_ == Protocol::kIscsi) {
    client_fs_->unmount();
    target_->restart();
    client_fs_->mount();
  } else {
    nfs_client_->unmount();
    // Server restart: quiesce, drop every server-side cache.
    server_fs_->unmount();
    server_fs_->mount();
    nfs_client_->mount();
  }
}

void Testbed::settle(sim::Duration d) { env_.advance(d); }

void Testbed::crash_client() {
  if (protocol_ == Protocol::kIscsi) {
    client_fs_->crash();
  } else {
    nfs_client_->invalidate_caches();
  }
}

fs::Ext3Fs& Testbed::client_fs() {
  NETSTORE_CHECK(client_fs_, "no local fs on an NFS testbed");
  return *client_fs_;
}

fs::Ext3Fs& Testbed::server_fs() {
  NETSTORE_CHECK(server_fs_, "no server fs on an iSCSI testbed");
  return *server_fs_;
}

nfs::NfsClient& Testbed::nfs_client() {
  NETSTORE_CHECK(nfs_client_, "no NFS client on an iSCSI testbed");
  return *nfs_client_;
}

iscsi::Initiator& Testbed::initiator() {
  NETSTORE_CHECK(initiator_, "no initiator on an NFS testbed");
  return *initiator_;
}

iscsi::Target& Testbed::target() {
  NETSTORE_CHECK(target_, "no target on an NFS testbed");
  return *target_;
}

}  // namespace netstore::core
