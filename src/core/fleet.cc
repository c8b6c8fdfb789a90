#include "core/fleet.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace netstore::core {

namespace {

double to_us(sim::Duration d) { return static_cast<double>(d) / 1000.0; }

}  // namespace

Fleet::Fleet(std::unique_ptr<Testbed> world, WorkloadConfig workload)
    : Fleet(
          [&] {
            std::vector<std::unique_ptr<Testbed>> v;
            v.push_back(std::move(world));
            return v;
          }(),
          [&] {
            NETSTORE_CHECK(workload.shards <= 1,
                           "a sharded workload needs one world per shard — "
                           "use the vector constructor / Checkpoint::fleet");
            workload.shards = 1;
            return workload;
          }()) {}

Fleet::Fleet(std::vector<std::unique_ptr<Testbed>> worlds,
             WorkloadConfig workload)
    : workload_(workload),
      zipf_(std::max<std::uint32_t>(workload_.shared_objects, 1),
            workload_.zipf_theta) {
  NETSTORE_CHECK(!worlds.empty(), "Fleet needs a world to drive");
  NETSTORE_CHECK(workload_.shards == worlds.size(),
                 "workload.shards must match the shard world count");
  NETSTORE_CHECK_GE(workload_.clients, std::uint64_t{1},
                    "a fleet needs at least one client");
  NETSTORE_CHECK_GE(workload_.shared_objects, 1u,
                    "shared hot set cannot be empty");
  NETSTORE_CHECK_GT(workload_.arrival.ops_per_client_per_s, 0.0,
                    "arrival rate must be positive");

  for (const std::unique_ptr<Testbed>& w : worlds) {
    NETSTORE_CHECK(w != nullptr, "Fleet needs a world to drive");
    NETSTORE_CHECK(w->protocol() == worlds[0]->protocol(),
                   "all shard worlds must run the same protocol");
  }
  shards_.resize(worlds.size());
  for (std::size_t s = 0; s < worlds.size(); ++s) {
    shards_[s].world = std::move(worlds[s]);
    shards_[s].world->set_shard_index(static_cast<std::uint32_t>(s));
  }

  obs::MetricsRegistry& m = world().metrics();
  m.adopt_counter("fleet.ops", ops_);
  m.adopt_counter("fleet.shared_ops", shared_ops_);
  m.adopt_counter("fleet.forced_revalidations", forced_revals_);
  m.adopt_sampler("fleet.response_us", response_us_);
  m.adopt_sampler("fleet.queue_delay_us", queue_delay_us_);
  m.adopt_sampler("fleet.service_us", service_us_);
  m.adopt_sampler("fleet.client_mean_us", client_mean_us_);
  if (shards_.size() > 1) {
    // Shard-tagged telemetry, registered only for sharded fleets so a
    // shards=1 report stays byte-identical to the sequential engine's.
    m.adopt_counter("fleet.epochs", epochs_ctr_);
    m.adopt_counter("fleet.xshard_messages", xshard_msgs_ctr_);
    shard_ops_ctrs_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      m.adopt_counter("fleet.shard" + std::to_string(s) + ".ops",
                      shard_ops_ctrs_[s]);
    }
  }
}

Fleet::~Fleet() = default;

std::string Fleet::shared_path(std::uint64_t obj) const {
  return "/fleet_shared/o" + std::to_string(obj);
}

std::string Fleet::private_path(std::uint64_t client,
                                std::uint32_t file) const {
  return "/fleet_priv/c" + std::to_string(client) + "_f" +
         std::to_string(file);
}

void Fleet::setup() {
  NETSTORE_CHECK(!setup_done_, "Fleet::setup() already ran");
  setup_done_ = true;

  // Every shard world receives the identical setup history, so all
  // reactors start from byte-identical state at the same virtual time.
  for (Shard& sh : shards_) {
    vfs::Vfs& v = sh.world->vfs();
    NETSTORE_CHECK(v.mkdir("/fleet_shared", 0755).ok(),
                   "fleet shared dir exists — reuse of a fleet world?");
    NETSTORE_CHECK(v.mkdir("/fleet_priv", 0755).ok());
    for (std::uint32_t d = 0; d < workload_.shared_objects; ++d) {
      auto fd = v.creat(shared_path(d), 0644);
      NETSTORE_CHECK(fd.ok(), "creating the shared hot set failed");
      NETSTORE_CHECK(v.close(*fd).ok());
    }
    // Let the setup's deferred traffic (journal commits, write-back)
    // land, then measure only the steady phase.
    sh.world->settle(sim::seconds(15));
    sh.world->reset_counters();
  }
  const sim::Time start = shards_[0].world->env().now();
  for (const Shard& sh : shards_) {
    NETSTORE_CHECK(sh.world->env().now() == start,
                   "shard worlds diverged during setup — not forks of one "
                   "image?");
  }

  // Flyweight client state: ~64 B each, so 1M clients fit in tens of MB.
  // Rng streams are decorrelated by full-avalanche mixing of (seed,
  // global id) — shard placement never changes a client's stream.
  const auto S = static_cast<std::uint64_t>(shards_.size());
  for (std::uint64_t s = 0; s < S; ++s) {
    shards_[s].clients.resize((workload_.clients - s + S - 1) / S);
  }
  for (std::uint64_t g = 0; g < workload_.clients; ++g) {
    Shard& sh = shards_[g % S];
    Client& cl = sh.clients[g / S];
    cl.rng.reseed(sim::mix64(workload_.seed ^ sim::mix64(g + 1)));
    sh.arrivals.push(start + think(cl), g, {});
  }

  if (world().is_nfs()) {
    // Per-(client, object) validation times: the flat matrix is the
    // whole per-client coherence state — 8 B per pair, bounded by the
    // hot-set size, never by the namespace.
    for (Shard& sh : shards_) {
      sh.validated.assign(sh.clients.size() * workload_.shared_objects, -1);
      sh.last_write.assign(workload_.shared_objects, -1);
    }
  }
}

sim::Duration Fleet::think(Client& cl) {
  const double mean_s = 1.0 / workload_.arrival.ops_per_client_per_s;
  const double s =
      workload_.arrival.think_time == ThinkTimeDist::kExponential
          ? cl.rng.exponential(mean_s)
          : cl.rng.pareto_with_mean(workload_.arrival.pareto_shape, mean_s);
  return std::max<sim::Duration>(1, std::llround(s * 1e9));
}

void Fleet::force_revalidation_if_stale(Shard& sh, std::uint64_t local_client,
                                        std::uint64_t obj,
                                        const std::string& path) {
  sim::Time& seen = sh.validated[local_client * workload_.shared_objects + obj];
  const sim::Time now = sh.world->env().now();
  const sim::Duration window = sh.world->nfs_client().config().attr_timeout;
  const bool stale =
      seen < 0 || seen < sh.last_write[obj] || now - seen >= window;
  if (stale && sh.world->nfs_client().expire_path_attrs(path)) {
    sh.forced_revals++;
  }
}

void Fleet::do_op(Shard& sh, std::uint64_t client, Client& cl) {
  vfs::Vfs& v = sh.world->vfs();
  sim::Env& env = sh.world->env();
  const sim::Time now = env.now();
  const auto S = static_cast<std::uint64_t>(shards_.size());

  if (cl.rng.chance(workload_.sharing_ratio)) {
    sh.shared_ops++;
    const std::uint64_t obj = zipf_.sample(cl.rng);
    const std::string path = shared_path(obj);
    const bool write = cl.rng.chance(workload_.shared_write_fraction);
    if (sh.world->is_nfs()) {
      force_revalidation_if_stale(sh, client / S, obj, path);
    }
    if (write) {
      (void)v.utime(path, now, now);
      if (!sh.last_write.empty()) {
        const sim::Time t = env.now();
        sh.last_write[obj] = t;
        // Cross-shard visibility: another core's client can first
        // observe this write's mtime one round trip later.  The posted
        // task runs on the destination reactor, touching only its
        // shard-local coherence view.
        if (senv_ != nullptr && shards_.size() > 1) {
          const auto src = sh.world->shard_index();
          for (std::uint32_t o = 0; o < shards_.size(); ++o) {
            if (o == src) continue;
            Shard* dst = &shards_[o];
            senv_->post(src, o, t + lookahead_, [dst, obj, t] {
              sim::Time& lw = dst->last_write[obj];
              if (lw < t) lw = t;
            });
          }
        }
      }
    } else {
      (void)v.stat(path);
    }
    if (sh.world->is_nfs()) {
      sh.validated[(client / S) * workload_.shared_objects + obj] = env.now();
    }
    return;
  }

  // Private working set, grown lazily: the first touch creates the file
  // (creat IS the operation), later writes alternate between extending
  // the set and touching an existing member.
  if (cl.rng.chance(workload_.private_write_fraction) ||
      cl.private_files == 0) {
    if (cl.private_files == 0 || cl.rng.chance(0.5)) {
      auto fd = v.creat(private_path(client, cl.private_files), 0644);
      if (fd.ok()) {
        (void)v.close(*fd);
        cl.private_files++;
      }
    } else {
      (void)v.utime(private_path(client, cl.rng.uniform(cl.private_files)),
                    now, now);
    }
  } else {
    (void)v.stat(private_path(client, cl.rng.uniform(cl.private_files)));
  }
}

sim::Time Fleet::drive_shard(std::uint32_t s, sim::Time horizon) {
  Shard& sh = shards_[s];
  sim::Env& env = sh.world->env();
  obs::Tracer& tracer = sh.world->tracer();
  const auto S = static_cast<std::uint64_t>(shards_.size());

  // next_at() is exact without cascading; gating the loop on it means an
  // epoch that stops short of the next arrival leaves the wheel untouched
  // instead of redistributing its future buckets on every horizon probe.
  while (sh.done < sh.budget && !sh.arrivals.empty() &&
         sh.arrivals.next_at() <= horizon) {
    const ArrivalQueue::Entry head = sh.arrivals.pop();
    const sim::Time arrival = head.at;
    const std::uint64_t g = head.key;
    Client& cl = sh.clients[g / S];

    // Open-loop queueing: an arrival in the future means this reactor is
    // idle (advance to it); one in the past has been waiting in queue.
    sim::Duration queue_delay = 0;
    if (env.now() < arrival) {
      env.advance_to(arrival);
    } else {
      queue_delay = env.now() - arrival;
    }

    tracer.set_client_context(static_cast<std::uint32_t>(g));
    const sim::Time t0 = env.now();
    do_op(sh, g, cl);
    const sim::Duration service = env.now() - t0;
    const sim::Duration response = queue_delay + service;

    sh.ops++;
    sh.done++;
    sh.response_us.record(to_us(response));
    sh.queue_delay_us.record(to_us(queue_delay));
    sh.service_us.record(to_us(service));
    cl.ops++;
    cl.sum_response_us += to_us(response);

    // Renewal on the *arrival* time, not completion: offered load is
    // independent of how slow the server was.
    sh.arrivals.push(arrival + think(cl), g, {});
  }

  if (sh.done >= sh.budget || sh.arrivals.empty()) {
    return sim::ShardedEnv::kIdle;
  }
  // next_at() is exact (cached bucket minima), which the epoch-horizon
  // skipping contract requires (sharded_env.h).
  return sh.arrivals.next_at();
}

void Fleet::assign_budgets() {
  // The op budget is shared by the shards that actually have clients
  // (a shard count above the client count leaves trailing reactors
  // idle); remainders go to the lowest-numbered active shards.
  std::uint64_t active = 0;
  for (const Shard& sh : shards_) active += sh.clients.empty() ? 0 : 1;
  NETSTORE_CHECK_GE(active, std::uint64_t{1}, "fleet has no clients");
  std::uint64_t rank = 0;
  for (Shard& sh : shards_) {
    sh.done = 0;
    if (sh.clients.empty()) {
      sh.budget = 0;
      continue;
    }
    sh.budget = workload_.ops / active + (rank < workload_.ops % active);
    rank++;
  }
}

void Fleet::fold_stats() {
  std::uint64_t ops = 0, shared = 0, revals = 0;
  for (const Shard& sh : shards_) {
    ops += sh.ops;
    shared += sh.shared_ops;
    revals += sh.forced_revals;
  }
  ops_.add(ops);
  shared_ops_.add(shared);
  forced_revals_.add(revals);
  for (Shard& sh : shards_) {
    response_us_.merge(sh.response_us);
    queue_delay_us_.merge(sh.queue_delay_us);
    service_us_.merge(sh.service_us);
    sh.response_us.reset();
    sh.queue_delay_us.reset();
    sh.service_us.reset();
    sh.ops = 0;
    sh.shared_ops = 0;
    sh.forced_revals = 0;
  }
  epochs_ctr_.add(epochs_run_);
  xshard_msgs_ctr_.add(xshard_msgs_run_);
  for (std::size_t s = 0; s < shard_ops_ctrs_.size(); ++s) {
    shard_ops_ctrs_[s].add(shards_[s].done);
  }

  // Fairness digest: each active client's mean response, in global id
  // order (identical to the sequential engine's iteration).
  const auto S = static_cast<std::uint64_t>(shards_.size());
  client_mean_us_.reset();
  for (std::uint64_t g = 0; g < workload_.clients; ++g) {
    const Client& cl = shards_[g % S].clients[g / S];
    if (cl.ops > 0) {
      client_mean_us_.record(cl.sum_response_us /
                             static_cast<double>(cl.ops));
    }
  }
}

void Fleet::run(DriveMode mode) {
  if (!setup_done_) setup();
  if (mode == DriveMode::kAuto) {
    mode = shards_.size() == 1 ? DriveMode::kSequential : DriveMode::kSharded;
  }
  assign_budgets();

  if (mode == DriveMode::kSequential) {
    NETSTORE_CHECK(shards_.size() == 1,
                   "sequential drive requires exactly one shard world");
    // The classic single-reactor loop is one epoch with an infinite
    // horizon: every arrival is due, the budget is the only bound.
    const sim::Time next = drive_shard(0, sim::Env::kNoEvent);
    NETSTORE_CHECK(next == sim::ShardedEnv::kIdle,
                   "sequential drive ended with budget remaining");
  } else {
    lookahead_ = shards_[0].world->link().min_rtt();
    std::vector<sim::Env*> envs;
    envs.reserve(shards_.size());
    for (Shard& sh : shards_) envs.push_back(&sh.world->env());
    sim::ShardedEnv senv(std::move(envs), lookahead_);
    senv_ = &senv;
    senv.run_epochs([this](std::uint32_t s, sim::Time horizon) {
      return drive_shard(s, horizon);
    });
    senv_ = nullptr;
    epochs_run_ = senv.epochs();
    xshard_msgs_run_ = senv.messages_posted();
  }

  for (Shard& sh : shards_) sh.world->tracer().set_client_context(0);
  fold_stats();
}

std::uint64_t Fleet::ops_completed() const { return ops_.value(); }
std::uint64_t Fleet::shared_ops() const { return shared_ops_.value(); }
std::uint64_t Fleet::forced_revalidations() const {
  return forced_revals_.value();
}
std::uint64_t Fleet::epochs() const { return epochs_run_; }
std::uint64_t Fleet::cross_shard_messages() const { return xshard_msgs_run_; }

std::uint64_t Fleet::active_clients() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) {
    for (const Client& cl : sh.clients) n += cl.ops > 0;
  }
  return n;
}

double Fleet::jain_fairness_index() const {
  const auto S = static_cast<std::uint64_t>(shards_.size());
  double sum = 0, sum_sq = 0;
  std::uint64_t n = 0;
  for (std::uint64_t g = 0; g < workload_.clients; ++g) {
    const Client& cl = shards_[g % S].clients[g / S];
    if (cl.ops == 0) continue;
    const double x = cl.sum_response_us / static_cast<double>(cl.ops);
    sum += x;
    sum_sq += x * x;
    n++;
  }
  if (n == 0 || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

}  // namespace netstore::core
