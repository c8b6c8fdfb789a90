// MetricsRegistry: the single naming authority for every measurement the
// testbed exposes.
//
// Every counter and sampler is reachable under a hierarchical,
// dot-separated key ("link.c2s.bytes", "rpc.calls",
// "trace.component.media_us"), replacing the per-class getter sprawl the
// paper-table benches used to navigate.  Components own their metrics as
// plain members (link traffic counters, cache hit counters, Fleet totals,
// ...) and adopt them here by reference; the registry only names them and
// never owns storage, so every adopted metric must outlive the registry.
//
// A key names exactly one metric of exactly one kind for the lifetime of
// the registry; adopting a key twice (as either kind) is a NETSTORE_CHECK
// failure, not a silent aliasing bug.
//
// snapshot() renders the whole namespace into an ordered, value-only map;
// diff() subtracts two snapshots counter-wise.  Both are deterministic:
// iteration order is key order (std::map), never hash order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace netstore::obs {

/// Value of one metric at snapshot time.
struct MetricValue {
  enum class Kind { kCounter, kSampler };

  Kind kind = Kind::kCounter;
  // kCounter: the count.  kSampler: the number of samples.
  std::uint64_t count = 0;
  // kSampler only.
  sim::Sampler::Summary summary;
  // Always empty: no metric kind has buckets.  Kept because the
  // end-to-end benchmark driver (perfbench/) iterates it.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

class MetricsRegistry {
 public:
  using Snapshot = std::map<std::string, MetricValue>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void adopt_counter(const std::string& key, sim::Counter& c);
  void adopt_sampler(const std::string& key, sim::Sampler& s);

  /// True if `key` names a registered metric of any kind.
  [[nodiscard]] bool contains(const std::string& key) const {
    return metrics_.count(key) != 0;
  }
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

  /// Values of every metric, ordered by key.
  [[nodiscard]] Snapshot snapshot() const;

  /// Counter-wise difference `newer - older`: counters subtract; sampler
  /// values are taken from `newer` unchanged (samples are not
  /// invertible).  Keys present only in `newer` pass through; keys
  /// present only in `older` are dropped.
  [[nodiscard]] static Snapshot diff(const Snapshot& newer,
                                     const Snapshot& older);

  /// Resets every adopted metric.
  void reset();

 private:
  struct Metric {
    // Exactly one of these is non-null.
    sim::Counter* counter = nullptr;
    sim::Sampler* sampler = nullptr;
  };

  void adopt(const std::string& key, Metric m);

  std::map<std::string, Metric> metrics_;
};

}  // namespace netstore::obs
