// Lightweight measurement primitives shared by every module.
//
// Counters accumulate event counts (messages, bytes, cache hits);
// Samplers collect scalar observations for percentile reporting
// (e.g. the paper's "95th percentile of vmstat CPU utilization").
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace netstore::sim {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void reset() { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Collects scalar samples; answers mean / min / max / percentile queries.
class Sampler {
 public:
  /// One-struct digest of the distribution, so reporting code makes one
  /// call instead of five.  All fields are 0 for an empty sampler.
  struct Summary {
    std::size_t count = 0;
    double mean = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;
  };

  void record(double v) {
    samples_.push_back(v);
    sorted_valid_ = false;
  }

  /// Appends every sample of `other`, preserving its recording order —
  /// the shard-local → global folding step of a sharded drive (DESIGN.md
  /// §17): merging shard samplers in shard order yields the same sample
  /// sequence a sequential run would have recorded per shard.  One bulk
  /// insert, one sort-cache invalidation — the next percentile()/
  /// summary() re-sorts once, not per merged sample.
  void merge(const Sampler& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_valid_ = false;
  }

  void reset() {
    samples_.clear();
    sorted_.clear();
    sorted_valid_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Interpolated percentile.  `p` must not be NaN (NETSTORE_CHECK) and is
  /// clamped to [0, 100].  Returns 0 when empty.  The sorted order is
  /// cached between record()s, so percentile sweeps are O(n log n) once
  /// rather than per call.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] Summary summary() const;

 private:
  std::vector<double> samples_;
  // Cached ascending copy of samples_, rebuilt lazily after a record().
  // netstore: shard_local -- every Sampler is owned by one world; the
  // sharding PR keeps worlds reactor-private, so the const-surface cache
  // rebuild never races
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;  // netstore: shard_local -- see sorted_
};

}  // namespace netstore::sim
