#include "sim/stats.h"

#include <cmath>
#include <numeric>

#include "core/check.h"

namespace netstore::sim {

double Sampler::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Sampler::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Sampler::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Sampler::percentile(double p) const {
  NETSTORE_CHECK(!std::isnan(p), "Sampler::percentile: p is NaN");
  p = std::clamp(p, 0.0, 100.0);
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
}

Sampler::Summary Sampler::summary() const {
  Summary s;
  s.count = count();
  if (s.count == 0) return s;
  // The first percentile call (re)builds the sorted cache; min and max
  // then fall out of its ends for free instead of two more O(n) scans of
  // the unsorted samples (the values are identical — the cache is an
  // exact copy).
  s.p50 = percentile(50);
  s.min = sorted_.front();
  s.max = sorted_.back();
  s.mean = mean();
  s.p95 = percentile(95);
  s.p99 = percentile(99);
  s.p999 = percentile(99.9);
  return s;
}

}  // namespace netstore::sim
