#include "obs/metrics.h"

#include "core/check.h"

namespace netstore::obs {

void MetricsRegistry::adopt(const std::string& key, Metric m) {
  NETSTORE_CHECK(!key.empty(), "metric key must not be empty");
  NETSTORE_CHECK(metrics_.emplace(key, m).second,
                 ("duplicate metric key: " + key).c_str());
}

void MetricsRegistry::adopt_counter(const std::string& key, sim::Counter& c) {
  adopt(key, Metric{&c, nullptr});
}

void MetricsRegistry::adopt_sampler(const std::string& key, sim::Sampler& s) {
  adopt(key, Metric{nullptr, &s});
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& [key, m] : metrics_) {
    MetricValue v;
    if (m.counter != nullptr) {
      v.count = m.counter->value();
    } else {
      v.kind = MetricValue::Kind::kSampler;
      v.count = m.sampler->count();
      v.summary = m.sampler->summary();
    }
    out.emplace(key, std::move(v));
  }
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::diff(const Snapshot& newer,
                                                const Snapshot& older) {
  Snapshot out;
  for (const auto& [key, nv] : newer) {
    MetricValue v = nv;
    const auto it = older.find(key);
    if (it != older.end()) {
      NETSTORE_CHECK(it->second.kind == nv.kind,
                     "snapshot diff: metric kind changed between snapshots");
      // Samples are not invertible; a sampler keeps the newer summary.
      if (nv.kind == MetricValue::Kind::kCounter) {
        NETSTORE_CHECK_GE(nv.count, it->second.count,
                          "snapshot diff: counter went backwards");
        v.count = nv.count - it->second.count;
      }
    }
    out.emplace(key, std::move(v));
  }
  return out;
}

void MetricsRegistry::reset() {
  for (auto& [key, m] : metrics_) {
    if (m.counter != nullptr) {
      m.counter->reset();
    } else {
      m.sampler->reset();
    }
  }
}

}  // namespace netstore::obs
