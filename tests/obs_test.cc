// Unit tests for the observability layer: MetricsRegistry naming and
// snapshot/diff semantics, Tracer span accounting (nesting, suspension,
// the derived protocol residual and its over-attribution clamp), and the
// deterministic Report renderer.  Ends with the acceptance check from the
// paper-reproduction side: a real Table-4-style run whose per-request
// component breakdown sums to the measured total.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "workloads/large_io.h"

namespace netstore {
namespace {

using obs::Component;
using obs::MetricsRegistry;
using obs::MetricValue;
using obs::Op;
using obs::Report;
using obs::Tracer;

// --- MetricsRegistry --------------------------------------------------

TEST(MetricsRegistry, ReAdoptingAKeyIsFatal) {
  MetricsRegistry reg;
  sim::Counter c1;
  sim::Counter c2;
  reg.adopt_counter("dup", c1);
  EXPECT_TRUE(reg.contains("dup"));
  EXPECT_FALSE(reg.contains("du"));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DEATH(reg.adopt_counter("dup", c2), "");
}

TEST(MetricsRegistry, KeyKindMismatchIsFatal) {
  MetricsRegistry reg;
  sim::Counter c;
  sim::Sampler s;
  reg.adopt_counter("k", c);
  // A key names one metric of one kind: a sampler cannot take it.
  EXPECT_DEATH(reg.adopt_sampler("k", s), "");
}

TEST(MetricsRegistry, AdoptedCountersShareStorageWithTheComponent) {
  MetricsRegistry reg;
  sim::Counter owned_by_component;
  reg.adopt_counter("link.msgs", owned_by_component);
  owned_by_component.add(7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.count("link.msgs"), 1u);
  EXPECT_EQ(snap.at("link.msgs").count, 7u);
  reg.reset();
  EXPECT_EQ(owned_by_component.value(), 0u);  // reset reaches the component
}

TEST(MetricsRegistry, SnapshotDiffSubtractsCountersAndKeepsNewerSamplers) {
  MetricsRegistry reg;
  sim::Counter c;
  sim::Sampler smp;
  sim::Counter new_only;
  reg.adopt_counter("c", c);
  reg.adopt_sampler("s", smp);
  c.add(10);
  smp.record(1.0);
  const auto older = reg.snapshot();

  c.add(5);
  smp.record(3.0);
  reg.adopt_counter("new_only", new_only);
  new_only.add(2);
  const auto newer = reg.snapshot();

  const auto d = MetricsRegistry::diff(newer, older);
  EXPECT_EQ(d.at("c").count, 5u);
  EXPECT_EQ(d.at("new_only").count, 2u);
  // Samplers are not invertible: diff carries the newer summary verbatim.
  EXPECT_EQ(d.at("s").summary.count, 2u);
  EXPECT_DOUBLE_EQ(d.at("s").summary.max, 3.0);
}

// --- Sampler merge (shard folding, DESIGN.md §17) ---------------------


// Merging shard-local samplers in shard order must reproduce exactly the
// sample sequence and digest a sequential run recording the same values
// in the same order would have produced.
TEST(SamplerMerge, EqualsSequentialRecordingInShardOrder) {
  sim::Sampler sequential;
  sim::Sampler shard0, shard1;
  for (const double v : {5.0, 1.0, 9.0}) {
    sequential.record(v);
    shard0.record(v);
  }
  for (const double v : {2.0, 7.0, 7.0, 3.0}) {
    sequential.record(v);
    shard1.record(v);
  }

  sim::Sampler merged;
  merged.merge(shard0);
  merged.merge(shard1);

  EXPECT_EQ(merged.count(), sequential.count());
  const sim::Sampler::Summary a = merged.summary();
  const sim::Sampler::Summary b = sequential.summary();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);  // bit-exact: identical summation order
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(SamplerMerge, EmptyMergesAreNoOpsInBothDirections) {
  sim::Sampler empty;
  sim::Sampler some;
  some.record(4.0);
  some.record(8.0);

  some.merge(empty);
  EXPECT_EQ(some.count(), 2u);
  EXPECT_EQ(some.mean(), 6.0);

  sim::Sampler target;
  target.merge(some);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.percentile(100), 8.0);
}

// merge() must invalidate the cached sorted order: a percentile computed
// before the merge may not leak into one computed after.
TEST(SamplerMerge, InvalidatesTheSortCache) {
  sim::Sampler s;
  s.record(10.0);
  s.record(20.0);
  EXPECT_EQ(s.percentile(100), 20.0);  // builds the sorted cache

  sim::Sampler other;
  other.record(40.0);
  s.merge(other);
  EXPECT_EQ(s.percentile(100), 40.0);
  EXPECT_EQ(s.percentile(0), 10.0);
  EXPECT_EQ(s.count(), 3u);
}

// --- Tracer -----------------------------------------------------------

TEST(Tracer, ResidualAbsorbsUnattributedTime) {
  Tracer tr;
  const auto id = tr.begin(Op::kRead, sim::Time{0});
  tr.charge(Component::kNetwork, 300);
  tr.charge(Component::kMedia, 200);
  tr.end(id, sim::Time{1000});
  const auto spans = tr.recent();
  ASSERT_EQ(spans.size(), 1u);
  const auto& s = spans[0];
  EXPECT_EQ(s.component[static_cast<int>(Component::kNetwork)], 300);
  EXPECT_EQ(s.component[static_cast<int>(Component::kMedia)], 200);
  EXPECT_EQ(s.component[static_cast<int>(Component::kProtocol)], 500);
  EXPECT_EQ(s.attributed(), s.total());
  EXPECT_EQ(tr.overattributed_spans(), 0u);
}

TEST(Tracer, OverattributionIsClampedAndCounted) {
  Tracer tr;
  const auto id = tr.begin(Op::kWrite, sim::Time{0});
  tr.charge(Component::kCpu, 5000);  // more than the span's total window
  tr.end(id, sim::Time{1000});
  const auto spans = tr.recent();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].component[static_cast<int>(Component::kProtocol)], 0);
  EXPECT_EQ(tr.overattributed_spans(), 1u);
}

TEST(Tracer, NestedSpansBothReceiveCharges) {
  Tracer tr;
  const auto outer = tr.begin(Op::kMeta, sim::Time{0});
  const auto inner = tr.begin(Op::kRead, sim::Time{100});
  tr.charge(Component::kNetwork, 50);
  tr.end(inner, sim::Time{400});
  tr.end(outer, sim::Time{1000});
  const auto spans = tr.recent();
  ASSERT_EQ(spans.size(), 2u);  // inner completes first
  EXPECT_EQ(spans[0].component[static_cast<int>(Component::kNetwork)], 50);
  EXPECT_EQ(spans[1].component[static_cast<int>(Component::kNetwork)], 50);
  EXPECT_EQ(spans[1].total(), 1000);
}

TEST(Tracer, EndMustBeLifo) {
  Tracer tr;
  const auto outer = tr.begin(Op::kMeta, sim::Time{0});
  tr.begin(Op::kRead, sim::Time{1});
  EXPECT_DEATH(tr.end(outer, sim::Time{2}), "");
}

TEST(Tracer, SuspendedChargesAreDropped) {
  Tracer tr;
  const auto id = tr.begin(Op::kRead, sim::Time{0});
  {
    obs::SuspendGuard guard(&tr);
    tr.charge(Component::kMedia, 400);  // async work: must not bill the span
  }
  tr.charge(Component::kMedia, 100);
  tr.end(id, sim::Time{1000});
  const auto spans = tr.recent();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].component[static_cast<int>(Component::kMedia)], 100);
}

TEST(Tracer, ChargeWithNoActiveSpanIsANoOp) {
  Tracer tr;
  tr.charge(Component::kNetwork, 123);  // must not crash or accumulate
  EXPECT_EQ(tr.completed_spans(), 0u);
  EXPECT_EQ(tr.active_spans(), 0u);
}

TEST(Tracer, RingEvictsOldestAndSamplersSeeEverySpan) {
  Tracer tr(/*ring_capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    const auto id = tr.begin(Op::kMeta, sim::Time{i * 10});
    tr.end(id, sim::Time{i * 10 + 1});
  }
  EXPECT_EQ(tr.recent().size(), 2u);       // ring keeps the tail
  EXPECT_EQ(tr.completed_spans(), 5u);     // counters keep everything
  EXPECT_EQ(tr.total_us().count(), 5u);
}

TEST(Tracer, ResetDropsCompletedButKeepsActiveSpans) {
  Tracer tr;
  const auto done = tr.begin(Op::kMeta, sim::Time{0});
  tr.end(done, sim::Time{10});
  const auto open = tr.begin(Op::kWrite, sim::Time{20});
  tr.reset();
  EXPECT_EQ(tr.completed_spans(), 0u);
  EXPECT_EQ(tr.recent().size(), 0u);
  EXPECT_EQ(tr.active_spans(), 1u);  // the open span survives
  tr.end(open, sim::Time{30});
  EXPECT_EQ(tr.completed_spans(), 1u);
}

// --- Report -----------------------------------------------------------

TEST(Report, RowWidthMismatchIsFatal) {
  Report r("t", "ref");
  obs::ReportTable& t = r.table("x", {"a", "b"});
  EXPECT_DEATH(t.row({1}), "");
}

TEST(Report, DuplicateTableNameIsFatal) {
  Report r("t", "ref");
  r.table("x", {"a"});
  EXPECT_DEATH(r.table("x", {"b"}), "");
}

TEST(Report, TableReferencesSurviveLaterTableAdditions) {
  // add_trace_summary appends tables; references handed out earlier must
  // stay valid (regression test for a reallocation-induced dangle).
  Report r("t", "ref");
  obs::ReportTable& first = r.table("first", {"v"});
  Tracer tr;
  for (int i = 0; i < 40; ++i) {
    r.add_trace_summary("pad" + std::to_string(i), tr);
  }
  first.row({42});
  ASSERT_EQ(first.rows.size(), 1u);
  EXPECT_NE(r.json().find("\"name\":\"first\""), std::string::npos);
}

TEST(Report, JsonIsDeterministicAndWellFormed) {
  Report r("bench_x", "Radkov et al., FAST'04");
  obs::ReportTable& t = r.table("tab", {"name", "n", "ratio"});
  t.row({"seq \"read\"", std::uint64_t{33362}, 0.25});
  MetricsRegistry reg;
  sim::Counter last;
  sim::Counter first;
  reg.adopt_counter("z.last", last);
  reg.adopt_counter("a.first", first);
  last.add(1);
  first.add(2);
  r.add_snapshot("final", reg.snapshot());

  const std::string j = r.json();
  EXPECT_EQ(j, r.json());  // rendering is a pure function
  EXPECT_NE(j.find("\"format\":\"netstore-report-v1\""), std::string::npos);
  EXPECT_NE(j.find("\"seq \\\"read\\\"\""), std::string::npos);
  // Snapshot keys render in key order, not insertion order.
  EXPECT_LT(j.find("a.first"), j.find("z.last"));
}

TEST(Report, FormatDoubleDropsTrailingNoiseAndRejectsNan) {
  EXPECT_EQ(obs::format_double(0.25), "0.25");
  EXPECT_EQ(obs::format_double(33362.0), "33362");
  EXPECT_DEATH(obs::format_double(std::nan("")), "");
}

TEST(Report, CsvQuotesSeparatorsAndEmbeddedQuotes) {
  Report r("t", "ref");
  obs::ReportTable& t = r.table("tab", {"s"});
  t.row({"a,b \"c\""});
  EXPECT_NE(r.csv().find("\"a,b \"\"c\"\"\""), std::string::npos);
}

// --- End to end: the Table 4 acceptance criterion ---------------------

class BreakdownSumsToTotal : public ::testing::TestWithParam<core::Protocol> {
};

TEST_P(BreakdownSumsToTotal, OverTheMeasuredPhaseOfASequentialRead) {
  core::Testbed bed(GetParam());
  workloads::LargeIoConfig cfg;
  cfg.file_mb = 4;  // keep the test fast
  (void)run_large_read(bed, cfg);

  Tracer& tr = bed.tracer();
  EXPECT_GT(tr.completed_spans(), 0u);
  EXPECT_EQ(tr.active_spans(), 0u);
  EXPECT_EQ(tr.overattributed_spans(), 0u);

  // Per request: the five components sum exactly to the span total (the
  // residual absorbs the remainder by construction), i.e. within 1 µs.
  for (const obs::SpanRecord& s : tr.recent()) {
    EXPECT_EQ(s.attributed(), s.total());
    EXPECT_GE(s.component[static_cast<int>(Component::kProtocol)], 0);
  }

  // In aggregate too: summed component means equal the summed total mean.
  double component_sum = 0;
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    component_sum += tr.component_us(static_cast<Component>(i)).mean();
  }
  EXPECT_NEAR(component_sum, tr.total_us().mean(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, BreakdownSumsToTotal,
                         ::testing::Values(core::Protocol::kNfsV3,
                                           core::Protocol::kIscsi),
                         [](const auto& info) {
                           return info.param == core::Protocol::kIscsi
                                      ? "Iscsi"
                                      : "NfsV3";
                         });

}  // namespace
}  // namespace netstore
