/// @file selftest.cpp
/// @brief Tests of the benchmark's own machinery (bench_core): seeded
/// inputs, the percentile summary, open-loop latency, span self times and
/// the reference check.

#include <gtest/gtest.h>

#include <set>

#include "bench_core.hpp"

namespace pb = perfbench;
using pdn3d::core::BenchmarkKind;

namespace {

std::string stream_bytes(std::uint64_t seed) {
  const auto ws = pb::make_working_set(seed);
  std::uint64_t cold = 0;
  std::string all;
  for (const auto& item : pb::make_stream(ws, seed, 400.0, 500, 1, &cold)) {
    all += std::to_string(item.due_s) + " " + item.line + "\n";
  }
  return all;
}

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

TEST(Stream, SameSeedGivesByteIdenticalRequests) {
  EXPECT_EQ(stream_bytes(7), stream_bytes(7));
}

TEST(Stream, DifferentSeedGivesDifferentRequests) {
  EXPECT_NE(stream_bytes(7), stream_bytes(8));
}

TEST(Stream, RequestsAreDueAtTheOfferedRate) {
  const auto ws = pb::make_working_set(3);
  std::uint64_t cold = 0;
  const auto s = pb::make_stream(ws, 3, 250.0, 100, 1, &cold);
  ASSERT_EQ(s.size(), 100u);
  EXPECT_DOUBLE_EQ(s[0].due_s, 0.0);
  EXPECT_DOUBLE_EQ(s[99].due_s, 99.0 / 250.0);
}

TEST(Stream, OneRequestInAHundredNamesANewDesign) {
  const auto ws = pb::make_working_set(5);
  std::uint64_t cold = 0;
  const auto s = pb::make_stream(ws, 5, 400.0, 1000, 1, &cold);
  std::set<std::string> cold_lines;
  for (const auto& item : s) {
    if (item.cold) cold_lines.insert(item.line.substr(item.line.find("\"design\"")));
  }
  EXPECT_EQ(cold_lines.size(), 10u);  // ten cold requests, all distinct designs
  EXPECT_EQ(cold, 10u);
}

TEST(Designs, ColdDesignsNeverMatchThePool) {
  std::set<std::string> pool;
  for (const auto kind : {BenchmarkKind::kWideIo, BenchmarkKind::kStackedDdr3OffChip}) {
    for (const auto& d : pb::design_pool(kind, 1000)) pool.insert(d.label());
    for (std::uint64_t serial = 0; serial < 2000; ++serial) {
      const auto label = pb::cold_design(kind, serial).label();
      EXPECT_EQ(pool.count(label), 0u) << label;
      EXPECT_TRUE(pool.insert(label).second) << "cold designs repeat: " << label;
    }
  }
}

TEST(Percentile, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  auto s = pb::summarize(iota_values(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);  // 10 samples above the 990th
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.p50, 500.5);

  s = pb::summarize(iota_values(999));
  EXPECT_EQ(s.tail_pct, 95.0);  // p99 would leave only 9 beyond
  EXPECT_EQ(s.tail, 950.0);

  s = pb::summarize(iota_values(10000));
  EXPECT_EQ(s.tail_pct, 99.9);
}

TEST(Percentile, FallsBackToTheMaximumForSmallSamples) {
  const auto s = pb::summarize(iota_values(15));
  EXPECT_EQ(s.count, 15u);
  EXPECT_EQ(s.tail_pct, 100.0);
  EXPECT_EQ(s.tail, 15.0);
  EXPECT_EQ(pb::summarize({}).count, 0u);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Due at 1.000 s, submitted 40 ms late by a stalled generator, answered
  // 10 ms after submission: the user waited 50 ms.
  const double due = 1.0, submitted = 1.04, done = 1.05;
  EXPECT_NEAR(pb::open_loop_latency_ms(due, done), 50.0, 1e-9);
  EXPECT_GT(pb::open_loop_latency_ms(due, done), (done - submitted) * 1e3);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  pb::SpanRecorder rec(true);
  const auto root = rec.add("bench.iteration", 0, 0, 0.0, 10.0);
  const auto a = rec.add("opt.fit_models", root, 0, 1.0, 9.0);
  // Two overlapping children on other threads cover [2, 7] of a.
  rec.add("irdrop.solve", a, 0, 2.0, 6.0);
  rec.add("irdrop.solve", a, 0, 4.0, 7.0);
  const auto self = pb::self_times(rec.spans());
  EXPECT_DOUBLE_EQ(self.at(root), 2.0);
  EXPECT_DOUBLE_EQ(self.at(a), 3.0);
  EXPECT_DOUBLE_EQ(pb::self_by_name(rec.spans()).at("irdrop.solve"), 7.0);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  pb::SpanRecorder rec(false);
  { pb::SpanRecorder::Scope s(rec, "bench.iteration", 0, 0); }
  EXPECT_TRUE(rec.spans().empty());
}

TEST(Reference, ACorruptedEntryFailsTheCheck) {
  pdn3d::api::EvaluateResult r;
  r.output = "max DRAM IR drop : 12.34 mV\n";
  r.headline_mv = 12.34;
  pb::Reference ref{pdn3d::obs::json::Value::object()};
  auto section = pdn3d::obs::json::Value::object();
  section.set("k", pb::reference_entry(r));
  ref.doc.set("policy", section);
  EXPECT_TRUE(pb::matches(ref, "policy", "k", r));

  auto changed = r;
  changed.output[20] = '5';
  EXPECT_FALSE(pb::matches(ref, "policy", "k", changed));
  changed = r;
  changed.headline_mv += 1e-6;
  EXPECT_FALSE(pb::matches(ref, "policy", "k", changed));
  EXPECT_FALSE(pb::matches(ref, "policy", "missing", r));
}
