// Unit tests for the self-observability layer: the sampling profiler
// (exact site counts, subtree sampling, region density, the deterministic
// export view), the flight-recorder ring, and the exporter edge cases the
// replay-identity guarantee leans on (prof section isolation, optional
// sections, large-count histograms).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/prof.h"
#include "telemetry/telemetry.h"

namespace fastflex::telemetry {
namespace {

// ---------------------------------------------------------------- Profiler

TEST(Profiler, DisabledProfilerIsInert) {
  Profiler prof;
  EXPECT_FALSE(prof.enabled());
  EXPECT_EQ(prof.enabled_self(), nullptr);
  // The pattern every hook site uses: a scope on the cached (null) pointer.
  { ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk); }
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 0u);
  EXPECT_FALSE(prof.HasData());
}

TEST(Profiler, EnableRoundsStrideUpToPowerOfTwo) {
  Profiler p1;
  p1.Enable(100);
  EXPECT_EQ(p1.stride(), 128u);
  Profiler p2;
  p2.Enable(1);
  EXPECT_EQ(p2.stride(), 1u);
  Profiler p3;
  p3.Enable(0);  // degenerate request still yields a usable sampler
  EXPECT_EQ(p3.stride(), 1u);
  // Enable pre-creates the top-level node of every site.
  EXPECT_EQ(p1.nodes().size(), Profiler::kSiteCount);
}

TEST(Profiler, CallCountsAreExactSamplesAreStrided) {
  Profiler prof;
  prof.Enable(256);
  for (int i = 0; i < 1000; ++i) {
    ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  // Every entry counts; entries 0, 256, 512, 768 sample.
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 1000u);
  std::uint64_t walk_samples = 0;
  for (const auto& n : prof.nodes()) {
    if (n.site == ProfSite::kPipelineWalk && n.parent == nullptr)
      walk_samples = n.samples;
  }
  EXPECT_EQ(walk_samples, 4u);
  EXPECT_TRUE(prof.HasData());
}

TEST(Profiler, StrideOneSamplesEveryEntry) {
  Profiler prof;
  prof.Enable(1);
  for (int i = 0; i < 10; ++i) {
    ProfScope scope(prof.enabled_self(), ProfSite::kHostStack);
  }
  for (const auto& n : prof.nodes()) {
    if (n.site == ProfSite::kHostStack && n.parent == nullptr) {
      EXPECT_EQ(n.samples, 10u);
    }
  }
}

TEST(Profiler, SampledEntryCapturesItsSubtree) {
  Profiler prof;
  prof.Enable(256);
  {
    // Entry 0 of kEventDispatch samples; the nested walk scope must ride
    // the open sample into a child node even though its own site counter
    // (also 0... but nested-under-a-sample short-circuits the stride test).
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);
    ProfScope inner(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  {
    // Entry 1 of kEventDispatch does NOT sample; its nested scope is then a
    // top-level entry for kPipelineWalk (counter 1: not sampled either).
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);
    ProfScope inner(prof.enabled_self(), ProfSite::kPipelineWalk);
  }
  EXPECT_EQ(prof.CallsAt(ProfSite::kEventDispatch), 2u);
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk), 2u);
  bool found_child = false;
  for (std::size_t i = 0; i < prof.nodes().size(); ++i) {
    const auto& n = prof.nodes()[i];
    if (n.site == ProfSite::kPipelineWalk && n.parent != nullptr) {
      found_child = true;
      EXPECT_EQ(n.parent->site, ProfSite::kEventDispatch);
      EXPECT_EQ(n.samples, 1u);
      EXPECT_EQ(prof.PathOf(i), "event_dispatch.pipeline_walk");
    }
  }
  EXPECT_TRUE(found_child);
}

TEST(Profiler, TreeSaturationFallsBackToRootNodes) {
  Profiler prof;
  prof.Enable(1);  // sample everything: deep nesting creates chain nodes
  // Recursive alternating nesting grows a fresh node per depth until the
  // arena cap; past it, scopes must attribute to root nodes, not grow.
  std::function<void(int)> nest = [&](int depth) {
    if (depth == 0) return;
    ProfScope scope(prof.enabled_self(), depth % 2 == 0
                                             ? ProfSite::kPipelineWalk
                                             : ProfSite::kHostStack);
    nest(depth - 1);
  };
  nest(2000);
  EXPECT_EQ(prof.nodes().size(), Profiler::kMaxNodes);
  EXPECT_EQ(prof.CallsAt(ProfSite::kPipelineWalk) +
                prof.CallsAt(ProfSite::kHostStack),
            2000u);
}

TEST(Profiler, RegionEventsExactTotalsClampAndBins) {
  Profiler prof;
  prof.Enable();
  for (int i = 0; i < 130; ++i) prof.RegionEvent(5, i * kMillisecond);
  prof.RegionEvent(Profiler::kMaxRegions + 7, 0);  // clamps to last slot
  EXPECT_EQ(prof.regions()[5].events, 130u);
  EXPECT_EQ(prof.regions()[Profiler::kMaxRegions - 1].events, 1u);
  // Ticks 0, 64, 128 sample into region 5's bins (all land in bin 0:
  // 129 ms < the 100 ms bin only for the first... t=i ms, so tick 128 is
  // t=128 ms -> bin 1).
  std::uint64_t binned = 0;
  for (auto b : prof.regions()[5].bins) binned += b;
  EXPECT_EQ(binned, 3u);
}

TEST(Profiler, QueueOccupancySummary) {
  Profiler prof;
  prof.Enable();
  prof.QueueOccupancy(10);
  prof.QueueOccupancy(30);
  EXPECT_EQ(prof.occupancy().count(), 2u);
  EXPECT_DOUBLE_EQ(prof.occupancy().mean(), 20.0);
  EXPECT_DOUBLE_EQ(prof.occupancy().max(), 30.0);
}

TEST(Profiler, DeterministicViewOmitsWallClock) {
  Profiler prof;
  prof.Enable(1);
  { ProfScope scope(prof.enabled_self(), ProfSite::kPipelineWalk); }
  prof.RecordExportNs(1234);
  const std::string wall = prof.ToJsonSection(/*include_wall=*/true);
  const std::string det = prof.ToJsonSection(/*include_wall=*/false);
  EXPECT_NE(wall.find("\"sampled_ns\""), std::string::npos);
  EXPECT_NE(wall.find("\"est_ns\""), std::string::npos);
  EXPECT_NE(wall.find("\"export_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"sampled_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"est_ns\""), std::string::npos);
  EXPECT_EQ(det.find("\"export_ns\""), std::string::npos);
  // Counts survive in both views.
  EXPECT_NE(det.find("\"calls\":1"), std::string::npos);
}

TEST(Profiler, EstimateScalesSampledTimeByStride) {
  Profiler prof;
  prof.Enable(256);
  Profiler::Node n;
  n.sampled_ns = 1000;
  EXPECT_DOUBLE_EQ(prof.EstimateNs(n), 256000.0);
}

TEST(Profiler, DebiasSubtractsEnclosedClockReads) {
  // raw - (inner reads + 1) x cost, clamped at 0.
  EXPECT_EQ(Profiler::DebiasNs(1000, 0, 40.0), 960u);
  EXPECT_EQ(Profiler::DebiasNs(1000, 4, 40.0), 800u);
  EXPECT_EQ(Profiler::DebiasNs(1000, 4, 39.5), 802u);
  EXPECT_EQ(Profiler::DebiasNs(150, 4, 40.0), 0u);
  EXPECT_EQ(Profiler::DebiasNs(1000, 0, 0.0), 1000u);
  EXPECT_EQ(Profiler::DebiasNs(-3, 0, 0.0), 0u);
}

TEST(Profiler, SampledScopesCountTheirClockReads) {
  Profiler prof;
  prof.Enable(1);
  // Calibrated once per process: every profiler gets the same cost.
  Profiler other;
  other.Enable(1);
  EXPECT_EQ(prof.clock_read_ns(), other.clock_read_ns());
  EXPECT_GE(prof.clock_read_ns(), 0.0);

  // A cost far above any real interval clamps every sample to 0, so the
  // correction reaches each node, nested ones included.
  prof.set_clock_read_ns(1e15);
  {
    ProfScope outer(prof.enabled_self(), ProfSite::kEventDispatch);
    { ProfScope a(prof.enabled_self(), ProfSite::kPipelineWalk); }
    {
      ProfScope b(prof.enabled_self(), ProfSite::kHostStack);
      ProfScope c(prof.enabled_self(), ProfSite::kModeProtocol);
    }
  }
  EXPECT_EQ(prof.clock_reads(), 8u);  // four samples, two reads each
  std::uint64_t samples = 0;
  for (const auto& n : prof.nodes()) {
    samples += n.samples;
    EXPECT_EQ(n.sampled_ns, 0u) << ProfSiteName(n.site);
  }
  EXPECT_EQ(samples, 4u);

  // Un-sampled entries read no clock.
  Profiler strided;
  strided.Enable(256);
  for (int i = 0; i < 10; ++i) {
    ProfScope s(strided.enabled_self(), ProfSite::kPipelineWalk);
  }
  EXPECT_EQ(strided.clock_reads(), 2u);  // entry 0 only

  // Merging carries the read count with the samples.
  prof.MergeFrom(strided);
  EXPECT_EQ(prof.clock_reads(), 10u);
}

// ---------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RingOverwritesOldestOnceFull) {
  FlightRecorder fr(4);
  for (int i = 0; i < 6; ++i) {
    fr.Record(i * kSecond, FlightKind::kLinkDrop, i);
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.total(), 6u);
  EXPECT_EQ(fr.overwritten(), 2u);
  const auto snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().a, 2);  // oldest surviving record first
  EXPECT_EQ(snap.back().a, 5);
}

TEST(FlightRecorder, CountsByKindAndDumpSemantics) {
  FlightRecorder fr;
  fr.Record(1, FlightKind::kModeFlip, 4, 0x3, 1);
  fr.Record(2, FlightKind::kAlarm, 4, 0x1, 1);
  fr.Record(3, FlightKind::kModeFlip, 5, 0x3, 1);
  EXPECT_EQ(fr.CountOf(FlightKind::kModeFlip), 2u);
  EXPECT_EQ(fr.CountOf(FlightKind::kAlarm), 1u);
  EXPECT_EQ(fr.CountOf(FlightKind::kSwitchCrash), 0u);

  const std::string dump = fr.RequestDump("unit_test", 4);
  EXPECT_NE(dump.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_EQ(fr.dumps(), 1u);
  EXPECT_EQ(fr.last_dump(), dump);
  // The cut itself is recorded, so a later dump shows where the first was.
  EXPECT_EQ(fr.CountOf(FlightKind::kDump), 1u);
}

TEST(FlightRecorder, JsonSectionCarriesCountsAndRing) {
  FlightRecorder fr(8);
  fr.Record(7, FlightKind::kQueueSpike, 3, 900, 1000);
  const std::string json = fr.ToJsonSection();
  EXPECT_NE(json.find("\"counts\":{\"queue_spike\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"queue_spike\""), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
}

// ----------------------------------------------------------- Export edges

TEST(Export, EmptyRecorderOmitsOptionalSections) {
  Recorder rec;
  const std::string json = ToJson(rec);
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"events\":[]"), std::string::npos);
  // Optional sections stay out until they carry data: artifact bytes of a
  // feature-free run never change when a feature ships.
  EXPECT_EQ(json.find("\"int\":"), std::string::npos);
  EXPECT_EQ(json.find("\"fault\":"), std::string::npos);
  EXPECT_EQ(json.find("\"syn\":"), std::string::npos);
  EXPECT_EQ(json.find("\"flight\":"), std::string::npos);
  EXPECT_EQ(json.find("\"prof\":"), std::string::npos);
}

TEST(Export, ProfSectionOnlyWhenEnabledAndRequested) {
  Recorder rec;
  EXPECT_EQ(ToJson(rec).find("\"prof\":"), std::string::npos);  // disabled

  rec.prof().Enable();
  { ProfScope scope(rec.prof().enabled_self(), ProfSite::kPipelineWalk); }
  EXPECT_NE(ToJson(rec).find("\"prof\":"), std::string::npos);
  // Replay comparisons serialize with the section off.
  EXPECT_EQ(ToJson(rec, ExportOptions{.include_prof = false}).find("\"prof\":"),
            std::string::npos);
}

TEST(Export, NonProfSectionsByteIdenticalProfOnVsOff) {
  // Two recorders fed the exact same telemetry; one also profiles.  With
  // the prof section excluded the documents must match byte for byte —
  // the in-test version of the bench_prof determinism gate.
  auto feed = [](Recorder& rec) {
    auto& m = rec.metrics();
    m.GetCounter("walks").Inc(42);
    m.GetGauge("mode").Set(3.0);
    m.GetSeries("goodput", kSecond).Add(2 * kSecond, 0.75);
    auto& h = m.GetHistogram("lat_ms", 0.0, 50.0, 10);
    h.Add(3.5);
    h.Add(49.0);
    rec.trace().Event(5, "alarm", {{"switch", 2}});
    rec.flight().Record(5, FlightKind::kAlarm, 2, 1, 0);
  };
  Recorder off;
  Recorder on;
  on.prof().Enable();
  feed(off);
  feed(on);
  {  // profiling activity that must not leak into non-prof sections
    ProfScope s1(on.prof().enabled_self(), ProfSite::kEventDispatch);
    ProfScope s2(on.prof().enabled_self(), ProfSite::kPipelineWalk);
    on.prof().RegionEvent(1, 2 * kSecond);
    on.prof().QueueOccupancy(17);
  }
  const ExportOptions no_prof{.include_prof = false};
  EXPECT_EQ(ToJson(off, no_prof), ToJson(on, no_prof));
  EXPECT_NE(ToJson(off, no_prof), ToJson(on));  // full export does differ
}

TEST(Export, LargeCountHistogramSerializesConsistently) {
  Recorder rec;
  auto& h = rec.metrics().GetHistogram("big", 0.0, 1.0, 4);
  for (int i = 0; i < 200000; ++i) h.Add((i % 100) / 100.0);
  h.Add(-5.0);  // clamps to the lowest bucket
  h.Add(9.0);   // clamps to the highest bucket
  const std::string json = ToJson(rec);
  EXPECT_NE(json.find("\"count\":200002"), std::string::npos);
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) bucket_sum += h.bucket_count(i);
  EXPECT_EQ(bucket_sum, 200002u);
  EXPECT_GE(h.Percentile(99), h.Percentile(50));
}

TEST(Export, ExporterMeasuresItselfWithoutSelfReference) {
  Recorder rec;
  rec.prof().Enable();
  rec.metrics().GetCounter("c").Inc();
  (void)ToJson(rec);
  // The export scope ran once; its wall time went to RecordExportNs (out
  // of tree), so the prof section never times its own serialization.
  EXPECT_EQ(rec.prof().CallsAt(ProfSite::kExport), 1u);
}

}  // namespace
}  // namespace fastflex::telemetry
