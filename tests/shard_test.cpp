// ShardedEngine determinism and safety tests.
//
// The engine's contract is that the shard count is an execution detail: a
// K-shard run must produce byte-identical telemetry to the K=1 run of the
// same build (both under the engine — the legacy single-threaded path keeps
// its own historical traces via the shared-RNG stream).  These tests pin
// that contract on the three headline scenarios, the conservative-sync
// safety properties (no event ever dispatched past a shard's safe horizon,
// no channel ever delivering out of order), and the construction-time
// validation of the region partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios/builder.h"
#include "scenarios/faulty_fig3.h"
#include "scenarios/fig3.h"
#include "scenarios/multi_tenant_fig.h"
#include "scenarios/scale_fig3.h"
#include "scenarios/syn_flood_fig.h"
#include "sim/sharded_engine.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "test_net.h"

namespace fastflex::scenarios {
namespace {

std::string ExportNoProf(const telemetry::Recorder& rec) {
  telemetry::ExportOptions opts;
  opts.include_prof = false;  // prof carries wall clock; everything else is pinned
  return telemetry::ToJson(rec, opts);
}

Fig3Options ShortFig3(telemetry::Recorder* rec, int shards) {
  Fig3Options opt;
  opt.defense = DefenseKind::kFastFlex;
  opt.seed = 1;
  opt.duration = 20 * kSecond;
  opt.attack_at = 6 * kSecond;
  opt.shards = shards;
  opt.recorder = rec;
  return opt;
}

TEST(Shard, Fig3K1VsK4ByteIdenticalTelemetry) {
  telemetry::Recorder rec1;
  const Fig3Result r1 = RunFig3(ShortFig3(&rec1, 1));
  telemetry::Recorder rec4;
  const Fig3Result r4 = RunFig3(ShortFig3(&rec4, 4));

  EXPECT_EQ(ExportNoProf(rec1), ExportNoProf(rec4))
      << "fig3 telemetry depends on the shard count";

  // The comparison is only meaningful if the defense actually engaged.
  EXPECT_GT(r1.first_alarm, 0);
  EXPECT_EQ(r1.first_alarm, r4.first_alarm);
  EXPECT_GT(r1.events_processed, 0u);
  EXPECT_EQ(r1.events_processed, r4.events_processed);
  EXPECT_EQ(r1.mean_during_attack, r4.mean_during_attack);
  EXPECT_GT(rec1.trace().CountOf("mode_change"), 0u);
}

TEST(Shard, SynFloodK1VsK4ByteIdenticalTelemetry) {
  auto opts = [](telemetry::Recorder* rec, int shards) {
    SynFloodFigOptions opt;
    opt.defense = DefenseKind::kFastFlex;
    opt.seed = 3;
    opt.duration = 15 * kSecond;
    opt.attack_at = 5 * kSecond;
    opt.flood.syn_rate_per_bot = 400.0;
    opt.flood.syn_rate_alarm = 500.0;
    opt.flood.sessions_per_client = 8;
    opt.flood.session_interval = 1200 * kMillisecond;
    opt.shards = shards;
    opt.recorder = rec;
    return opt;
  };
  telemetry::Recorder rec1;
  const SynFloodFigResult r1 = RunSynFloodFig(opts(&rec1, 1));
  telemetry::Recorder rec4;
  const SynFloodFigResult r4 = RunSynFloodFig(opts(&rec4, 4));

  EXPECT_EQ(ExportNoProf(rec1), ExportNoProf(rec4))
      << "syn-flood telemetry depends on the shard count";
  EXPECT_GT(r1.flood_syns, 0u);
  EXPECT_GT(r1.cookies_sent, 0u);
  EXPECT_EQ(r1.established, r4.established);
  EXPECT_EQ(r1.delivered_bytes, r4.delivered_bytes);
  EXPECT_EQ(r1.events_processed, r4.events_processed);
}

TEST(Shard, MultiTenantK1VsK4ByteIdenticalTelemetry) {
  // The elastic loop and the SYN-proxy / adversarial-hardening counters
  // under real sharding: the loop's decisions run as coordinator globals,
  // the per-switch "switch.<sw>.syn.*" counters are bumped in place by each
  // switch's owner shard, and elastically installed proxies are built at a
  // coordinator barrier.  A shortened run that still sheds, cookies the
  // flood and retires the scale-ups must export the same bytes at K=1 and
  // K=4.
  auto opts = [](telemetry::Recorder* rec, int shards) {
    MultiTenantOptions opt;
    opt.seed = 1;
    opt.duration = 10 * kSecond;
    opt.attack_at = 2 * kSecond;
    opt.attack_stop = 5 * kSecond;
    opt.clients_per_region = 1;
    opt.shards = shards;
    opt.recorder = rec;
    return opt;
  };
  telemetry::Recorder rec1;
  const MultiTenantResult r1 = RunMultiTenantFig(opts(&rec1, 1));
  telemetry::Recorder rec4;
  const MultiTenantResult r4 = RunMultiTenantFig(opts(&rec4, 4));

  EXPECT_EQ(ExportNoProf(rec1), ExportNoProf(rec4))
      << "multi-tenant telemetry depends on the shard count";
  EXPECT_GE(r1.sheds, 1u);
  EXPECT_GT(r1.cookies_sent, 0u);
  EXPECT_GE(r1.teardowns, 1u);
  EXPECT_GT(r1.last_teardown_at, 0);
  EXPECT_EQ(r1.sheds, r4.sheds);
  EXPECT_EQ(r1.cookies_sent, r4.cookies_sent);
  EXPECT_EQ(r1.teardowns, r4.teardowns);
  EXPECT_EQ(r1.events_processed, r4.events_processed);
}

TEST(Shard, FaultyFig3CrashInOneShardFloodInAnother) {
  // M2 (region 2) crashes and loses state while the orchestrator floods
  // mode changes through every region: reboot-resync, failover steering,
  // and the fault timeline must all land identically whether region 2 runs
  // on its own worker or shares one queue with everything else.
  auto opts = [](telemetry::Recorder* rec, int shards) {
    FaultyFig3Options opt;
    opt.seed = 1;
    opt.duration = 26 * kSecond;
    opt.attack_at = 6 * kSecond;
    opt.link_fault_at = 12 * kSecond;
    opt.link_repair_after = 6 * kSecond;
    opt.crash_at = 15 * kSecond;
    opt.reboot_after = 2 * kSecond;
    opt.shards = shards;
    opt.recorder = rec;
    return opt;
  };
  telemetry::Recorder rec1;
  const FaultyFig3Result r1 = RunFaultyFig3(opts(&rec1, 1));
  telemetry::Recorder rec4;
  const FaultyFig3Result r4 = RunFaultyFig3(opts(&rec4, 4));

  EXPECT_EQ(ExportNoProf(rec1), ExportNoProf(rec4))
      << "faulty-fig3 telemetry depends on the shard count";
  // The run must have exercised the cross-shard fault machinery.
  EXPECT_GT(r1.failovers, 0u);
  EXPECT_GT(r1.resyncs, 0u);
  EXPECT_EQ(r1.failover_latency, r4.failover_latency);
  EXPECT_EQ(r1.reconverge_latency, r4.reconverge_latency);
  EXPECT_EQ(r1.fault_records, r4.fault_records);
}

TEST(Shard, ScaleFabricDeterministicAcrossK) {
  // K=3 cuts the 8-region ring into uneven arcs (3, 2 and 3 regions); the
  // other counts cut it evenly.  Every K must replay K=1 byte for byte.
  auto opts = [](telemetry::Recorder* rec, int shards) {
    ScaleFig3Options opt;
    opt.seed = 7;
    opt.duration = 2 * kSecond;
    opt.regions = 8;
    opt.clients_per_region = 2;
    opt.shards = shards;
    opt.recorder = rec;
    return opt;
  };
  telemetry::Recorder rec1;
  const ScaleFig3Result r1 = RunScaleFig3(opts(&rec1, 1));
  const std::string j1 = ExportNoProf(rec1);
  EXPECT_GT(r1.delivered_bytes, 0u);
  for (int k : {2, 3, 4, 8}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    telemetry::Recorder rec;
    const ScaleFig3Result r = RunScaleFig3(opts(&rec, k));
    EXPECT_EQ(j1, ExportNoProf(rec));
    EXPECT_EQ(r1.delivered_bytes, r.delivered_bytes);
    EXPECT_EQ(r1.events_processed, r.events_processed);
    // Every shard, on every arc, did work and sent across its boundaries.
    ASSERT_EQ(r.shard_sync.size(), static_cast<std::size_t>(k));
    for (const auto& st : r.shard_sync) {
      EXPECT_GT(st.events, 0u);
      EXPECT_GT(st.cross_sends, 0u);
    }
  }
}

TEST(Shard, RegionsPartitionIntoContiguousArcs) {
  // Eight equal regions on a ring, two switches each.  Regions are taken
  // in label order and cut into contiguous blocks: K=4 gives {1,2} {3,4}
  // {5,6} {7,8} and crosses only the 4 ring links between blocks (8
  // directed channels); K=3 gives near-equal blocks of 3, 2 and 3.
  constexpr int kRegions = 8;
  sim::Topology topo;
  std::vector<NodeId> head, tail;
  for (int r = 0; r < kRegions; ++r) {
    head.push_back(topo.AddNode(sim::NodeKind::kSwitch, "h" + std::to_string(r)));
    tail.push_back(topo.AddNode(sim::NodeKind::kSwitch, "t" + std::to_string(r)));
    topo.AddDuplexLink(head.back(), tail.back(), 100e6, kMillisecond, 200'000);
  }
  for (int r = 0; r < kRegions; ++r) {
    topo.AddDuplexLink(tail[static_cast<std::size_t>(r)],
                       head[static_cast<std::size_t>((r + 1) % kRegions)], 100e6,
                       kMillisecond, 200'000);
  }
  sim::Network net(topo, 1);
  for (int r = 0; r < kRegions; ++r) {
    net.set_node_region(head[static_cast<std::size_t>(r)], static_cast<std::uint32_t>(r + 1));
    net.set_node_region(tail[static_cast<std::size_t>(r)], static_cast<std::uint32_t>(r + 1));
  }

  auto shard_of_region = [&](const sim::ShardedEngine& engine) {
    std::vector<int> out;
    for (int r = 0; r < kRegions; ++r) {
      const int sh = engine.shard_of_node(head[static_cast<std::size_t>(r)]);
      EXPECT_EQ(sh, engine.shard_of_node(tail[static_cast<std::size_t>(r)]))
          << "region " << r + 1 << " split across shards";
      out.push_back(sh);
    }
    return out;
  };
  auto cross_channels = [&](const sim::ShardedEngine& engine) {
    int n = 0;
    for (LinkId l = 0; l < static_cast<LinkId>(topo.NumLinks()); ++l) {
      const auto& info = topo.link(l);
      if (engine.shard_of_node(info.from) != engine.shard_of_node(info.to)) ++n;
    }
    return n;
  };
  {
    sim::ShardedEngine engine(net, {.shards = 4});
    EXPECT_EQ(shard_of_region(engine), (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
    EXPECT_EQ(cross_channels(engine), 8);
  }
  {
    sim::ShardedEngine engine(net, {.shards = 3});
    EXPECT_EQ(shard_of_region(engine), (std::vector<int>{0, 0, 0, 1, 1, 2, 2, 2}));
    EXPECT_EQ(cross_channels(engine), 6);
  }
}

TEST(Shard, SingleShardRunsAcrossManyCoordinatorWindows) {
  // At K=1 no channel crosses shards, so the step cap is pos + kNoEvent —
  // it must saturate, not overflow, from the second coordinator window on.
  // Fig3's attack drivers and link sampling put many globals in the run,
  // and the run is split over several RunUntil calls; it must replay a
  // one-call K=1 run exactly, without the lone shard ever waiting.
  auto run = [](const std::vector<SimTime>& stops, std::vector<telemetry::ShardSyncStats>* sync) {
    telemetry::Recorder rec;
    ScenarioBuilder builder;
    builder.Seed(1).Defense(DefenseKind::kFastFlex).AttackAt(4 * kSecond).Record(&rec);
    BuiltScenario s = builder.Build();
    sim::ShardedEngine engine(*s.net, {.shards = 1});
    for (SimTime t : stops) engine.RunUntil(t);
    engine.Finish();
    EXPECT_EQ(engine.horizon_violations(), 0u);
    EXPECT_EQ(engine.order_violations(), 0u);
    *sync = engine.SyncStats();
    s.net->CollectTelemetry(rec);
    s.net->SetTelemetry(nullptr);
    return ExportNoProf(rec);
  };
  std::vector<telemetry::ShardSyncStats> split_sync, whole_sync;
  const std::string split =
      run({2 * kSecond, 5 * kSecond, 5 * kSecond, 9 * kSecond}, &split_sync);
  const std::string whole = run({9 * kSecond}, &whole_sync);
  EXPECT_EQ(split, whole) << "splitting a K=1 run over RunUntil calls changed it";

  ASSERT_EQ(split_sync.size(), 1u);
  const telemetry::ShardSyncStats& st = split_sync[0];
  EXPECT_EQ(st.lookahead, telemetry::ShardSyncStats::kNoLookahead);
  EXPECT_GT(st.rounds, 4u) << "expected one round per coordinator window";
  EXPECT_EQ(st.advanced, 9 * kSecond + 1);  // the frontier ends at until + 1
  EXPECT_EQ(st.spins, 0u);
  EXPECT_EQ(st.parks, 0u);
  EXPECT_EQ(st.cross_sends, 0u);
  EXPECT_EQ(st.events, whole_sync[0].events);
}

TEST(Shard, NoRoundAdvancesPastItsLookahead) {
  // The step cap: a round moves a shard's frontier by at most its smallest
  // inbound cross-shard lookahead, so neighbours advance in lockstep
  // instead of alternating.  Checked on the HotNets fabric (uneven
  // lookaheads: 2 ms and 15-20 ms region stitches) and on the ring.
  ScenarioBuilder builder;
  builder.Seed(2).Defense(DefenseKind::kFastFlex).AttackAt(3 * kSecond);
  BuiltScenario s = builder.Build();
  sim::ShardedEngine engine(*s.net, {.shards = 3});
  engine.RunUntil(8 * kSecond);
  engine.Finish();
  EXPECT_EQ(engine.horizon_violations(), 0u);
  EXPECT_EQ(engine.order_violations(), 0u);

  auto check = [](const std::vector<telemetry::ShardSyncStats>& sync, SimTime until) {
    for (const auto& st : sync) {
      SCOPED_TRACE("shard " + std::to_string(st.shard));
      ASSERT_NE(st.lookahead, telemetry::ShardSyncStats::kNoLookahead);
      EXPECT_GT(st.rounds, 0u);
      EXPECT_GT(st.max_step, 0);
      EXPECT_LE(st.max_step, st.lookahead);
      EXPECT_EQ(st.advanced, until + 1);
      // Lockstep: at least one round per lookahead of simulated time.
      EXPECT_GE(st.rounds, static_cast<std::uint64_t>(until / st.lookahead));
    }
  };
  const auto fig3_sync = engine.SyncStats();
  ASSERT_EQ(fig3_sync.size(), 3u);
  check(fig3_sync, 8 * kSecond);
  SimTime min_lookahead = sim::EventQueue::kNoEvent;
  for (const auto& st : fig3_sync) min_lookahead = std::min(min_lookahead, st.lookahead);
  EXPECT_EQ(min_lookahead, engine.min_cross_lookahead());

  ScaleFig3Options ring;
  ring.seed = 5;
  ring.duration = kSecond;
  ring.clients_per_region = 1;
  ring.shards = 4;
  const ScaleFig3Result r = RunScaleFig3(ring);
  ASSERT_EQ(r.shard_sync.size(), 4u);
  check(r.shard_sync, kSecond);
  for (const auto& st : r.shard_sync) EXPECT_EQ(st.lookahead, ring.region_delay);
}

TEST(Shard, SyncCountersReachOnlyTheProfWallView) {
  // Round, spin and park counts depend on thread timing: they may appear
  // in the prof section's wall view and nowhere else.
  telemetry::Recorder rec;
  rec.prof().Enable();
  ScenarioBuilder builder;
  builder.Seed(1).Defense(DefenseKind::kFastFlex).AttackAt(3 * kSecond).Record(&rec);
  BuiltScenario s = builder.Build();
  sim::RunOptions run;
  run.duration = 5 * kSecond;
  run.shards = 2;
  RunScenario(s, run);
  s.net->SetTelemetry(nullptr);

  ASSERT_EQ(rec.prof().shard_sync().size(), 2u);
  EXPECT_GT(rec.prof().shard_sync()[0].rounds, 0u);
  EXPECT_NE(rec.prof().ToJsonSection(true).find("\"shard_sync\""), std::string::npos);
  EXPECT_EQ(rec.prof().ToJsonSection(false).find("shard_sync"), std::string::npos);
  EXPECT_NE(telemetry::ToJson(rec).find("\"shard_sync\""), std::string::npos);
  EXPECT_EQ(ExportNoProf(rec).find("shard_sync"), std::string::npos);
}

TEST(Shard, WorkerContextFlightDumpMergesCanonically) {
  // A FlightRecorder::RequestDump issued mid-run from a WORKER context (an
  // event pinned to a node) must not snapshot that worker's shard-local
  // ring: the engine defers it to the next coordinator barrier and cuts the
  // dump from the canonical merged ring — so the document is byte-identical
  // whether the requesting node shares one shard with everything else (K=1)
  // or runs alone (K=4).  The request fires at 12 s, mid mode-churn, so the
  // ring holds records from every region at the time of the cut.
  auto run = [](int shards, std::string* notice) {
    telemetry::Recorder rec;
    ScenarioBuilder builder;
    builder.Seed(1).Defense(DefenseKind::kFastFlex).AttackAt(6 * kSecond).Record(&rec);
    BuiltScenario s = builder.Build();
    sim::Network* net = s.net.get();
    telemetry::Recorder* r = &rec;
    net->events().ScheduleAtCtx(12 * kSecond, s.h.rv, [net, r, notice] {
      *notice = r->flight().RequestDump("worker-test", net->Now());
    });
    sim::RunOptions run;
    run.duration = 16 * kSecond;
    run.shards = shards;
    RunScenario(s, run);
    const std::string dump = rec.flight().last_dump();
    s.net->SetTelemetry(nullptr);
    return dump;
  };
  std::string notice1, notice4;
  const std::string d1 = run(1, &notice1);
  const std::string d4 = run(4, &notice4);

  // The worker-side call itself only gets the deferral notice...
  EXPECT_NE(notice1.find("\"deferred\":true"), std::string::npos);
  EXPECT_EQ(notice1, notice4);
  // ...and the real dump lands at the barrier, identical across K.
  ASSERT_FALSE(d1.empty());
  EXPECT_NE(d1.find("worker-test"), std::string::npos);
  EXPECT_EQ(d1, d4) << "worker-context flight dump depends on the shard count";
}

TEST(Shard, LookaheadAndChannelOrderPropertiesHold) {
  // Direct engine run so the violation counters are visible: every dispatch
  // must sit inside its shard's proven-safe horizon, and every channel must
  // deliver in nondecreasing (t, seq) order.  These counters are the
  // runtime teeth of the conservative-sync proof.
  ScenarioBuilder builder;
  builder.Seed(1).Defense(DefenseKind::kFastFlex).AttackAt(5 * kSecond);
  BuiltScenario s = builder.Build();

  sim::ShardedEngine::Options opt;
  opt.shards = 3;
  sim::ShardedEngine engine(*s.net, opt);
  engine.RunUntil(15 * kSecond);
  engine.Finish();

  EXPECT_EQ(engine.shard_count(), 3);
  EXPECT_EQ(engine.horizon_violations(), 0u);
  EXPECT_EQ(engine.order_violations(), 0u);
  EXPECT_GT(engine.TotalEvents(), 0u);
  // The HotNets regions are stitched by >= 2 ms links (E -> M3 is the
  // tightest region-1 -> region-2 hop; the rest are 15-20 ms).
  EXPECT_GE(engine.min_cross_lookahead(), 2 * kMillisecond);
}

TEST(Shard, SparseRegionLabelsAreRejected) {
  auto tn = fastflex::testing::MakeLineNet(4);
  // Labels {1, 5}: the span [1, 5] holds unused values, which would leave
  // the partitioner with phantom regions — construction must refuse.
  tn.net->set_node_region(tn.switches[0], 1);
  tn.net->set_node_region(tn.switches[1], 1);
  tn.net->set_node_region(tn.switches[2], 5);
  tn.net->set_node_region(tn.switches[3], 5);
  for (NodeId h : tn.hosts) tn.net->set_node_region(h, 1);
  EXPECT_THROW(sim::ShardedEngine(*tn.net, {.shards = 2}), std::runtime_error);
}

TEST(Shard, ZeroDelayCrossShardLinkIsRejected) {
  // A zero-propagation link between two regions gives conservative sync no
  // lookahead to promise — the engine must reject it at construction.
  sim::Topology topo;
  const NodeId a = topo.AddNode(sim::NodeKind::kSwitch, "a");
  const NodeId b = topo.AddNode(sim::NodeKind::kSwitch, "b");
  topo.AddDuplexLink(a, b, 100e6, 0, 200'000);
  sim::Network net(topo, 1);
  net.set_node_region(a, 1);
  net.set_node_region(b, 2);
  EXPECT_THROW(sim::ShardedEngine(net, {.shards = 2}), std::runtime_error);
}

TEST(Shard, ShardCountClampsToRegions) {
  // More shards than regions is not an error — the engine runs one shard
  // per region and ignores the excess.
  ScaleFig3Options opt;
  opt.seed = 2;
  opt.duration = 500 * kMillisecond;
  opt.regions = 2;
  opt.clients_per_region = 1;
  opt.shards = 16;
  const ScaleFig3Result r = RunScaleFig3(opt);
  EXPECT_GT(r.events_processed, 0u);
}

}  // namespace
}  // namespace fastflex::scenarios
