// Link model tests: serialization delay, propagation, drop-tail queueing,
// utilization sampling, and switch routing/fast-reroute behavior.
#include <gtest/gtest.h>

#include <vector>

#include "control/routes.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace fastflex::sim {
namespace {

/// h1 - s1 - s2 - h2 line with a slow middle link.
struct Line {
  Topology t;
  NodeId s1, s2, h1, h2;
  LinkId mid;
  Line(double mid_rate = 8e6, std::uint32_t mid_queue = 10'000) {
    s1 = t.AddNode(NodeKind::kSwitch, "s1");
    s2 = t.AddNode(NodeKind::kSwitch, "s2");
    h1 = t.AddNode(NodeKind::kHost, "h1");
    h2 = t.AddNode(NodeKind::kHost, "h2");
    mid = t.AddDuplexLink(s1, s2, mid_rate, 10 * kMillisecond, mid_queue);
    t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 1'000'000);
    t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 1'000'000);
  }
};

Packet MakeUdp(Network& net, NodeId from, NodeId to, std::uint32_t size) {
  Packet p;
  p.kind = PacketKind::kUdp;
  p.src = net.topology().node(from).address;
  p.dst = net.topology().node(to).address;
  p.size_bytes = size;
  return p;
}

TEST(LinkTest, SerializationPlusPropagationDelay) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);

  // 8e6 bps link, 1000-byte packet -> 1 ms serialization + 10 ms prop.
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(10 * kMillisecond + 999 * kMicrosecond);
  EXPECT_EQ(net.link_runtime(line.mid).tx_packets, 1u);
  // The packet is delivered to s2 at exactly 11 ms.
  SwitchNode* s2 = net.switch_at(line.s2);
  EXPECT_EQ(s2->rx_packets(), 0u);
  net.RunUntil(11 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 1u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  // Two packets sent at t=0: second arrives one serialization time later.
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  SwitchNode* s2 = net.switch_at(line.s2);
  net.RunUntil(11 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 1u);
  net.RunUntil(12 * kMillisecond);
  EXPECT_EQ(s2->rx_packets(), 2u);
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Line line(8e6, /*mid_queue=*/2500);  // fits 2 x 1000B packets + slack
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  for (int i = 0; i < 5; ++i) {
    net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  }
  const auto& rt = net.link_runtime(line.mid);
  EXPECT_EQ(rt.tx_packets, 2u);
  EXPECT_EQ(rt.dropped_packets, 3u);
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s2)->rx_packets(), 2u);
}

TEST(LinkTest, QueueDrainsAllowingLaterTraffic) {
  Line line(8e6, 2500);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  for (int i = 0; i < 5; ++i) net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(kSecond);  // queue fully drained
  net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.link_runtime(line.mid).dropped_packets, 3u);
  EXPECT_EQ(net.link_runtime(line.mid).tx_packets, 3u);
}

TEST(LinkTest, UtilizationSamplingTracksLoad) {
  Line line(8e6, 1'000'000);
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.EnableLinkSampling(10 * kMillisecond);
  // Saturate: send 100 x 1000B = 100 ms worth of transmission over 100 ms.
  for (int i = 0; i < 100; ++i) net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, 1000));
  net.RunUntil(100 * kMillisecond);
  EXPECT_GT(net.LinkUtilization(line.mid), 0.8);
  // After the burst drains, utilization decays.
  net.RunUntil(500 * kMillisecond);
  EXPECT_LT(net.LinkUtilization(line.mid), 0.1);
}

// An arrival that meets a departure at the same nanosecond sees the
// departed bytes gone iff the departure's (t, seq) key comes first: iff
// the send that set it up was made before the arrival's event was
// scheduled.  `arrival_first` schedules each arrival ahead of those sends.
// Phase A (drop): four packets fill the 4000 B queue and the head departs
// at 1 ms as a 1000 B packet arrives.  Phase B (spike): three packets latch
// the half-full watermark at 10 ms; the last departs at 13 ms, emptying
// the queue (which re-arms the latch), as a 2500 B packet arrives.  The
// 1 ms link sampler meets departures at every tick too.
struct MeetingOutcome {
  std::uint64_t drops = 0;
  std::uint64_t spikes = 0;
  std::vector<double> utilization;  // after each 1 ms tick, 1..16 ms
};

MeetingOutcome RunSameInstantMeetings(bool arrival_first) {
  Line line(8e6, /*mid_queue=*/4000);  // 1000 B serialize in 1 ms
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  telemetry::Recorder rec;
  net.SetTelemetry(&rec);
  net.EnableLinkSampling(kMillisecond);
  const auto send = [&net, &line](std::uint32_t size) {
    net.SendOnLink(line.mid, MakeUdp(net, line.s1, line.h2, size));
  };
  const auto arrive_a = [&send] { send(1000); };
  const auto arrive_b = [&send] { send(2500); };

  if (arrival_first) net.events().ScheduleAt(kMillisecond, arrive_a);
  for (int i = 0; i < 4; ++i) send(1000);
  if (!arrival_first) net.events().ScheduleAt(kMillisecond, arrive_a);

  net.events().ScheduleAt(10 * kMillisecond, [&] {
    if (arrival_first) net.events().ScheduleAt(13 * kMillisecond, arrive_b);
    for (int i = 0; i < 3; ++i) send(1000);
    if (!arrival_first) net.events().ScheduleAt(13 * kMillisecond, arrive_b);
  });

  MeetingOutcome out;
  for (int ms = 1; ms <= 16; ++ms) {
    net.RunUntil(ms * kMillisecond);
    out.utilization.push_back(net.LinkUtilization(line.mid));
  }
  out.drops = net.link_runtime(line.mid).dropped_packets;
  out.spikes = rec.flight().CountOf(telemetry::FlightKind::kQueueSpike);
  EXPECT_EQ(net.link_runtime(line.mid).queued_bytes, 0u);
  net.SetTelemetry(nullptr);
  return out;
}

TEST(LinkTest, SameInstantArrivalAndDepartureOrderBySeq) {
  const MeetingOutcome a = RunSameInstantMeetings(/*arrival_first=*/true);
  const MeetingOutcome d = RunSameInstantMeetings(/*arrival_first=*/false);
  // Arrival first: phase A's arrival finds the queue full, and phase B's
  // arrival lands while the latch still holds.
  EXPECT_EQ(a.drops, 1u);
  EXPECT_EQ(a.spikes, 2u);
  // Departure first: phase A's arrival fits, and phase B's departure
  // re-arms the latch, so the arrival records a second phase-B spike.
  EXPECT_EQ(d.drops, 0u);
  EXPECT_EQ(d.spikes, 3u);
  // The 1 ms sampler, scheduled before every send, runs ahead of the 1 ms
  // departure, and each later tick (scheduled by the previous one) after
  // the departure it meets.  Pinned to the values a completion event per
  // transmission produces.
  const std::vector<double> want_a = {
      0, 1.2, 1.08, 1.032, 0.4128, 0.16512, 0.066048, 0.0264192,
      0.01056768, 0.004227072, 0.6016908288, 0.84067633152, 0.936270532608,
      0.3745082130432, 0.14980328521728, 1.5599213140869119};
  const std::vector<double> want_d = {
      0, 1.2, 1.08, 1.032, 1.0128, 0.40512, 0.162048, 0.0648192,
      0.02592768, 0.010371072, 0.6041484288, 0.84165937152, 0.936663748608,
      0.3746654994432, 0.14986619977728, 1.559946479910912};
  ASSERT_EQ(a.utilization.size(), want_a.size());
  ASSERT_EQ(d.utilization.size(), want_d.size());
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    EXPECT_NEAR(a.utilization[i], want_a[i], 1e-12) << "tick " << i + 1;
    EXPECT_NEAR(d.utilization[i], want_d[i], 1e-12) << "tick " << i + 1;
  }
}

TEST(SwitchTest, RoutesByDestinationAddress) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  Host* h1 = net.host_at(line.h1);
  h1->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  // Delivered end to end: both switches forwarded it.
  EXPECT_EQ(net.switch_at(line.s1)->forwarded_packets(), 1u);
  EXPECT_EQ(net.switch_at(line.s2)->forwarded_packets(), 1u);
}

TEST(SwitchTest, NoRouteDropsAreCounted) {
  Line line;
  Network net(line.t, 1);  // no routes installed
  Host* h1 = net.host_at(line.h1);
  h1->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s1)->no_route_drops(), 1u);
}

TEST(SwitchTest, OfflineSwitchDropsEverything) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  net.switch_at(line.s2)->SetOffline(true);
  net.host_at(line.h1)->SendPacket(MakeUdp(net, line.h1, line.h2, 500));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(line.s2)->offline_drops(), 1u);
  EXPECT_EQ(net.switch_at(line.s2)->forwarded_packets(), 0u);
}

TEST(SwitchTest, FlowRouteOverridesDstRouteForForwardPacketsOnly) {
  // Triangle: s1 connects to s2 directly and via s3.
  Topology t;
  const NodeId s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(NodeKind::kSwitch, "s2");
  const NodeId s3 = t.AddNode(NodeKind::kSwitch, "s3");
  const NodeId h1 = t.AddNode(NodeKind::kHost, "h1");
  const NodeId h2 = t.AddNode(NodeKind::kHost, "h2");
  t.AddDuplexLink(s1, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s1, s3, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s3, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s1, h1, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 100000);
  Network net(t, 1);
  control::InstallDstRoutes(net);

  // Pin flow 42's forward direction through s3.
  net.switch_at(s1)->SetFlowRoute(42, s3);
  Packet data = MakeUdp(net, h1, h2, 500);
  data.flow = 42;
  net.host_at(h1)->SendPacket(std::move(data));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);

  // An ACK of flow 42 toward h1 ignores the flow route (it would point the
  // wrong way) and uses destination routing.
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow = 42;
  ack.src = t.node(h2).address;
  ack.dst = t.node(h1).address;
  ack.size_bytes = 40;
  net.host_at(h2)->SendPacket(std::move(ack));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);  // unchanged
}

TEST(SwitchTest, FastRerouteUsesBackupWhenNeighborAvoided) {
  Topology t;
  const NodeId s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const NodeId s2 = t.AddNode(NodeKind::kSwitch, "s2");
  const NodeId s3 = t.AddNode(NodeKind::kSwitch, "s3");
  const NodeId h2 = t.AddNode(NodeKind::kHost, "h2");
  t.AddDuplexLink(s1, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s1, s3, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s3, s2, 1e9, kMillisecond, 100000);
  t.AddDuplexLink(s2, h2, 1e9, kMillisecond, 100000);
  Network net(t, 1);
  control::InstallDstRoutes(net);

  // Primary next hop from s1 to h2 is s2; avoid it -> backup via s3.
  net.switch_at(s1)->SetAvoidNeighbor(s2, true);
  Packet p = MakeUdp(net, s1, h2, 500);
  net.switch_at(s1)->SendRouted(std::move(p));
  net.RunUntil(kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);

  // Clearing the avoid restores the primary.
  net.switch_at(s1)->SetAvoidNeighbor(s2, false);
  Packet q = MakeUdp(net, s1, h2, 500);
  net.switch_at(s1)->SendRouted(std::move(q));
  net.RunUntil(2 * kSecond);
  EXPECT_EQ(net.switch_at(s3)->forwarded_packets(), 1u);  // unchanged
}

TEST(SwitchTest, TtlExpiryGeneratesIcmpReply) {
  Line line;
  Network net(line.t, 1);
  control::InstallDstRoutes(net);
  Packet probe;
  probe.kind = PacketKind::kTraceroute;
  probe.src = net.topology().node(line.h1).address;
  probe.dst = net.topology().node(line.h2).address;
  probe.ttl = 1;
  probe.seq = (1ULL << 8) | 1;
  bool got_reply = false;
  // Watch for the ICMP reply at h1 by running a traceroute-free check: the
  // reply is addressed to h1, so h1's switch s1 forwards twice (probe out,
  // reply back).
  net.host_at(line.h1)->SendPacket(std::move(probe));
  net.RunUntil(kSecond);
  // The probe expired at s1, which answered with a reply delivered to h1.
  EXPECT_EQ(net.switch_at(line.s1)->forwarded_packets(), 1u);  // the reply
  (void)got_reply;
}

}  // namespace
}  // namespace fastflex::sim
