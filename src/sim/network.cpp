#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "sim/handshake.h"
#include "sim/host.h"
#include "sim/sharded_engine.h"
#include "sim/switch_node.h"
#include "sim/tcp.h"
#include "sim/udp.h"
#include "util/logging.h"

namespace fastflex::sim {

namespace {

// splitmix64 finalizer: turns (run seed, entity kind, entity id) into an
// independent-looking stream seed.  Depends only on the entity identity, so
// per-entity draw sequences are the same for every shard count.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt, std::uint64_t id) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt * 1'000'003ull + id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Network::Network(Topology topo, std::uint64_t seed)
    : topo_(std::move(topo)),
      rng_(seed),
      seed_(seed),
      link_rt_(topo_.NumLinks()),
      departures_(topo_.NumLinks()) {
  // Pre-size the event heap so steady traffic never reallocates mid-run.
  events_.Reserve(4096);
  nodes_.reserve(topo_.NumNodes());
  for (const auto& n : topo_.nodes()) {
    if (n.kind == NodeKind::kSwitch) {
      nodes_.push_back(std::make_unique<SwitchNode>(this, n.id));
    } else {
      nodes_.push_back(std::make_unique<Host>(this, n.id));
      host_by_addr_[n.address] = n.id;
    }
  }
}

Network::~Network() = default;

Rng& Network::rng_for_link(LinkId link) {
  if (shard_engine_ == nullptr) return rng_;  // legacy: shared stream, old traces
  auto& slot = link_rngs_[static_cast<std::size_t>(link)];
  if (slot == nullptr) slot = std::make_unique<Rng>(MixSeed(seed_, 1, static_cast<std::uint64_t>(link)));
  return *slot;
}

Rng& Network::rng_for_node(NodeId node) {
  if (shard_engine_ == nullptr) return rng_;
  auto& slot = node_rngs_[static_cast<std::size_t>(node)];
  if (slot == nullptr) slot = std::make_unique<Rng>(MixSeed(seed_, 2, static_cast<std::uint64_t>(node)));
  return *slot;
}

void Network::ScheduleOnNode(NodeId node, SimTime at, EventQueue::Callback fn) {
  if (shard_engine_ != nullptr) {
    shard_engine_->ScheduleOnNode(node, at, std::move(fn));
    return;
  }
  // Same behavior as events_.ScheduleAt apart from the ownership tag (which
  // single-threaded dispatch ignores), so legacy runs are unchanged.
  events_.ScheduleAtCtx(at, node, std::move(fn));
}

SwitchNode* Network::switch_at(NodeId id) {
  return topo_.node(id).kind == NodeKind::kSwitch
             ? static_cast<SwitchNode*>(nodes_[static_cast<std::size_t>(id)].get())
             : nullptr;
}

Host* Network::host_at(NodeId id) {
  return topo_.node(id).kind == NodeKind::kHost
             ? static_cast<Host*>(nodes_[static_cast<std::size_t>(id)].get())
             : nullptr;
}

void Network::SendOnLink(LinkId link, Packet&& pkt) {
  auto& rt = link_rt_[static_cast<std::size_t>(link)];
  const auto& info = topo_.link(link);
  // The calling context's queue: the global one, or the sender's shard.
  EventQueue& q = events();
  const SimTime now = q.Now();
  const std::uint32_t size = pkt.size_bytes;
  // Sharded capture: registry counters/series are shared across workers, so
  // while a sink is installed the drop hooks count into it instead (summed
  // back at Finish).  FlightRecorder::Record redirects internally.
  telemetry::ShardSink* sink = telemetry::CurrentShardSink();

  if (!rt.up) {
    ++rt.down_drops;
    if (telem_ != nullptr) {
      if (sink != nullptr) [[unlikely]] ++sink->link_down_drops;
      else hooks_.link_down_drops->Inc();
      telem_->flight().Record(now, telemetry::FlightKind::kLinkDrop, link, size, 1);
    }
    return;
  }

  // Injected probabilistic faults (control-channel loss, corruption).  One
  // predictable branch on the fault-free hot path; rng draws happen only
  // while a fault window is open, so fault-free runs stay bit-identical to
  // their pre-fault traces.  Sharded runs draw from the link's own stream
  // so the sequence is independent of how other links interleave.
  if (rt.fault_active) [[unlikely]] {
    Rng& r = rng_for_link(link);
    if (rt.corrupt_prob > 0.0 && r.Bernoulli(rt.corrupt_prob)) {
      ++rt.corrupt_drops;
      return;
    }
    if (rt.probe_loss > 0.0 && pkt.kind == PacketKind::kProbe &&
        r.Bernoulli(rt.probe_loss)) {
      ++rt.probe_loss_drops;
      return;
    }
  }

  // Drop-tail admission on the (bytes-denominated) transmit queue, after
  // applying every transmission that has completed by now.
  SettleDepartures(static_cast<std::size_t>(link), q);
  if (rt.queued_bytes + size > info.queue_bytes) {
    ++rt.dropped_packets;
    rt.dropped_bytes += size;
    if (telem_ != nullptr) {
      if (sink != nullptr) [[unlikely]] {
        ++sink->link_drops;
        sink->drop_series.Add(now, 1.0);
      } else {
        hooks_.link_drops->Inc();
        hooks_.drop_series->Add(now, 1.0);
      }
      telem_->flight().Record(now, telemetry::FlightKind::kLinkDrop, link, size, 0);
    }
    return;
  }
  rt.queued_bytes += size;

  // Flight-recorder queue-spike watermark: one record when a link's queue
  // first crosses half capacity, re-armed (below) once it drains under a
  // quarter — hysteresis so a congested link logs a spike, not a flood.
  if (telem_ != nullptr && !rt.spike_latched && rt.queued_bytes * 2 > info.queue_bytes)
      [[unlikely]] {
    rt.spike_latched = true;
    telem_->flight().Record(now, telemetry::FlightKind::kQueueSpike, link,
                            static_cast<std::int64_t>(rt.queued_bytes),
                            static_cast<std::int64_t>(info.queue_bytes));
  }

  const SimTime start = std::max(now, rt.next_free);
  const auto tx_time = static_cast<SimTime>(
      std::ceil(static_cast<double>(size) * 8.0 / info.rate_bps * 1e9));
  rt.next_free = start + tx_time;
  const SimTime depart = rt.next_free;
  const SimTime arrive = depart + info.prop_delay;

  rt.tx_packets += 1;
  rt.tx_bytes += size;

  // Tx completion is settled lazily by the link's next reader, at the key
  // its event would have had: a seq reserved here, on the calling
  // context's queue (so under sharding the link's runtime state stays
  // single-writer: its from-node's shard, or the coordinator at a barrier).
  departures_[static_cast<std::size_t>(link)].q.push_back(
      Departure{depart, q.ReserveSeq(), size, &q == &events_});
  if (shard_engine_ != nullptr) {
    // Sharded delivery: through the link's channel, so the receiving shard
    // merges it deterministically against its own events (shard_channel.h).
    shard_engine_->StageDelivery(link, arrive, std::move(pkt));
    return;
  }
  const NodeId to = info.to;
  if (pooling_) [[likely]] {
    // Park the packet in a pooled slot; the delivery closure carries only
    // the handle, so it stays within the callback's inline capture budget.
    // Zero allocations per hop once the pool and heap are warm.
    const PacketPool::Handle h = pool_.Acquire();
    *pool_.Get(h) = std::move(pkt);
    events_.ScheduleAt(arrive, [this, to, link, h] {
      if (prof_ != nullptr) [[unlikely]] prof_->RegionEvent(node_region(to), Now());
      nodes_[static_cast<std::size_t>(to)]->Receive(std::move(*pool_.Get(h)), link);
      pool_.Release(h);
    });
  } else {
    // Pre-pool behavior, kept for A/B measurement: the packet rides inside
    // the closure, which exceeds the inline budget and is heap-boxed.
    events_.ScheduleAt(arrive, [this, to, link, p = std::move(pkt)]() mutable {
      if (prof_ != nullptr) [[unlikely]] prof_->RegionEvent(node_region(to), Now());
      nodes_[static_cast<std::size_t>(to)]->Receive(std::move(p), link);
    });
  }
}

void Network::SettleDepartures(std::size_t l) const {
  if (departures_[l].head == departures_[l].q.size()) return;
  const ExecContext& ec = CurrentExec();
  SettleDepartures(l, ec.queue != nullptr ? *ec.queue : events_);
}

void Network::SettleDepartures(std::size_t l, const EventQueue& q) const {
  DepartureFifo& fifo = departures_[l];
  if (fifo.head == fifo.q.size()) return;
  const bool reader_global = &q == &events_;
  // The reader's position: (t, r) on its own queue, r == kNoSeq outside
  // any heap event (a sharded channel delivery, or the coordinator between
  // global events).
  const SimTime t = q.Now();
  const std::uint64_t r = q.CurrentSeq();
  LinkRuntime& rt = link_rt_[l];
  const std::uint64_t capacity = topo_.link(static_cast<LinkId>(l)).queue_bytes;
  for (; fifo.head < fifo.q.size(); ++fifo.head) {
    const Departure& d = fifo.q[fifo.head];
    // Would the completion event at (depart, seq) have run before the
    // reader?  Earlier times always have.  At equal times: the same queue
    // orders by seq; globals run before shard events; and a shard event
    // has run before a coordinator reader outside any global event.
    const bool ran = d.depart != t              ? d.depart < t
                     : d.global == reader_global ? d.seq < r
                                                 : d.global || r == EventQueue::kNoSeq;
    if (!ran) break;
    rt.queued_bytes -= d.size;
    // Utilization accounting happens at transmission completion, so a burst
    // sitting in the queue registers as sustained load, not a spike.
    rt.bytes_since_sample += d.size;
    if (rt.spike_latched && rt.queued_bytes * 4 < capacity) [[unlikely]] {
      rt.spike_latched = false;
    }
  }
  if (fifo.head == fifo.q.size()) {
    fifo.q.clear();
    fifo.head = 0;
  } else if (fifo.head >= 64 && fifo.head * 2 >= fifo.q.size()) {
    // A link that never drains keeps its FIFO bounded: drop the settled
    // prefix once it is at least half the buffer (amortised O(1)).
    fifo.q.erase(fifo.q.begin(), fifo.q.begin() + static_cast<std::ptrdiff_t>(fifo.head));
    fifo.head = 0;
  }
}

void Network::EnableLinkSampling(SimTime period) {
  if (sample_period_ > 0) return;  // already enabled
  sample_period_ = period;
  last_sample_ = Now();
  events_.ScheduleAfter(period, [this, period] { SampleLinks(period); });
}

void Network::SampleLinks(SimTime period) {
  const SimTime now = Now();
  const double dt = ToSeconds(now - last_sample_);
  last_sample_ = now;
  if (dt > 0) {
    for (std::size_t l = 0; l < link_rt_.size(); ++l) {
      SettleDepartures(l);
      auto& rt = link_rt_[l];
      const double inst =
          static_cast<double>(rt.bytes_since_sample) * 8.0 / (dt * topo_.link(static_cast<LinkId>(l)).rate_bps);
      rt.bytes_since_sample = 0;
      // Light smoothing keeps detectors from flapping on single-window noise
      // while still reacting within a few sample periods.
      rt.utilization = 0.6 * inst + 0.4 * rt.utilization;
    }
  }
  events_.ScheduleAfter(period, [this, period] { SampleLinks(period); });
}

FlowId Network::StartTcpFlow(NodeId src, NodeId dst, const TcpParams& params, SimTime at) {
  Host* s = host_at(src);
  Host* d = host_at(dst);
  if (s == nullptr || d == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{src, dst});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 80;
  d->AttachEndpoint(flow, std::make_unique<TcpReceiver>(this, d, flow, s->address(), sport,
                                                        dport, params.mss, params.isn));
  auto sender = std::make_unique<TcpSender>(this, s, flow, d->address(), sport, dport, params);
  TcpSender* sender_ptr = sender.get();
  s->AttachEndpoint(flow, std::move(sender));
  // Pin the start (and every timer the sender chains from it) to the source
  // host's shard.
  ScheduleOnNode(src, at, [sender_ptr] { sender_ptr->Start(); });
  return flow;
}

FlowId Network::StartSynSession(NodeId client, NodeId server, const HandshakeParams& params,
                                SimTime at) {
  Host* c = host_at(client);
  Host* s = host_at(server);
  if (c == nullptr || s == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{client, server});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 80;
  auto ep = std::make_unique<HandshakeClient>(this, c, flow, s->address(), sport, dport,
                                              params);
  HandshakeClient* ep_ptr = ep.get();
  c->AttachEndpoint(flow, std::move(ep));
  ScheduleOnNode(client, at, [ep_ptr] { ep_ptr->Start(); });
  return flow;
}

FlowId Network::StartUdpFlow(NodeId src, NodeId dst, const UdpParams& params, SimTime at) {
  Host* s = host_at(src);
  Host* d = host_at(dst);
  if (s == nullptr || d == nullptr) return kInvalidFlow;
  const FlowId flow = next_flow_++;
  flow_stats_.emplace(flow, FlowStats{});
  flow_endpoints_.emplace(flow, FlowEndpoints{src, dst});
  const auto sport = static_cast<std::uint16_t>(10'000 + (flow % 50'000));
  const std::uint16_t dport = 53;
  d->AttachEndpoint(flow, std::make_unique<UdpSink>(this, flow));
  auto sender = std::make_unique<UdpSender>(this, s, flow, d->address(), sport, dport, params);
  UdpSender* sender_ptr = sender.get();
  s->AttachEndpoint(flow, std::move(sender));
  ScheduleOnNode(src, at, [sender_ptr] { sender_ptr->Start(); });
  return flow;
}

void Network::StopFlow(FlowId flow) {
  auto ep_it = flow_endpoints_.find(flow);
  if (ep_it == flow_endpoints_.end()) return;
  for (NodeId n : {ep_it->second.src, ep_it->second.dst}) {
    Host* h = host_at(n);
    if (h == nullptr) continue;
    if (sim::FlowEndpoint* ep = h->endpoint(flow)) ep->Stop();
  }
  flow_stats_[flow].stopped = true;
}

NodeId Network::HostByAddress(Address a) const {
  auto it = host_by_addr_.find(a);
  return it == host_by_addr_.end() ? kInvalidNode : it->second;
}

void Network::RecordGoodput(FlowId flow, std::uint64_t bytes) {
  auto& st = flow_stats_[flow];
  st.delivered_bytes += bytes;
  st.goodput.Add(Now(), static_cast<double>(bytes));
}

void Network::RecordRetransmit(FlowId flow) {
  ++flow_stats_[flow].retransmits;
  if (telem_ != nullptr) {
    if (telemetry::ShardSink* sink = telemetry::CurrentShardSink()) [[unlikely]] {
      ++sink->retransmits;
      sink->retx_series.Add(Now(), 1.0);
      return;
    }
    hooks_.retransmits->Inc();
    hooks_.retx_series->Add(Now(), 1.0);
  }
}

void Network::MergeSinkTelemetry(const std::vector<const telemetry::ShardSink*>& sinks) {
  // Summable shadows: plain addition (order-free).
  std::uint64_t link_drops = 0, link_down_drops = 0, retransmits = 0, policy = 0;
  for (const auto* s : sinks) {
    link_drops += s->link_drops;
    link_down_drops += s->link_down_drops;
    retransmits += s->retransmits;
    policy += s->policy_drops;
  }
  policy_drops_ += policy;
  if (telem_ == nullptr) return;
  hooks_.link_drops->Inc(link_drops);
  hooks_.link_down_drops->Inc(link_down_drops);
  hooks_.retransmits->Inc(retransmits);
  hooks_.policy_drops->Inc(policy);
  for (const auto* s : sinks) {
    for (std::size_t i = 0; i < s->drop_series.NumBins(); ++i) {
      const double v = s->drop_series.BinTotal(i);
      if (v != 0.0) hooks_.drop_series->Add(s->drop_series.BinStart(i), v);
    }
    for (std::size_t i = 0; i < s->retx_series.NumBins(); ++i) {
      const double v = s->retx_series.BinTotal(i);
      if (v != 0.0) hooks_.retx_series->Add(s->retx_series.BinStart(i), v);
    }
  }
  // cwnd-on-loss is a Welford summary — order-sensitive — so the tagged
  // samples replay in canonical (t, owner) order, making the result
  // independent of the shard count (same argument as shard_sink.h).
  std::vector<telemetry::ShardSink::CwndSample> cwnd;
  for (const auto* s : sinks) cwnd.insert(cwnd.end(), s->cwnd.begin(), s->cwnd.end());
  std::stable_sort(cwnd.begin(), cwnd.end(),
                   [](const telemetry::ShardSink::CwndSample& a,
                      const telemetry::ShardSink::CwndSample& b) {
                     return a.t != b.t ? a.t < b.t : a.ctx < b.ctx;
                   });
  for (const auto& c : cwnd) hooks_.cwnd_on_loss->Add(c.cwnd);
}

void Network::SetTelemetry(telemetry::Recorder* recorder) {
  telem_ = recorder;
  prof_ = recorder != nullptr ? recorder->prof().enabled_self() : nullptr;
  events_.set_profiler(prof_);
  if (recorder == nullptr) {
    hooks_ = TelemetryHooks{};
    return;
  }
  auto& m = recorder->metrics();
  hooks_.link_drops = &m.GetCounter("net.link.drop_tail_drops");
  hooks_.link_down_drops = &m.GetCounter("net.link.down_drops");
  hooks_.drop_series = &m.GetSeries("net.link.drops", 100 * kMillisecond);
  hooks_.retransmits = &m.GetCounter("net.tcp.retransmits");
  hooks_.retx_series = &m.GetSeries("net.tcp.retransmits", 100 * kMillisecond);
  hooks_.cwnd_on_loss = &m.GetSummary("net.tcp.cwnd_on_loss");
  hooks_.policy_drops = &m.GetCounter("net.policy_drops");
}

void Network::CollectTelemetry(telemetry::Recorder& recorder) const {
  auto& m = recorder.metrics();
  for (std::size_t l = 0; l < link_rt_.size(); ++l) {
    SettleDepartures(l);
    const auto& rt = link_rt_[l];
    // Quiet links stay out of the artifact so it scales with activity, not
    // with topology size.
    if (rt.tx_packets == 0 && rt.dropped_packets == 0 && rt.down_drops == 0) continue;
    const std::string p = telemetry::Join("link", l);
    m.GetCounter(p + ".tx_packets").Set(rt.tx_packets);
    m.GetCounter(p + ".tx_bytes").Set(rt.tx_bytes);
    m.GetCounter(p + ".dropped_packets").Set(rt.dropped_packets);
    m.GetCounter(p + ".dropped_bytes").Set(rt.dropped_bytes);
    m.GetCounter(p + ".down_drops").Set(rt.down_drops);
    // Injected-fault drop counters appear only on affected links so
    // fault-free artifacts keep their exact pre-fault key set.
    if (rt.probe_loss_drops > 0) m.GetCounter(p + ".probe_loss_drops").Set(rt.probe_loss_drops);
    if (rt.corrupt_drops > 0) m.GetCounter(p + ".corrupt_drops").Set(rt.corrupt_drops);
    m.GetGauge(p + ".utilization").Set(rt.utilization);
    m.GetGauge(p + ".queued_bytes").Set(static_cast<double>(rt.queued_bytes));
  }
  for (const auto& node : nodes_) {
    node->CollectTelemetry(recorder);
  }
  std::uint64_t delivered = 0, retx = 0;
  std::size_t completed = 0;
  for (const auto& [flow, st] : flow_stats_) {
    delivered += st.delivered_bytes;
    retx += st.retransmits;
    if (st.completed) ++completed;
  }
  m.GetCounter("flows.total").Set(flow_stats_.size());
  m.GetCounter("flows.completed").Set(completed);
  m.GetCounter("flows.delivered_bytes").Set(delivered);
  m.GetCounter("flows.retransmits").Set(retx);
  m.GetCounter("events.processed").Set(TotalEventsProcessed());
  m.GetGauge("sim.now_seconds").Set(ToSeconds(Now()));
  // Pool and event-heap internals are partition-dependent by nature (each
  // shard has its own pool and queue, and how work splits across them is
  // exactly what varies with K), so a sharded run omits them — the
  // byte-identity contract covers the keys that remain.
  if (was_sharded_) return;
  // Packet-arena health: slots == high-water in-flight packets; recycled /
  // acquires == how hard the freelist works.  Deterministic per seed.
  m.GetCounter("net.pool.acquires").Set(pool_.acquires());
  m.GetCounter("net.pool.recycled").Set(pool_.recycled());
  m.GetCounter("net.pool.slots").Set(pool_.slots());
  // High-water marks that were previously internal-only: how big the event
  // heap got, and how many in-flight packets the arena peaked at.  Gauges
  // because they are levels, not accumulations.  Deterministic per seed.
  m.GetGauge("sim.event_queue.peak_pending").Set(static_cast<double>(events_.peak_pending()));
  m.GetGauge("net.pool.hwm_slots").Set(static_cast<double>(pool_.slots()));
}

double Network::AggregateGoodputBps(const std::vector<FlowId>& flows, SimTime t) const {
  double total = 0.0;
  for (FlowId f : flows) {
    auto it = flow_stats_.find(f);
    if (it == flow_stats_.end()) continue;
    const auto& series = it->second.goodput;
    const auto bin = static_cast<std::size_t>(t / series.bin_width());
    total += series.Rate(bin) * 8.0;
  }
  return total;
}

}  // namespace fastflex::sim
