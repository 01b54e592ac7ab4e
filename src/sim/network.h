// Network: the live simulation — event queue, link runtime state (queues,
// serialization, drops), node objects, flow bookkeeping, and link-load
// sampling.  One Network instance is one experiment run.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/exec_context.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/topology.h"
#include "telemetry/shard_sink.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace fastflex::sim {

class Node;
class SwitchNode;
class Host;
class ShardedEngine;

/// Dynamic per-link state: transmission scheduling, drop-tail queue, stats.
/// queued_bytes, bytes_since_sample and spike_latched change when a
/// transmission completes; Network settles those completions lazily, so
/// read them through Network::link_runtime(), which settles first.
struct LinkRuntime {
  SimTime next_free = 0;         // when the transmitter becomes idle
  std::uint64_t queued_bytes = 0;  // bytes waiting for or in transmission
  bool up = true;                // physical state (failures silently blackhole)
  bool fault_active = false;     // gates the probabilistic-fault branch below
  SimTime down_since = 0;        // when `up` last went false (failover detection)
  double probe_loss = 0.0;       // P(drop) for control probes (partitioned floods)
  double corrupt_prob = 0.0;     // P(drop) for any packet (corruption faults)
  bool spike_latched = false;    // flight-recorder queue-spike hysteresis latch

  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t down_drops = 0;  // packets lost to a failed link
  std::uint64_t probe_loss_drops = 0;  // control probes lost to injected loss
  std::uint64_t corrupt_drops = 0;     // packets lost to injected corruption

  // Updated by the periodic sampler: fraction of capacity used in the last
  // sample window, lightly smoothed.
  double utilization = 0.0;
  std::uint64_t bytes_since_sample = 0;
};

/// Per-flow delivery statistics, recorded at the receiver.
struct FlowStats {
  TimeSeries goodput{100 * kMillisecond};  // delivered payload bytes per bin
  std::uint64_t delivered_bytes = 0;
  std::uint64_t retransmits = 0;
  bool completed = false;
  bool stopped = false;
  SimTime completed_at = 0;
};

/// Endpoints of a flow (who talks to whom) — the telemetry a centralized
/// controller uses to build its traffic matrix.
struct FlowEndpoints {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

/// Parameters of a TCP-like flow.
struct TcpParams {
  std::uint32_t mss = 1000;          // payload bytes per segment
  std::uint32_t wire_overhead = 40;  // header bytes added on the wire
  double init_cwnd = 2.0;
  double max_cwnd = 1e9;             // segments; attack flows cap this low
  SimTime min_rto = 200 * kMillisecond;
  std::uint64_t total_bytes = 0;     // 0 = unbounded (runs until sim end)
  /// Initial sequence number: segment numbering starts at isn + 1.  Flows
  /// started directly (StartTcpFlow) keep the default 0; handshake-created
  /// connections use the negotiated server ISN, so a SYN proxy's
  /// sequence-number translation is observable — a wrong or missing
  /// translation breaks delivery instead of silently working.
  std::uint64_t isn = 0;
};

/// Parameters of a client-initiated TCP session: a 3-way handshake followed
/// by a server->client download (see sim/handshake.h).  The server side is
/// the host's attached TcpListener, which supplies the download size.
struct HandshakeParams {
  TcpParams tcp;                  // the client's receive parameters (mss)
  SimTime syn_timeout = kSecond;  // SYN retransmission interval
  int max_syn_retries = 4;        // give up after this many unanswered SYNs
};

/// Parameters of a constant-bit-rate UDP flow, optionally pulsed on/off.
struct UdpParams {
  double rate_bps = 1e6;
  std::uint32_t packet_bytes = 1000;
  SimTime on_duration = 0;   // 0 = always on
  SimTime off_duration = 0;
  /// Source-address spoofing: when non-empty the sender stamps each packet
  /// with the next address from this list instead of its own (round-robin).
  /// Replies, if any, go to the spoofed owners — exactly the reflection
  /// behavior spoofed floods have in reality.
  std::vector<Address> spoof_srcs;
};

class Network {
 public:
  /// Builds the live network from a static topology: a SwitchNode per
  /// switch, a Host per host.  `seed` drives all randomness in the run.
  explicit Network(Topology topo, std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The event queue of the calling execution context: the worker's shard
  /// queue when running under a ShardedEngine dispatch loop, else the
  /// global queue.  Node/endpoint code schedules through this, so timers
  /// land on the scheduling entity's own shard automatically.
  EventQueue& events() {
    ExecContext& ec = CurrentExec();
    return ec.queue != nullptr ? *ec.queue : events_;
  }
  SimTime Now() const {
    const ExecContext& ec = CurrentExec();
    return ec.queue != nullptr ? ec.queue->Now() : events_.Now();
  }

  /// The run's shared generator.  Legal only from single-threaded contexts
  /// (build, legacy runs, coordinator globals at a barrier); shard-context
  /// code must draw from rng_for_link / rng_for_node instead.
  Rng& rng() { return rng_; }

  /// Per-entity deterministic streams, used by shard-context draw sites so
  /// a draw sequence depends only on the entity's own history (and is
  /// therefore independent of the shard count).  Outside a sharded run
  /// both return the shared generator, preserving legacy traces.
  Rng& rng_for_link(LinkId link);
  Rng& rng_for_node(NodeId node);

  /// The run seed the network was built with.  Deployment code derives
  /// per-run secrets from it (hash-structure salts, mode-flood auth keys)
  /// via DeriveSalt, so defenses are keyed per scenario without any extra
  /// configuration surface.
  std::uint64_t seed() const { return seed_; }

  const Topology& topology() const { return topo_; }
  Topology& topology() { return topo_; }

  SwitchNode* switch_at(NodeId id);
  Host* host_at(NodeId id);
  Node* node_at(NodeId id) { return nodes_[static_cast<std::size_t>(id)].get(); }

  /// Transmits a packet over a simplex link: drop-tail admission, FIFO
  /// serialization at the link rate, delivery after propagation delay.
  /// The in-flight packet is parked in the packet pool and the delivery
  /// event carries only a slot handle, so the steady-state hot path
  /// performs no heap allocation per hop.
  void SendOnLink(LinkId link, Packet&& pkt);

  /// The per-network packet arena (single-threaded by ownership: one pool
  /// per network, one network per experiment cell).
  PacketPool& pool() { return pool_; }
  const PacketPool& pool() const { return pool_; }

  /// A/B knob for the packet-path benches: with pooling off, SendOnLink
  /// reverts to carrying each in-flight packet inside a heap-boxed closure
  /// (the pre-pool behavior).  Defaults to on; exists only so the
  /// regression gate can measure the pool's effect in one binary.
  void set_packet_pooling(bool on) { pooling_ = on; }
  bool packet_pooling() const { return pooling_; }

  /// The link's runtime state, with every transmission that has completed
  /// by the calling context's (t, seq) position settled.  Call it from the
  /// link's owner: its from-node's shard, or the coordinator.
  const LinkRuntime& link_runtime(LinkId l) const {
    SettleDepartures(static_cast<std::size_t>(l));
    return link_rt_[static_cast<std::size_t>(l)];
  }

  /// Starts periodic utilization sampling on all links (needed by local
  /// detectors and by the SDN baseline's telemetry).
  void EnableLinkSampling(SimTime period);

  /// Current sampled utilization of a link, in [0, ~1].
  double LinkUtilization(LinkId l) const {
    return link_rt_[static_cast<std::size_t>(l)].utilization;
  }

  /// Fails or restores one simplex link.  A failed link silently
  /// blackholes traffic — no notification to anyone; detecting it IS the
  /// data plane's job (Blink-style recovery).  The down transition is
  /// timestamped so a fast-failover PPM can model loss-of-light detection
  /// latency instead of reacting instantaneously.
  void SetLinkUp(LinkId l, bool up) {
    auto& rt = link_rt_[static_cast<std::size_t>(l)];
    if (rt.up && !up) rt.down_since = Now();
    rt.up = up;
  }

  /// Fails/restores both directions of a duplex connection.
  void SetDuplexUp(LinkId forward, bool up) {
    SetLinkUp(forward, up);
    SetLinkUp(topo_.link(forward).reverse, up);
  }

  /// Control-channel degradation: control probes (PacketKind::kProbe) on
  /// `l` are dropped with probability `p`.  Models a partitioned or lossy
  /// mode-flood path without touching data traffic.
  void SetProbeLoss(LinkId l, double p) {
    auto& rt = link_rt_[static_cast<std::size_t>(l)];
    rt.probe_loss = p;
    rt.fault_active = rt.probe_loss > 0.0 || rt.corrupt_prob > 0.0;
  }

  /// Random corruption on `l`: every packet is dropped with probability
  /// `p` (a corrupted frame fails its checksum and never reaches the peer).
  void SetCorruption(LinkId l, double p) {
    auto& rt = link_rt_[static_cast<std::size_t>(l)];
    rt.corrupt_prob = p;
    rt.fault_active = rt.probe_loss > 0.0 || rt.corrupt_prob > 0.0;
  }

  // ---- Flows ----

  /// Starts a TCP-like flow from host `src` to host `dst` at time `at`.
  FlowId StartTcpFlow(NodeId src, NodeId dst, const TcpParams& params, SimTime at);

  /// Starts a UDP CBR flow (volumetric / pulsing attacks).
  FlowId StartUdpFlow(NodeId src, NodeId dst, const UdpParams& params, SimTime at);

  /// Starts a handshake-initiated TCP session: `client` sends a SYN toward
  /// `server` at `at`; the download begins once the server's TcpListener
  /// accepts.  Requires a listener attached to `server` (else the SYN is
  /// simply never answered and the client gives up after its retries).
  FlowId StartSynSession(NodeId client, NodeId server, const HandshakeParams& params,
                         SimTime at);

  /// Stops a flow (sender ceases transmission).
  void StopFlow(FlowId flow);

  FlowStats& flow_stats(FlowId flow) { return flow_stats_[flow]; }
  const std::unordered_map<FlowId, FlowStats>& all_flow_stats() const { return flow_stats_; }

  /// Who talks to whom (controller telemetry).
  FlowEndpoints flow_endpoints(FlowId flow) const {
    auto it = flow_endpoints_.find(flow);
    return it == flow_endpoints_.end() ? FlowEndpoints{} : it->second;
  }
  const std::unordered_map<FlowId, FlowEndpoints>& all_flow_endpoints() const {
    return flow_endpoints_;
  }

  /// Sum of goodput of the given flows in the bin containing `t`, in bits/s.
  double AggregateGoodputBps(const std::vector<FlowId>& flows, SimTime t) const;

  /// Address -> host node id resolution.
  NodeId HostByAddress(Address a) const;

  /// Runs the simulation until `t` on the legacy single-threaded path.
  /// Byte-for-byte identical to historical behavior; sharded runs go
  /// through ShardedEngine::RunUntil instead.
  void RunUntil(SimTime t) { events_.RunUntil(t); }

  /// Schedules `fn` at `at` pinned to `node`'s execution context: under a
  /// sharded engine it lands on the node's owner shard; otherwise it is
  /// ScheduleAt with an explicit owner tag (so a later engine attach can
  /// migrate it).  Flow-start chains and per-host timers use this — the
  /// callback will run on the thread that owns the node's state.
  void ScheduleOnNode(NodeId node, SimTime at, EventQueue::Callback fn);

  // Internal: receivers call this when in-order payload bytes are delivered.
  void RecordGoodput(FlowId flow, std::uint64_t bytes);
  // Internal: senders call this on retransmissions (detector ground truth).
  void RecordRetransmit(FlowId flow);

  std::uint64_t total_policy_drops() const { return policy_drops_; }
  void CountPolicyDrop() {
    // Sharded capture: the member and the registry counter are shared, so
    // shard workers count into their private sink; sums fold in at Finish.
    if (telemetry::ShardSink* sink = telemetry::CurrentShardSink()) [[unlikely]] {
      ++sink->policy_drops;
      return;
    }
    ++policy_drops_;
    if (telem_ != nullptr) hooks_.policy_drops->Inc();
  }

  // ---- Telemetry ----

  /// Attaches (nullptr: detaches) a telemetry recorder.  Hot-path hooks
  /// resolve their metrics here once; per-packet cost while detached is one
  /// branch per hook site.  The recorder's profiler pointer is cached here
  /// too, so call `recorder->prof().Enable()` BEFORE attaching if you want
  /// hot-path profiling for the run.
  void SetTelemetry(telemetry::Recorder* recorder);
  telemetry::Recorder* telemetry() const { return telem_; }

  /// Topology-region label with two consumers: the profiler's per-region
  /// event-density attribution, and — since the sharded engine — the
  /// PARTITIONING RULE: ShardedEngine groups whole regions onto shards, so
  /// this label decides which thread owns a node.  It is still deliberately
  /// separate from SwitchNode::region() (which scopes mode-probe flooding
  /// and therefore changes protocol behavior), and it still must not affect
  /// single-threaded simulation results; but it is no longer purely
  /// observational.  ShardedEngine validates at construction that the
  /// assigned labels form a dense set (every label in [min, min+R) used)
  /// and fails fast with a clear error otherwise.  It cuts the labels into
  /// contiguous blocks, so number regions along the fabric (ring or line
  /// order) to keep shard boundaries few.  Scenario builders assign it;
  /// unassigned nodes default to region 0.
  void set_node_region(NodeId id, std::uint32_t region) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= node_region_.size()) node_region_.resize(i + 1, 0);
    node_region_[i] = region;
  }
  std::uint32_t node_region(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return i < node_region_.size() ? node_region_[i] : 0;
  }

  /// The profiler hook for the calling context: the per-shard instance
  /// when running under a sharded engine (the shared one would be a data
  /// race across workers), else the cached attach-time pointer.  Non-null
  /// only while profiling is enabled.  Nodes use it for their ProfScopes.
  telemetry::Profiler* profiler() const { return telemetry::ResolveProf(prof_); }

  /// Snapshots per-link runtime counters, per-switch forwarding counters,
  /// and aggregate flow statistics into `recorder`'s registry.  Call at the
  /// end of a run (or periodically) — this is the pull half of the
  /// telemetry; the push half is the per-event hooks above.
  void CollectTelemetry(telemetry::Recorder& recorder) const;

  // Internal: hot-path hooks (senders/receivers call these; one branch when
  // no recorder is attached).
  void RecordCwndSample(double cwnd) {
    if (telem_ == nullptr) return;
    // The registry Summary is order-sensitive (Welford): shard workers
    // buffer tagged samples; MergeSinkTelemetry replays them in canonical
    // (t, owner) order so the summary is byte-identical for any K.
    if (telemetry::ShardSink* sink = telemetry::CurrentShardSink()) [[unlikely]] {
      sink->cwnd.push_back(telemetry::ShardSink::CwndSample{Now(), sink->ctx, cwnd});
      return;
    }
    hooks_.cwnd_on_loss->Add(cwnd);
  }

  /// Total events dispatched across the run: the global queue's count plus
  /// (after a sharded run) shard heap events and channel deliveries.
  std::uint64_t TotalEventsProcessed() const { return events_.processed() + extra_events_; }

 private:
  friend class ShardedEngine;

  void SampleLinks(SimTime period);

  /// A transmission whose completion is not yet applied to its link: when
  /// it departs, the (depart, seq) key its completion event would have had
  /// (the seq is reserved on the sender's queue), the bytes it frees, and
  /// whether that queue is the global one (else the from-node's shard).
  struct Departure {
    SimTime depart;
    std::uint64_t seq;
    std::uint32_t size;
    bool global;
  };
  /// One link's unsettled departures in send order; `head` is the first
  /// live entry.  Departures strictly increase along a link, so settling
  /// always consumes a prefix.
  struct DepartureFifo {
    std::vector<Departure> q;
    std::size_t head = 0;
  };

  /// Applies, in FIFO order, every departure of link `l` whose completion
  /// event would already have run at the calling context's position, one
  /// entry at a time: queued_bytes down, bytes_since_sample up, spike
  /// latch re-armed under a quarter of capacity.
  void SettleDepartures(std::size_t l) const;
  /// The same for a reader on queue `q` (the global one or a shard's).
  void SettleDepartures(std::size_t l, const EventQueue& q) const;

  /// Folds the per-shard sinks' summable shadows back into the registry
  /// hooks and members (counters by addition, series bin-wise, cwnd by
  /// canonical-order replay).  Called once by ShardedEngine::Finish.
  void MergeSinkTelemetry(const std::vector<const telemetry::ShardSink*>& sinks);

  /// Metrics resolved once at SetTelemetry so per-packet updates are plain
  /// pointer increments (references into the registry stay valid).
  struct TelemetryHooks {
    telemetry::Counter* link_drops = nullptr;
    telemetry::Counter* link_down_drops = nullptr;
    TimeSeries* drop_series = nullptr;   // all-link drop-tail drops over time
    telemetry::Counter* retransmits = nullptr;
    TimeSeries* retx_series = nullptr;   // retransmissions over time
    Summary* cwnd_on_loss = nullptr;     // cwnd observed at loss events
    telemetry::Counter* policy_drops = nullptr;
  };

  Topology topo_;
  EventQueue events_;
  Rng rng_;
  std::uint64_t seed_;  // kept for deriving per-entity streams (sharded mode)
  // Per-entity generators, created lazily on first draw from a shard
  // context; each slot is touched only by its entity's owner shard (or the
  // coordinator at a barrier), so no lock is needed.  Sized at engine
  // attach; empty in legacy runs.
  std::vector<std::unique_ptr<Rng>> link_rngs_;
  std::vector<std::unique_ptr<Rng>> node_rngs_;
  PacketPool pool_;
  bool pooling_ = true;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Mutable: settling departures materialises state that is logically
  // already current, so const readers (link_runtime, CollectTelemetry)
  // settle too.
  mutable std::vector<LinkRuntime> link_rt_;
  mutable std::vector<DepartureFifo> departures_;  // by LinkId
  std::unordered_map<FlowId, FlowStats> flow_stats_;
  std::unordered_map<FlowId, FlowEndpoints> flow_endpoints_;
  std::unordered_map<Address, NodeId> host_by_addr_;
  FlowId next_flow_ = 1;
  SimTime sample_period_ = 0;
  SimTime last_sample_ = 0;
  std::uint64_t policy_drops_ = 0;
  telemetry::Recorder* telem_ = nullptr;
  telemetry::Profiler* prof_ = nullptr;  // non-null only when enabled at attach
  std::vector<std::uint32_t> node_region_;  // region labels (profiler + sharding)
  TelemetryHooks hooks_;
  ShardedEngine* shard_engine_ = nullptr;  // non-null while attached
  bool was_sharded_ = false;  // a sharded engine ran: omit K-dependent export keys
  std::uint64_t extra_events_ = 0;  // shard heap events + deliveries (set at Finish)
};

}  // namespace fastflex::sim
