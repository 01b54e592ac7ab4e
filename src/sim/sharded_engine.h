// ShardedEngine: conservative-sync parallel execution of one Network.
//
// Scenarios opt in through sim::RunOptions::shards (scenarios::RunScenario
// and the per-scenario options structs); shards <= 0 keeps the legacy
// single-threaded Network::RunUntil path.
//
// The topology is partitioned into K shards along the scenario's
// set_node_region labels (whole regions never split): regions are taken in
// label order and cut into K contiguous blocks of near-equal node weight,
// so a ring or line of regions crosses only K shard boundaries.  Each
// shard owns a private EventQueue, PacketPool, telemetry ShardSink, and
// (when profiling is on) Profiler, and runs on its own worker thread.
// Cross-shard packet hops travel through per-link ShardChannels under a
// null-message protocol: each sender publishes clock = local position +
// link propagation delay, and a shard may dispatch up to (exclusive) the
// minimum of its inbound channel clocks — further capped at position +
// its smallest inbound lookahead, which keeps neighbours in lockstep
// rounds instead of alternating (DESIGN.md §11).  A shard whose horizon
// has not moved pause-spins briefly, then parks on a per-shard wake word
// that publishing neighbours bump.  All cross-shard links must have
// strictly positive propagation delay or the protocol cannot advance.
//
// Time is additionally windowed by the coordinator: shards run in parallel
// strictly below the next global event's time, then park at a barrier
// while the coordinator (the caller's thread) runs global events — attack
// drivers, fault injections, link sampling, scenario probes — with
// exclusive access to everything.  "Globals before shard events at equal
// times" is part of the canonical order (a global at time T runs before
// any node event at T).
//
// Determinism contract: for a fixed seed and scenario, every byte of
// telemetry outside the "prof" section is identical for any shard count —
// K=4 replays K=1 exactly.  The argument, in brief (DESIGN.md §11):
//   - per-node event order is pinned by each shard's (t, seq) heap plus
//     the channel merge key (t, link), with a fixed heap-beats-delivery
//     tie rule — none of which mention K;
//   - events on different nodes at incomparable times commute: they touch
//     disjoint simulation state, and every order-sensitive telemetry
//     stream is captured per worker and replayed in canonical (t, owner
//     node) order at Finish (telemetry/shard_sink.h);
//   - per-entity RNG streams (per link, per switch) replace the shared
//     generator, so draw sequences depend on the entity's own history
//     only.
// The legacy single-threaded path (Network::RunUntil without an engine) is
// untouched and keeps its historical byte-exact traces; the contract here
// is sharded(K) == sharded(1), not sharded == legacy.
//
// Lifecycle: construct AFTER the scenario is built (the constructor
// migrates already-scheduled events onto their owner shards), call
// RunUntil one or more times from the building thread, then Finish() to
// merge telemetry and detach.  The destructor calls Finish if the caller
// did not.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/packet_pool.h"
#include "sim/shard_channel.h"
#include "telemetry/prof.h"
#include "telemetry/shard_sink.h"
#include "util/types.h"

namespace fastflex::sim {

class Network;

class ShardedEngine {
 public:
  struct Options {
    /// Requested shard count; clamped to [1, number of regions].  0 means
    /// "one shard" (useful as a scenario default: the engine code path
    /// with no parallelism).
    int shards = 1;
  };

  /// Validates region labels (must form a dense label set, see
  /// ValidateRegions), partitions, builds channels, migrates pre-scheduled
  /// events, and starts worker threads (parked until RunUntil).
  /// Throws std::runtime_error on invalid labels or a cross-shard link
  /// with zero propagation delay.
  ShardedEngine(Network& net, Options opts);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Advances the whole fabric to `until` (inclusive, like
  /// EventQueue::RunUntil).  Callable repeatedly with increasing times.
  void RunUntil(SimTime until);

  /// Joins workers and merges per-shard telemetry (sinks, profilers,
  /// event counts) back into the Network/Recorder.  Idempotent.  After
  /// Finish the Network is detached and usable single-threaded again.
  void Finish();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int shard_of_node(NodeId node) const {
    return node_shard_[static_cast<std::size_t>(node)];
  }

  /// Events dispatched under the engine: per-shard heap events plus
  /// channel deliveries plus coordinator globals processed while attached.
  std::uint64_t TotalEvents() const;

  /// Smallest cross-shard lookahead (kNoEvent when K=1 / no cross links).
  SimTime min_cross_lookahead() const { return min_cross_lookahead_; }

  /// Per-shard synchronisation counters accumulated so far (rounds, steps,
  /// dispatch vs stall wall time, spins, parks, sends, drains).  Call only
  /// while the workers are parked: between RunUntil calls or after Finish.
  /// Finish also records them into the network's profiler, if any.
  std::vector<telemetry::ShardSyncStats> SyncStats() const;

  // ---- Invariant counters (must stay 0; tests pin them) ----
  /// Deliveries that arrived below an already-dispatched position — a
  /// lookahead/horizon violation.
  std::uint64_t horizon_violations() const { return horizon_violations_.load(); }
  /// Channel messages observed out of (t, seq) order — a FIFO violation.
  std::uint64_t order_violations() const { return order_violations_.load(); }

  /// Called by Network::SendOnLink in sharded mode: stages the packet on
  /// the link's channel for delivery at `arrive`.
  void StageDelivery(LinkId link, SimTime arrive, Packet&& pkt);

  /// Called by Network::ScheduleOnNode in sharded mode: pins `fn` onto the
  /// owner shard of `node`.  Legal from the coordinator (between windows /
  /// at build) and from the owner shard itself.
  void ScheduleOnNode(NodeId node, SimTime at, EventQueue::Callback fn);

 private:
  struct Shard {
    int index = 0;
    EventQueue queue;
    PacketPool pool;
    telemetry::ShardSink sink;
    std::unique_ptr<telemetry::Profiler> prof;
    std::vector<ShardChannel*> inbound;        // all channels delivering here
    std::vector<ShardChannel*> inbound_cross;  // subset with a foreign sender
    std::vector<ShardChannel*> outbound_cross;
    std::vector<ShardChannel*> ready;  // merge heap of nonempty inbound
    std::vector<Shard*> downstream;    // distinct receivers of outbound_cross
    SimTime pos = 0;                   // exclusive dispatch frontier
    /// Smallest inbound cross-shard lookahead: no round advances pos by
    /// more than this (kNoEvent when nothing crosses in).
    SimTime lookahead = EventQueue::kNoEvent;
    /// Park protocol (AwaitHorizon): `parked` is set while the worker may
    /// block on `wake`; a neighbour that publishes a clock while it is set
    /// bumps `wake` and notifies.
    std::atomic<std::uint32_t> wake{0};
    std::atomic<bool> parked{false};
    telemetry::ShardSyncStats stats;  // counters, owner worker only
    std::thread thread;
  };

  void ValidateAndPartition(int requested_shards);
  void BuildChannels();
  void MigrateScheduledEvents();
  void WorkerLoop(Shard& s);
  /// Runs shard `s` forward until its frontier reaches `bound`
  /// (exclusive), advancing through the null-message horizon.
  void RunShardWindow(Shard& s, SimTime bound);
  /// Stores pos + lookahead on every outbound cross channel and wakes any
  /// parked receiver.
  void PublishClocks(Shard& s);
  /// The frontier `s` may advance to now: min(bound, inbound horizon,
  /// pos + lookahead).  A result <= pos means "must wait".
  SimTime NextBound(const Shard& s, SimTime bound) const;
  /// Waits until NextBound exceeds pos — a bounded pause-spin, then parks
  /// on the shard's wake word — and returns that bound.
  SimTime AwaitHorizon(Shard& s, SimTime bound);
  /// Dispatches heap events and channel deliveries with t <= cap under the
  /// canonical merge order.
  void DispatchUpTo(Shard& s, SimTime cap);
  void DeliverHead(Shard& s);
  void DrainInboxes(Shard& s);
  /// Parks shards, then runs every global event with t <= `t` on the
  /// caller's thread with exclusive access.
  void RunGlobals(SimTime t);
  /// Releases workers to advance every shard to `bound` (exclusive) and
  /// blocks until all are parked again.
  void RunWindow(SimTime bound);
  void MergeFlightForDump();
  /// Executes dump requests deferred by workers (flight_recorder.h): all
  /// shards must be parked.  Requests drain in (t, ctx) order — a pure
  /// function of the run — with the coordinator sink installed so the
  /// kDump markers survive later canonical merges.
  void DrainPendingDumps();

  Network& net_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;  // by LinkId
  std::vector<int> node_shard_;
  telemetry::ShardSink coord_sink_;
  SimTime min_cross_lookahead_ = EventQueue::kNoEvent;
  std::uint64_t coord_processed_at_attach_ = 0;
  bool finished_ = false;

  // Barrier state (generation-counted so spurious wakeups are harmless).
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  SimTime window_bound_ = 0;
  int done_count_ = 0;
  bool shutdown_ = false;

  std::atomic<std::uint64_t> horizon_violations_{0};
  std::atomic<std::uint64_t> order_violations_{0};
};

}  // namespace fastflex::sim
