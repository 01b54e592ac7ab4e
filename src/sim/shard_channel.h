// Deterministic cross-shard delivery channels for the sharded engine.
//
// Every topology link gets exactly one ShardChannel — including links whose
// endpoints land on the same shard.  That uniformity is what makes the
// delivery order canonical: a shard's dispatch loop merges its event-queue
// heap with the heads of its inbound channels under one fixed total order
//
//   key = (delivery time, link id), heap events win ties against deliveries
//
// which never mentions the shard count, so the K=4 interleaving restricted
// to one node is exactly the K=1 interleaving restricted to that node.
//
// A channel is single-writer / single-reader by construction: only the
// owner shard of the link's FROM node (or the coordinator, which runs
// exclusively at window barriers) stages sends on it, and only the owner
// shard of the TO node pops deliveries.  Same-shard channels skip all
// synchronization — the message parks in the shard's own PacketPool slot
// and goes straight onto the receive FIFO.  Cross-shard channels hand the
// packet over by value through a mutex-guarded inbox, paired with a
// published clock: the sender promises it will never again stage a send on
// this channel with a delivery time below `clock`.  The promise holds
// because link serialization makes per-channel delivery times monotone
// (arrive = max(now, next_free) + tx + prop, with next_free monotone per
// link), and because the clock is stored after the sends it covers — a
// load of the clock (seq_cst, hence at least acquire) therefore makes
// every covered inbox entry visible to the subsequent drain.  The clock is
// seq_cst rather than release/acquire only for the engine's park protocol
// (sharded_engine.cpp, AwaitHorizon).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "util/types.h"

namespace fastflex::sim {

/// One staged delivery.  `seq` is the channel-local send ordinal — the
/// deterministic tie-break that keeps replays of the same channel
/// byte-identical even if two sends share a delivery time (possible only
/// through pathological zero-rate links; real links serialize).  Same-shard
/// messages park the packet in the receiving shard's pool (`pooled`, zero
/// allocations hot path); cross-shard and coordinator sends carry the
/// packet by value.
struct ChannelMsg {
  SimTime t = 0;
  std::uint64_t seq = 0;
  PacketPool::Handle handle = PacketPool::kNullHandle;
  bool pooled = false;
  Packet pkt;
};

struct ShardChannel {
  LinkId link = -1;
  NodeId dst = kInvalidNode;
  int src_shard = 0;
  int dst_shard = 0;
  /// Minimum sender-to-receiver latency on this channel (the link's
  /// propagation delay): the conservative-sync lookahead.  Must be > 0 for
  /// cross-shard channels or the null-message protocol cannot make
  /// progress; validated at engine construction.
  SimTime lookahead = 0;
  bool cross = false;

  // ---- Sender side (owner shard of the FROM node / coordinator) ----
  std::uint64_t next_seq = 0;

  // ---- Receiver side (owner shard of the TO node) ----
  /// Pending deliveries in (t, seq) order.  Time-sorted by construction;
  /// the engine checks and counts any violation instead of trusting it.
  std::deque<ChannelMsg> fifo;

  // ---- Cross-shard handoff (untouched on same-shard channels) ----
  std::mutex mu;
  std::vector<ChannelMsg> inbox;  // staged under mu, drained under mu
  /// Receiver-owned drain buffer: swapped with `inbox` under mu, emptied
  /// into `fifo` outside it, then cleared — both vectors keep their
  /// capacity, so steady-state drains allocate nothing.
  std::vector<ChannelMsg> drained;
  /// Sender promise: no future send on this channel delivers below this.
  /// Stored AFTER the sends it covers; loaded by the receiver BEFORE
  /// draining, so every send below the loaded value is visible to that
  /// drain (see file comment).
  std::atomic<SimTime> clock{0};
};

/// Receiver-side merge heap entry ordering: a shard keeps a binary heap of
/// its nonempty inbound channels keyed by (head delivery time, link id).
/// Heads only change when the root is popped or an empty channel receives
/// its first message — appends to a nonempty channel never alter its head —
/// so plain std::push_heap/pop_heap maintenance at those two points keeps
/// the heap valid with no decrease-key machinery.
struct ChannelHeadAfter {
  bool operator()(const ShardChannel* a, const ShardChannel* b) const {
    const SimTime ta = a->fifo.front().t;
    const SimTime tb = b->fifo.front().t;
    // std:: heaps are max-heaps: "after" ordering puts the min on top.
    return ta != tb ? ta > tb : a->link > b->link;
  }
};

}  // namespace fastflex::sim
