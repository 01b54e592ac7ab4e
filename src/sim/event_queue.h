// Discrete-event engine.
//
// A 4-ary min-heap of 24-byte keys {time, insertion sequence, slot} over a
// slot arena that parks each pending callback and its owner tag.
//
// Ordering contract (replay identity depends on it): events pop in
// ascending time, and events scheduled for the *same* simulated time pop in
// insertion order.  The (t, seq) key is a total order — no two events ever
// compare equal — so the pop sequence is a pure function of the schedule
// calls and never depends on heap internals (arity, sift order, capacity,
// arena slot reuse, std-library version).  The parallel experiment runner's
// "1 thread vs N threads bit-identical" guarantee reduces to this property,
// because every worker replays its cells on a private queue.
//
// Why the heap holds keys, not events: a sift level moves one heap entry,
// and a 64-byte SmallCallback can only move through its indirect relocate
// call.  Parking the callback in an arena slot once at admission means the
// sifts shuffle plain 24-byte keys (hole-based: each level is one key copy,
// no swaps) and the callback moves once more, out of its slot, when it
// pops.  (Regrowing the arena relocates parked callbacks too, but that is
// amortised and stops once the arena reaches the run's peak; Reserve
// pre-sizes it.)  The slot is freed before the callback runs, so the
// callback may schedule — reusing that very slot through the LIFO freelist
// — and may grow the arena without invalidating anything it touches.
//
// Reserved keys: ReserveSeq takes the next insertion seq without admitting
// anything, and ScheduleAtSeq admits a callback at such a key later.  A
// reservation consumes its seq exactly where a ScheduleAt at the same call
// site would, so every other event keeps the key it would have had, and a
// caller that settles an event's work lazily (link departures) or defers
// admitting it (TCP's one live RTO timer) leaves the pop order of all
// remaining events unchanged.
//
// Callbacks are SmallCallback, not std::function: hot-path closures (packet
// delivery, timers) stay within the inline capture budget, so scheduling an
// event performs no heap allocation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/small_callback.h"
#include "telemetry/prof.h"
#include "util/types.h"

namespace fastflex::sim {

class EventQueue {
 public:
  using Callback = SmallCallback;

  /// A (time, callback) pair for ScheduleBulk.
  struct TimedEvent {
    SimTime t = 0;
    Callback fn;
  };

  /// A popped or extracted event.  `ctx` is the owner-node tag stamped from
  /// the scheduling thread's ExecContext (-1 = global); ShardedEngine uses
  /// it to migrate pre-scheduled events into their owner shards.  Public so
  /// ExtractAll can hand events across queues without copying callbacks.
  struct Event {
    SimTime t;
    std::uint64_t seq;
    std::int64_t ctx;
    Callback fn;
  };

  /// Sentinel returned by PeekTime() on an empty queue.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
  /// CurrentSeq() between events: compares after every real seq.
  static constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

  SimTime Now() const { return now_; }

  /// The running event's insertion seq, or kNoSeq outside any callback.
  /// Together with Now() it is the (t, seq) key of the work in progress.
  std::uint64_t CurrentSeq() const { return cur_seq_; }

  /// Schedules `fn` at absolute time `t` (clamped to Now()).
  void ScheduleAt(SimTime t, Callback fn);

  /// ScheduleAt with an explicit owner-node tag instead of the calling
  /// context's (Network::ScheduleOnNode uses this to pin flow-start chains
  /// to their source host's shard).
  void ScheduleAtCtx(SimTime t, std::int64_t ctx, Callback fn);

  /// Schedules `fn` after a delay relative to Now().
  void ScheduleAfter(SimTime delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  /// Takes the next insertion seq without admitting an event: the key a
  /// ScheduleAt here would have received.
  std::uint64_t ReserveSeq() {
    ++reserved_;
    return next_seq_++;
  }

  /// Admits `fn` at the reserved key (t, seq), owned by the calling
  /// context.  The caller must admit before the queue pops past that key
  /// (t >= Now(), and no event after (t, seq) has run yet); each reserved
  /// seq may be admitted at most once.
  void ScheduleAtSeq(SimTime t, std::uint64_t seq, Callback fn);

  /// Bulk-schedule fast path: admits a whole batch, assigning insertion
  /// sequence numbers in batch order (so same-time entries fire in batch
  /// order, interleaving correctly with prior and later ScheduleAt calls).
  /// For batches that are large relative to the pending set this rebuilds
  /// the key heap once (Floyd, O(pending + batch)) instead of paying
  /// O(log n) sifts per entry.
  void ScheduleBulk(std::vector<TimedEvent> batch);

  /// Pre-sizes the key heap and the slot arena (24 + 64 + 8 bytes per
  /// event) so admission never reallocates mid-run.
  void Reserve(std::size_t events);

  /// Runs events until the queue is empty or the next event is after `until`.
  /// Time advances to `until` even if the queue drains earlier.
  void RunUntil(SimTime until);

  /// Runs everything (use only in tests with finite event chains).
  void RunAll();

  // ---- Sharded-engine dispatch surface ------------------------------------
  // ShardedEngine interleaves heap events with channel deliveries under a
  // per-window time bound, so it needs single-step dispatch instead of
  // RunUntil's closed loop.  Semantics per event are identical to RunUntil's
  // body (now_ advance, processed_ count, profiler scope + every-64th
  // occupancy sample).

  /// Time of the earliest pending event, or kNoEvent when empty.
  SimTime PeekTime() const { return heap_.empty() ? kNoEvent : heap_.front().t; }

  /// Pops and runs the earliest event if its time is <= `cap`; returns
  /// whether an event ran.  Sets the calling thread's ExecContext ctx to the
  /// event's owner tag for the duration of the callback, so rescheduled
  /// timers inherit ownership.
  bool DispatchOne(SimTime cap);

  /// Advances Now() without running anything (window close / delivery sync).
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Removes and returns every pending event in (t, seq) pop order, leaving
  /// the queue empty.  ShardedEngine calls this once at attach to migrate
  /// the scenario's pre-scheduled events onto shard queues by ctx tag.
  /// Re-admission renumbers them, so a reserved key still held elsewhere
  /// would lose its place: callers check reserved() first.
  std::vector<Event> ExtractAll();

  /// Number of keys ReserveSeq has handed out over the queue's life.
  std::uint64_t reserved() const { return reserved_; }

  bool Empty() const { return heap_.empty(); }
  std::size_t Pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Largest pending-set size ever reached.  Always tracked (one compare
  /// per admission) — the queue's high-water mark is how a run's memory
  /// footprint is sized, so it is worth having even without a recorder.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Attaches (nullptr: detaches) a profiler: each dispatched event runs
  /// under a kEventDispatch scope, and every 64th dispatch records the
  /// pending-set size as a queue-occupancy sample.  The sampling decision
  /// keys off the processed-event counter, so which dispatches sample —
  /// and therefore the occupancy data — is a pure function of the run.
  void set_profiler(telemetry::Profiler* prof) { prof_ = prof; }

 private:
  /// A heap entry: the ordering key plus the arena slot of its callback.
  struct Key {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  /// Strict total order: earlier time first, earlier insertion first.
  static bool Before(const Key& a, const Key& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Hole-based sifts: `hole` is a vacant position and `k` the key to
  /// place.  Entries shift into the hole until `k` fits there, and `k` is
  /// written once.
  void SiftUp(std::size_t hole, Key k);
  void SiftDown(std::size_t hole, Key k);

  /// Parks `fn` in a free slot (the most recently freed one first, else a
  /// new one at the arena's end) and returns its index.
  std::uint32_t Park(std::int64_t ctx, Callback&& fn);
  void Admit(SimTime t, std::uint64_t seq, std::int64_t ctx, Callback&& fn);
  /// Removes the earliest key, moves its callback out and frees its slot.
  Event PopTop();
  void Fire(Event& ev);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cur_seq_ = kNoSeq;
  std::uint64_t reserved_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_pending_ = 0;
  telemetry::Profiler* prof_ = nullptr;
  std::vector<Key> heap_;  // 4-ary min-heap under Before()
  // The slot arena, as two parallel arrays indexed by slot.  A free slot
  // holds an empty callback, and its ctx_ entry holds the next free slot
  // (kNoSlot ends the list), so the freelist costs no extra storage.
  std::vector<Callback> fns_;
  std::vector<std::int64_t> ctx_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace fastflex::sim
