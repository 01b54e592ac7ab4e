#include "sim/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "sim/network.h"
#include "sim/node.h"
#include "util/logging.h"

namespace fastflex::sim {

namespace {

// The shard whose dispatch loop the calling thread is inside (nullptr on
// the coordinator).  Typed void* because Shard is private to the engine.
thread_local void* g_current_shard = nullptr;

// One spin-wait hint: lets the sibling hyperthread run and avoids the
// memory-order pipeline flush when the awaited clock finally changes.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ShardedEngine::ShardedEngine(Network& net, Options opts) : net_(net) {
  if (net_.shard_engine_ != nullptr) {
    throw std::runtime_error("ShardedEngine: network already has an engine attached");
  }
  // Reserved keys (unsettled link departures, armed TCP RTO deadlines) live
  // in the global queue's seq numbering, which MigrateScheduledEvents
  // renumbers; none may exist yet, i.e. the run must not have started.
  if (net_.events_.reserved() != 0) {
    throw std::runtime_error(
        "ShardedEngine: attach before the run starts; the global queue has already "
        "reserved event keys (link departures, TCP RTO deadlines) that migration "
        "would renumber");
  }
  ValidateAndPartition(opts.shards);
  BuildChannels();

  // Per-entity RNG slots (lazily filled): sized now so no shard ever
  // resizes the vectors concurrently.
  net_.link_rngs_.resize(static_cast<std::size_t>(net_.topo_.NumLinks()));
  net_.node_rngs_.resize(static_cast<std::size_t>(net_.topo_.NumNodes()));

  coord_sink_.ctx = -1;
  coord_sink_.prof = net_.prof_;
  for (auto& s : shards_) {
    s->queue.Reserve(4096);
    if (net_.prof_ != nullptr) {
      s->prof = std::make_unique<telemetry::Profiler>();
      s->prof->Enable(net_.prof_->stride());
      s->queue.set_profiler(s->prof.get());
    }
    s->sink.prof = s->prof.get();
  }

  net_.shard_engine_ = this;
  net_.was_sharded_ = true;
  coord_processed_at_attach_ = net_.events_.processed();
  MigrateScheduledEvents();

  if (net_.telem_ != nullptr) {
    // Mid-run flight dumps (switch crash while shards hold unmergeed tails)
    // see the canonical merged ring: dump requests come from coordinator
    // contexts, where every shard is parked at a barrier.
    net_.telem_->flight().set_pre_dump_hook([this] { MergeFlightForDump(); });
  }

  for (auto& s : shards_) {
    Shard* sp = s.get();
    s->thread = std::thread([this, sp] { WorkerLoop(*sp); });
  }
}

ShardedEngine::~ShardedEngine() { Finish(); }

void ShardedEngine::ValidateAndPartition(int requested_shards) {
  const int num_nodes = static_cast<int>(net_.topo_.NumNodes());
  if (num_nodes == 0) throw std::runtime_error("ShardedEngine: empty topology");

  std::uint32_t min_label = net_.node_region(0);
  std::uint32_t max_label = min_label;
  for (NodeId n = 1; n < num_nodes; ++n) {
    const std::uint32_t l = net_.node_region(n);
    min_label = std::min(min_label, l);
    max_label = std::max(max_label, l);
  }
  const std::size_t num_regions = static_cast<std::size_t>(max_label - min_label) + 1;
  if (num_regions > static_cast<std::size_t>(num_nodes)) {
    throw std::runtime_error(
        "ShardedEngine: region labels are sparse (" + std::to_string(num_regions) +
        " labels spanned by " + std::to_string(num_nodes) +
        " nodes); set_node_region must assign dense labels");
  }
  std::vector<std::uint64_t> weight(num_regions, 0);
  for (NodeId n = 0; n < num_nodes; ++n) {
    ++weight[net_.node_region(n) - min_label];
  }
  for (std::size_t r = 0; r < num_regions; ++r) {
    if (weight[r] == 0) {
      throw std::runtime_error(
          "ShardedEngine: region label " + std::to_string(min_label + r) +
          " is unused but lies inside the assigned range [" + std::to_string(min_label) +
          ", " + std::to_string(max_label) +
          "]; the partitioner needs a dense label set — renumber the scenario's "
          "set_node_region calls");
    }
  }

  const int k = std::clamp(requested_shards, 1, static_cast<int>(num_regions));
  shards_.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
  }

  // Contiguous arcs: regions in label order, cut into k blocks of
  // near-equal node weight.  Scenarios number regions along the fabric, so
  // a ring or line of regions crosses only k shard boundaries (a
  // round-robin deal would cut every inter-region link).  Whole regions
  // only — a region is the unit of single-threaded state.  Cut j lands on
  // the prefix closest to j/k of the total weight (earlier cut on ties),
  // leaving at least one region for every block.
  std::vector<std::uint64_t> prefix(num_regions + 1, 0);
  for (std::size_t r = 0; r < num_regions; ++r) prefix[r + 1] = prefix[r] + weight[r];
  const std::uint64_t total = prefix[num_regions];
  const auto uk = static_cast<std::size_t>(k);
  std::vector<int> region_shard(num_regions, 0);
  std::size_t begin = 0;
  for (std::size_t j = 1; j <= uk; ++j) {
    std::size_t end = num_regions;
    if (j < uk) {
      // Distance of prefix[c] from the ideal cut, scaled by k (exact).
      const auto miss = [&](std::size_t c) {
        const std::uint64_t have = prefix[c] * uk;
        const std::uint64_t want = total * j;
        return have > want ? have - want : want - have;
      };
      end = begin + 1;
      for (std::size_t c = end + 1; c <= num_regions - (uk - j); ++c) {
        if (miss(c) < miss(end)) end = c;
      }
    }
    for (std::size_t r = begin; r < end; ++r) region_shard[r] = static_cast<int>(j - 1);
    begin = end;
  }

  node_shard_.resize(static_cast<std::size_t>(num_nodes));
  for (NodeId n = 0; n < num_nodes; ++n) {
    node_shard_[static_cast<std::size_t>(n)] =
        region_shard[net_.node_region(n) - min_label];
  }
}

void ShardedEngine::BuildChannels() {
  const auto num_links = static_cast<std::size_t>(net_.topo_.NumLinks());
  channels_.reserve(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    const auto& info = net_.topo_.link(static_cast<LinkId>(l));
    auto c = std::make_unique<ShardChannel>();
    c->link = static_cast<LinkId>(l);
    c->dst = info.to;
    c->src_shard = node_shard_[static_cast<std::size_t>(info.from)];
    c->dst_shard = node_shard_[static_cast<std::size_t>(info.to)];
    c->lookahead = info.prop_delay;
    c->cross = c->src_shard != c->dst_shard;
    if (c->cross) {
      if (info.prop_delay <= 0) {
        throw std::runtime_error(
            "ShardedEngine: link " + std::to_string(l) + " (" +
            std::to_string(info.from) + " -> " + std::to_string(info.to) +
            ") crosses shards with zero propagation delay; conservative sync "
            "needs lookahead > 0 — give the link a delay or co-locate the two "
            "regions");
      }
      min_cross_lookahead_ = std::min(min_cross_lookahead_, info.prop_delay);
      // Every shard starts at pos 0, so the first promise (0 + lookahead)
      // holds already: publishing it here spares the first round a wait.
      c->clock.store(c->lookahead, std::memory_order_relaxed);
    }
    Shard& dst = *shards_[static_cast<std::size_t>(c->dst_shard)];
    dst.inbound.push_back(c.get());
    if (c->cross) {
      dst.inbound_cross.push_back(c.get());
      dst.lookahead = std::min(dst.lookahead, c->lookahead);
      Shard& src = *shards_[static_cast<std::size_t>(c->src_shard)];
      src.outbound_cross.push_back(c.get());
      if (std::find(src.downstream.begin(), src.downstream.end(), &dst) ==
          src.downstream.end()) {
        src.downstream.push_back(&dst);
      }
    }
    channels_.push_back(std::move(c));
  }
}

void ShardedEngine::MigrateScheduledEvents() {
  // Scenario build ran before the engine existed, so its events sit on the
  // global queue tagged with their owner node (-1 = coordinator work like
  // attack drivers and link sampling).  Hand each one to its owner's queue;
  // fresh sequence numbers are assigned in global (t, seq) order, which
  // preserves every same-time relative order.
  auto events = net_.events_.ExtractAll();
  for (auto& ev : events) {
    if (ev.ctx >= 0 && ev.ctx < static_cast<std::int64_t>(node_shard_.size())) {
      Shard& s = *shards_[static_cast<std::size_t>(node_shard_[static_cast<std::size_t>(ev.ctx)])];
      s.queue.ScheduleAtCtx(ev.t, ev.ctx, std::move(ev.fn));
    } else {
      net_.events_.ScheduleAtCtx(ev.t, ev.ctx, std::move(ev.fn));
    }
  }
}

void ShardedEngine::ScheduleOnNode(NodeId node, SimTime at, EventQueue::Callback fn) {
  // Callers are the coordinator (between windows, when every shard is
  // parked) or the owner shard itself; both have exclusive access to the
  // owner queue.
  Shard& s = *shards_[static_cast<std::size_t>(node_shard_[static_cast<std::size_t>(node)])];
  s.queue.ScheduleAtCtx(at, node, std::move(fn));
}

void ShardedEngine::StageDelivery(LinkId link, SimTime arrive, Packet&& pkt) {
  ShardChannel& c = *channels_[static_cast<std::size_t>(link)];
  const std::uint64_t seq = c.next_seq++;
  auto* cur = static_cast<Shard*>(g_current_shard);
  if (c.cross) {
    // Cross-shard: by value through the inbox — ALWAYS, coordinator
    // included.  A coordinator push straight into the FIFO could land ahead
    // of earlier (smaller-t) worker sends still parked in the inbox; the
    // later drain would then append them behind it, breaking channel order.
    // The inbox serializes both writers (the src worker during windows, the
    // coordinator at barriers — never concurrent), and the receiver's
    // horizon (sender clock) guarantees it has not dispatched past `arrive`.
    ChannelMsg m;
    m.t = arrive;
    m.seq = seq;
    m.pkt = std::move(pkt);
    std::lock_guard<std::mutex> lk(c.mu);
    c.inbox.push_back(std::move(m));
    return;
  }
  // Same-shard channel: straight onto the receive FIFO (these inboxes are
  // never drained).  The sender is the owning shard itself or the
  // coordinator at a barrier — both have exclusive access.  Same-shard
  // messages park in the receiving shard's own pool — the per-hop
  // zero-allocation path, same as the legacy engine.
  Shard& dst = *shards_[static_cast<std::size_t>(c.dst_shard)];
  if (!c.fifo.empty() && arrive < c.fifo.back().t) {
    order_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  const bool was_empty = c.fifo.empty();
  ChannelMsg m;
  m.t = arrive;
  m.seq = seq;
  if (cur != nullptr && net_.pooling_) {
    m.handle = dst.pool.Acquire();
    m.pooled = true;
    *dst.pool.Get(m.handle) = std::move(pkt);
  } else {
    m.pkt = std::move(pkt);
  }
  c.fifo.push_back(std::move(m));
  if (was_empty) {
    dst.ready.push_back(&c);
    std::push_heap(dst.ready.begin(), dst.ready.end(), ChannelHeadAfter{});
  }
}

void ShardedEngine::DrainInboxes(Shard& s) {
  for (ShardChannel* c : s.inbound_cross) {
    {
      std::lock_guard<std::mutex> lk(c->mu);
      if (c->inbox.empty()) continue;
      c->drained.swap(c->inbox);  // the sender keeps the emptied buffer
    }
    ++s.stats.drains;
    for (auto& m : c->drained) {
      if (m.t < s.pos) horizon_violations_.fetch_add(1, std::memory_order_relaxed);
      if (!c->fifo.empty() &&
          (m.t < c->fifo.back().t ||
           (m.t == c->fifo.back().t && m.seq < c->fifo.back().seq))) {
        order_violations_.fetch_add(1, std::memory_order_relaxed);
      }
      const bool was_empty = c->fifo.empty();
      c->fifo.push_back(std::move(m));
      if (was_empty) {
        s.ready.push_back(c);
        std::push_heap(s.ready.begin(), s.ready.end(), ChannelHeadAfter{});
      }
    }
    c->drained.clear();
  }
}

void ShardedEngine::DeliverHead(Shard& s) {
  // Fix the merge heap BEFORE running the receiver: Receive may stage new
  // same-shard deliveries, which push into this heap reentrantly.
  std::pop_heap(s.ready.begin(), s.ready.end(), ChannelHeadAfter{});
  ShardChannel* c = s.ready.back();
  s.ready.pop_back();
  ChannelMsg msg = std::move(c->fifo.front());
  c->fifo.pop_front();
  if (!c->fifo.empty()) {
    if (c->fifo.front().t < msg.t) {
      order_violations_.fetch_add(1, std::memory_order_relaxed);
    }
    s.ready.push_back(c);
    std::push_heap(s.ready.begin(), s.ready.end(), ChannelHeadAfter{});
  }

  CurrentExec().ctx = c->dst;  // timers scheduled by the receiver inherit it
  s.sink.ctx = c->dst;
  s.sink.now = msg.t;
  s.queue.AdvanceTo(msg.t);  // Now() == delivery time inside Receive

  Node* node = net_.nodes_[static_cast<std::size_t>(c->dst)].get();
  telemetry::Profiler* prof = s.prof.get();
  if (prof != nullptr) [[unlikely]] {
    prof->RegionEvent(net_.node_region(c->dst), msg.t);
    telemetry::ProfScope scope(prof, telemetry::ProfSite::kEventDispatch);
    if (msg.pooled) {
      node->Receive(std::move(*s.pool.Get(msg.handle)), c->link);
      s.pool.Release(msg.handle);
    } else {
      node->Receive(std::move(msg.pkt), c->link);
    }
  } else {
    if (msg.pooled) {
      node->Receive(std::move(*s.pool.Get(msg.handle)), c->link);
      s.pool.Release(msg.handle);
    } else {
      node->Receive(std::move(msg.pkt), c->link);
    }
  }
  ++s.sink.deliveries;
}

void ShardedEngine::DispatchUpTo(Shard& s, SimTime cap) {
  // Canonical merge of the shard's heap with its inbound channel heads:
  // key (t, link id), heap events win ties — the same order for every K.
  for (;;) {
    const SimTime qt = s.queue.PeekTime();
    const SimTime dt =
        s.ready.empty() ? EventQueue::kNoEvent : s.ready.front()->fifo.front().t;
    if (qt <= dt) {
      if (qt > cap) break;
      s.queue.DispatchOne(cap);
    } else {
      if (dt > cap) break;
      DeliverHead(s);
    }
  }
}

void ShardedEngine::PublishClocks(Shard& s) {
  // Even a shard with nothing to do must keep its promise clocks advancing
  // or its neighbours never make progress (the null-message role).  pos is
  // monotone, so stores are monotone.
  bool moved = false;
  for (ShardChannel* c : s.outbound_cross) {
    const SimTime v = s.pos + c->lookahead;
    if (v > c->clock.load(std::memory_order_relaxed)) {
      c->clock.store(v, std::memory_order_seq_cst);
      moved = true;
    }
  }
  if (!moved) return;
  // Wake half of the park protocol (AwaitHorizon): the clock stores above
  // and these flag loads are seq_cst, so either the parking receiver's
  // re-check sees the new clock or this load sees its flag.
  for (Shard* d : s.downstream) {
    if (d->parked.load(std::memory_order_seq_cst)) {
      d->wake.fetch_add(1, std::memory_order_relaxed);
      d->wake.notify_one();
    }
  }
}

SimTime ShardedEngine::NextBound(const Shard& s, SimTime bound) const {
  // Horizon: load inbound clocks BEFORE draining — a clock load makes
  // every send below it visible to the drain that follows
  // (shard_channel.h), so dispatching strictly below the horizon can never
  // miss a delivery.
  SimTime horizon = EventQueue::kNoEvent;
  for (const ShardChannel* c : s.inbound_cross) {
    horizon = std::min(horizon, c->clock.load(std::memory_order_seq_cst));
  }
  // Step cap: never advance more than one lookahead per round.  Without
  // it, neighbours phase-lock into alternation — a shard at pos whose
  // neighbours sit at pos + L sees horizon pos + 2L and runs 2L while they
  // wait, then the roles swap — so only half the shards ever work at once.
  // Capped, every shard advances L per round in lockstep.  Saturating: at
  // K=1 the lookahead is kNoEvent.
  const SimTime cap = s.pos > EventQueue::kNoEvent - s.lookahead ? EventQueue::kNoEvent
                                                                  : s.pos + s.lookahead;
  return std::min({bound, horizon, cap});
}

SimTime ShardedEngine::AwaitHorizon(Shard& s, SimTime bound) {
  // Neighbours usually trail by a few microseconds of dispatch work, so
  // spin briefly first; past that, park so an oversubscribed host (K above
  // the core count) hands the core to the shard being waited on.
  constexpr int kSpinLimit = 64;
  const auto t0 = std::chrono::steady_clock::now();
  SimTime b = s.pos;
  int spins_left = kSpinLimit;
  while (b <= s.pos) {
    if (spins_left-- > 0) {
      CpuRelax();
      ++s.stats.spins;
    } else {
      // Park half of the protocol: read the wake word, raise the flag,
      // then re-check.  A neighbour publishing after the re-check sees the
      // flag (seq_cst on both sides, see PublishClocks) and bumps the word
      // away from `w`, so the wait cannot miss it.
      const std::uint32_t w = s.wake.load(std::memory_order_relaxed);
      s.parked.store(true, std::memory_order_seq_cst);
      if (NextBound(s, bound) <= s.pos) {
        ++s.stats.parks;
        s.wake.wait(w, std::memory_order_relaxed);
      }
      s.parked.store(false, std::memory_order_relaxed);
      spins_left = kSpinLimit;
    }
    b = NextBound(s, bound);
  }
  s.stats.stall_ns += ElapsedNs(t0);
  return b;
}

void ShardedEngine::RunShardWindow(Shard& s, SimTime bound) {
  for (;;) {
    PublishClocks(s);
    if (s.pos >= bound) break;
    SimTime b = NextBound(s, bound);
    if (b <= s.pos) b = AwaitHorizon(s, bound);
    // Drain only on advance, after the clock loads in NextBound.
    const auto t0 = std::chrono::steady_clock::now();
    DrainInboxes(s);
    DispatchUpTo(s, b - 1);
    s.stats.dispatch_ns += ElapsedNs(t0);
    ++s.stats.rounds;
    s.stats.advanced += b - s.pos;
    s.stats.max_step = std::max(s.stats.max_step, b - s.pos);
    s.pos = b;
  }
}

void ShardedEngine::WorkerLoop(Shard& s) {
  g_current_shard = &s;
  ExecContext& ec = CurrentExec();
  ec.queue = &s.queue;
  ec.ctx = -1;
  telemetry::SetCurrentShardSink(&s.sink);

  std::uint64_t seen_generation = 0;
  for (;;) {
    SimTime bound = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) break;
      seen_generation = generation_;
      bound = window_bound_;
    }
    RunShardWindow(s, bound);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_count_;
    }
    cv_done_.notify_one();
  }

  telemetry::SetCurrentShardSink(nullptr);
  ec.queue = nullptr;
  ec.ctx = -1;
  g_current_shard = nullptr;
}

void ShardedEngine::RunWindow(SimTime bound) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    window_bound_ = bound;
    done_count_ = 0;
    ++generation_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return done_count_ == static_cast<int>(shards_.size()); });
}

void ShardedEngine::RunGlobals(SimTime t) {
  // Coordinator work records into its own sink (ctx -1 sorts before any
  // node at equal times — "globals first" is part of the canonical order).
  telemetry::SetCurrentShardSink(&coord_sink_);
  coord_sink_.ctx = -1;
  coord_sink_.now = t;
  EventQueue& gq = net_.events_;
  while (gq.PeekTime() <= t) gq.DispatchOne(t);
  gq.AdvanceTo(t);
  telemetry::SetCurrentShardSink(nullptr);
}

void ShardedEngine::RunUntil(SimTime until) {
  if (finished_) throw std::runtime_error("ShardedEngine: RunUntil after Finish");
  EventQueue& gq = net_.events_;
  for (;;) {
    const SimTime tg = gq.PeekTime();
    if (tg > until) break;
    RunWindow(tg);        // shards advance strictly below the global event
    DrainPendingDumps();  // worker dump requests from the window, pre-globals
    RunGlobals(tg);  // exclusive: every global at tg (attacks, faults, probes)
  }
  // Final window: everything <= until.  Bound is exclusive, so until+1
  // dispatches t == until under the same horizon protocol (no special
  // inclusive phase — a symmetric "clocks must pass until" rule would
  // deadlock two mutually-sending shards).
  RunWindow(until + 1);
  DrainPendingDumps();
  for (auto& s : shards_) s->queue.AdvanceTo(until);
  gq.AdvanceTo(until);
}

std::vector<telemetry::ShardSyncStats> ShardedEngine::SyncStats() const {
  std::vector<telemetry::ShardSyncStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    telemetry::ShardSyncStats st = s->stats;
    st.shard = s->index;
    static_assert(telemetry::ShardSyncStats::kNoLookahead == EventQueue::kNoEvent);
    st.lookahead = s->lookahead;
    st.events = s->queue.processed() + s->sink.deliveries;
    // Every send on a channel takes one sequence number, so the sender's
    // tally costs nothing on the hot path.
    for (const ShardChannel* c : s->outbound_cross) st.cross_sends += c->next_seq;
    out.push_back(st);
  }
  return out;
}

std::uint64_t ShardedEngine::TotalEvents() const {
  std::uint64_t total = net_.events_.processed() - coord_processed_at_attach_;
  for (const auto& s : shards_) total += s->queue.processed() + s->sink.deliveries;
  return total;
}

void ShardedEngine::DrainPendingDumps() {
  if (net_.telem_ == nullptr) return;
  std::vector<telemetry::ShardSink::PendingDump> reqs;
  for (auto& s : shards_) {
    if (s->sink.pending_dumps.empty()) continue;
    reqs.insert(reqs.end(), s->sink.pending_dumps.begin(), s->sink.pending_dumps.end());
    s->sink.pending_dumps.clear();
  }
  if (reqs.empty()) return;
  // (t, ctx) is the canonical key everywhere else; here it also fixes the
  // dump ordinal sequence, so dumps_ is independent of the shard count.
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const telemetry::ShardSink::PendingDump& a,
                      const telemetry::ShardSink::PendingDump& b) {
                     return a.t != b.t ? a.t < b.t : a.ctx < b.ctx;
                   });
  telemetry::SetCurrentShardSink(&coord_sink_);
  for (auto& r : reqs) net_.telem_->flight().RequestDump(r.reason, r.t);
  telemetry::SetCurrentShardSink(nullptr);
}

void ShardedEngine::MergeFlightForDump() {
  if (net_.telem_ == nullptr) return;
  std::vector<const telemetry::ShardSink*> sinks;
  sinks.reserve(shards_.size() + 1);
  sinks.push_back(&coord_sink_);
  for (const auto& s : shards_) sinks.push_back(&s->sink);
  telemetry::MergeShardFlight(sinks, net_.telem_->flight());
}

void ShardedEngine::Finish() {
  if (finished_) return;
  finished_ = true;

  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }

  // Any dump requests still parked on worker sinks (raised after the last
  // RunUntil drain) execute now, while the kDump markers can still join the
  // final canonical merge below.
  DrainPendingDumps();

  // The merge below replays records through the regular recording paths, so
  // no sink may be installed on this thread.
  telemetry::SetCurrentShardSink(nullptr);

  std::vector<const telemetry::ShardSink*> sinks;
  sinks.reserve(shards_.size() + 1);
  sinks.push_back(&coord_sink_);
  for (const auto& s : shards_) sinks.push_back(&s->sink);

  net_.MergeSinkTelemetry(sinks);
  if (net_.telem_ != nullptr) {
    telemetry::MergeShardSinks(sinks, *net_.telem_);
    net_.telem_->flight().set_pre_dump_hook(nullptr);
  }
  if (net_.prof_ != nullptr) {
    for (const auto& s : shards_) {
      if (s->prof != nullptr) net_.prof_->MergeFrom(*s->prof);
    }
    for (const auto& st : SyncStats()) net_.prof_->AddShardSync(st);
  }
  std::uint64_t extra = 0;
  for (const auto& s : shards_) extra += s->queue.processed() + s->sink.deliveries;
  net_.extra_events_ += extra;
  net_.shard_engine_ = nullptr;
}

}  // namespace fastflex::sim
