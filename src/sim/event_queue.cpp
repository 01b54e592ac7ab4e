#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "sim/exec_context.h"
#include "telemetry/shard_sink.h"

namespace fastflex::sim {

ExecContext& CurrentExec() {
  thread_local ExecContext exec;
  return exec;
}

void EventQueue::SiftUp(std::size_t hole, Key k) {
  Key* h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!Before(k, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = k;
}

void EventQueue::SiftDown(std::size_t hole, Key k) {
  Key* h = heap_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Before(h[c], h[best])) best = c;
    }
    if (!Before(h[best], k)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = k;
}

std::uint32_t EventQueue::Park(std::int64_t ctx, Callback&& fn) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = static_cast<std::uint32_t>(ctx_[s]);
    ctx_[s] = ctx;
    fns_[s] = std::move(fn);
    return s;
  }
  const auto s = static_cast<std::uint32_t>(fns_.size());
  fns_.push_back(std::move(fn));
  ctx_.push_back(ctx);
  return s;
}

void EventQueue::Admit(SimTime t, std::int64_t ctx, Callback&& fn) {
  if (t < now_) t = now_;
  const Key k{t, next_seq_++, Park(ctx, std::move(fn))};
  heap_.push_back(k);
  SiftUp(heap_.size() - 1, k);
}

EventQueue::Event EventQueue::PopTop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  const std::int64_t ctx = ctx_[top.slot];
  ctx_[top.slot] = free_head_;
  free_head_ = top.slot;
  return Event{top.t, top.seq, ctx, std::move(fns_[top.slot])};
}

void EventQueue::Reserve(std::size_t events) {
  heap_.reserve(events);
  fns_.reserve(events);
  ctx_.reserve(events);
}

void EventQueue::ScheduleAt(SimTime t, Callback fn) {
  ScheduleAtCtx(t, CurrentExec().ctx, std::move(fn));
}

void EventQueue::ScheduleAtCtx(SimTime t, std::int64_t ctx, Callback fn) {
  Admit(t, ctx, std::move(fn));
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

void EventQueue::ScheduleBulk(std::vector<TimedEvent> batch) {
  if (batch.empty()) return;
  // Heuristic: a batch that rivals the pending set is cheaper to admit by
  // appending every key and re-heapifying once (Floyd, O(n)) than by
  // sifting each entry up.
  const bool rebuild = batch.size() >= heap_.size() / 4 + 1;
  const std::int64_t ctx = CurrentExec().ctx;
  if (rebuild) {
    heap_.reserve(heap_.size() + batch.size());
    for (auto& e : batch) {
      const SimTime t = e.t < now_ ? now_ : e.t;
      heap_.push_back(Key{t, next_seq_++, Park(ctx, std::move(e.fn))});
    }
    const std::size_t n = heap_.size();
    if (n > 1) {
      for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) SiftDown(i, heap_[i]);
    }
  } else {
    for (auto& e : batch) Admit(e.t, ctx, std::move(e.fn));
  }
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

void EventQueue::Fire(Event& ev) {
  now_ = ev.t;
  ++processed_;
  if (prof_ != nullptr) [[unlikely]] {
    if ((processed_ & 63u) == 0) prof_->QueueOccupancy(heap_.size());
    telemetry::ProfScope scope(prof_, telemetry::ProfSite::kEventDispatch);
    ev.fn();
  } else {
    ev.fn();
  }
}

void EventQueue::RunUntil(SimTime until) {
  while (!heap_.empty() && heap_.front().t <= until) {
    Event ev = PopTop();  // pop before firing: the callback may schedule
    Fire(ev);
  }
  if (now_ < until) now_ = until;
}

bool EventQueue::DispatchOne(SimTime cap) {
  if (heap_.empty() || heap_.front().t > cap) return false;
  Event ev = PopTop();  // pop before firing: the callback may schedule
  CurrentExec().ctx = ev.ctx;  // rescheduled timers inherit ownership
  if (telemetry::ShardSink* sink = telemetry::CurrentShardSink()) [[unlikely]] {
    sink->ctx = ev.ctx;  // tag captured records with the emitting owner
    sink->now = ev.t;
  }
  Fire(ev);
  return true;
}

std::vector<EventQueue::Event> EventQueue::ExtractAll() {
  std::sort(heap_.begin(), heap_.end(), Before);
  std::vector<Event> out;
  out.reserve(heap_.size());
  for (const Key& k : heap_) {
    out.push_back(Event{k.t, k.seq, ctx_[k.slot], std::move(fns_[k.slot])});
  }
  heap_.clear();
  fns_.clear();
  ctx_.clear();
  free_head_ = kNoSlot;
  return out;
}

void EventQueue::RunAll() {
  while (!heap_.empty()) {
    Event ev = PopTop();
    Fire(ev);
  }
}

}  // namespace fastflex::sim
