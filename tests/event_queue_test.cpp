// Discrete-event engine tests: ordering, determinism, re-entrancy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/exec_context.h"
#include "util/rng.h"

namespace fastflex::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueueTest, SimultaneousEventsRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  q.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(10, [&] { ++ran; });
  q.ScheduleAt(20, [&] { ++ran; });
  q.ScheduleAt(21, [&] { ++ran; });
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.Now(), 20);
  EXPECT_EQ(q.Pending(), 1u);
}

TEST(EventQueueTest, TimeAdvancesToUntilEvenWhenIdle) {
  EventQueue q;
  q.RunUntil(1000);
  EXPECT_EQ(q.Now(), 1000);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.RunUntil(100);
  int ran = 0;
  q.ScheduleAt(50, [&] { ++ran; });  // in the past; clamps to now=100
  q.RunUntil(100);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> fired;
  std::function<void()> chain = [&] {
    fired.push_back(q.Now());
    if (fired.size() < 5) q.ScheduleAfter(10, chain);
  };
  q.ScheduleAt(0, chain);
  q.RunUntil(1000);
  EXPECT_EQ(fired, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(EventQueueTest, ScheduleAfterIsRelativeToNow) {
  EventQueue q;
  SimTime at = -1;
  q.ScheduleAt(100, [&] { q.ScheduleAfter(5, [&] { at = q.Now(); }); });
  q.RunAll();
  EXPECT_EQ(at, 105);
}

TEST(EventQueueTest, SameTimeFifoSurvivesInterleavedPops) {
  // The (t, seq) tie-break makes the pop order a pure function of the
  // schedule calls: same-time events stay FIFO even when pops rearrange
  // the heap between the pushes.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5, [&] { order.push_back(0); });
  q.ScheduleAt(1, [] {});  // popped first, perturbing heap internals
  q.ScheduleAt(5, [&] { order.push_back(1); });
  q.RunUntil(1);
  q.ScheduleAt(5, [&] { order.push_back(2); });
  q.ScheduleAt(5, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, ScheduleBulkInterleavesWithSinglesInCallOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(0); });  // before the batch
  std::vector<EventQueue::TimedEvent> batch;
  for (int i = 1; i <= 3; ++i) {
    batch.push_back({10, [&order, i] { order.push_back(i); }});
  }
  batch.push_back({5, [&order] { order.push_back(100); }});
  q.ScheduleBulk(std::move(batch));
  q.ScheduleAt(10, [&] { order.push_back(4); });  // after the batch
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{100, 0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleBulkMatchesSingleAdmission) {
  // Property: bulk admission (Floyd rebuild path) pops in exactly the
  // order per-event admission (sift-up path) would.
  std::vector<SimTime> times;
  for (int i = 0; i < 200; ++i) times.push_back((i * 37) % 50);

  std::vector<int> single_order;
  EventQueue single;
  for (int i = 0; i < 200; ++i) {
    single.ScheduleAt(times[static_cast<std::size_t>(i)],
                      [&single_order, i] { single_order.push_back(i); });
  }
  single.RunAll();

  std::vector<int> bulk_order;
  EventQueue bulk;
  std::vector<EventQueue::TimedEvent> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back({times[static_cast<std::size_t>(i)],
                     [&bulk_order, i] { bulk_order.push_back(i); }});
  }
  bulk.ScheduleBulk(std::move(batch));
  bulk.RunAll();

  EXPECT_EQ(single_order, bulk_order);
}

TEST(EventQueueTest, ScheduleBulkClampsPastTimesToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.RunAll();
  ASSERT_EQ(q.Now(), 100);
  std::vector<SimTime> fired;
  std::vector<EventQueue::TimedEvent> batch;
  batch.push_back({20, [&] { fired.push_back(q.Now()); }});  // in the past
  batch.push_back({150, [&] { fired.push_back(q.Now()); }});
  q.ScheduleBulk(std::move(batch));
  q.RunAll();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 150}));
}

TEST(EventQueueTest, ReserveDoesNotDisturbPendingEvents) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(2, [&] { order.push_back(2); });
  q.ScheduleAt(1, [&] { order.push_back(1); });
  q.Reserve(4096);
  q.ScheduleAt(3, [&] { order.push_back(3); });
  EXPECT_EQ(q.Pending(), 3u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ProcessedCountsEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.ScheduleAt(i, [] {});
  q.RunAll();
  EXPECT_EQ(q.processed(), 7u);
}

TEST(EventQueueTest, ReservedKeyPopsWhereItsScheduleAtWould) {
  // A key reserved between two same-time admissions and admitted only
  // later (from inside a callback) pops between them, as a ScheduleAt at
  // the reservation point would have.
  EventQueue q;
  std::vector<int> order;
  std::vector<std::uint64_t> seqs;
  q.ScheduleAt(5, [&] {
    order.push_back(0);
    q.ScheduleAtSeq(10, seqs[0], [&] {
      order.push_back(2);
      seqs.push_back(q.CurrentSeq());
    });
  });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  seqs.push_back(q.ReserveSeq());
  q.ScheduleAt(10, [&] { order.push_back(3); });
  EXPECT_EQ(q.CurrentSeq(), EventQueue::kNoSeq);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[1], seqs[0]);  // CurrentSeq() is the running event's key
  EXPECT_EQ(q.CurrentSeq(), EventQueue::kNoSeq);
  EXPECT_EQ(q.reserved(), 1u);
  EXPECT_EQ(q.processed(), 4u);
}

// ---- Differential test against a reference model ---------------------------
//
// Drives an EventQueue and a plain ordered map keyed by (t, seq) with the
// same random calls.  Every callback checks, as it fires, that it is the
// model's earliest pending event; the queue's counters are compared with the
// model's after every step.

class QueueDiff {
 public:
  explicit QueueDiff(std::uint64_t seed) : rng_(seed), q_(std::make_unique<EventQueue>()) {
    for (int i = 0; i < 8; ++i) tokens_.push_back(std::make_shared<int>(i));
    CurrentExec().ctx = cur_ctx_;
  }
  ~QueueDiff() { CurrentExec().ctx = -1; }
  // Pending callbacks hold `this`.
  QueueDiff(const QueueDiff&) = delete;
  QueueDiff& operator=(const QueueDiff&) = delete;

  void Step() {
    // Above kMaxPending only the draining operations run, so admissions
    // (a bulk batch adds at least a quarter of the pending set) cannot
    // compound without bound.
    if (model_.size() > kMaxPending) {
      if (rng_.UniformInt(0, 1) == 0) {
        DispatchOne();
      } else {
        RunUntil();
      }
      CheckCounters();
      return;
    }
    switch (rng_.UniformInt(0, 11)) {
      case 0:
      case 1:
      case 2:
        for (auto n = rng_.UniformInt(1, 6); n > 0; --n) ScheduleOne(0);
        break;
      case 3: ScheduleBulk(); break;
      case 4:
      case 5: DispatchOne(); break;
      case 6: RunUntil(); break;
      case 7: ExtractAndReadmit(); break;
      case 8:
        cur_ctx_ = rng_.UniformInt(-1, 7);
        CurrentExec().ctx = cur_ctx_;
        break;
      case 9:
        if (model_.size() >= 4) ScheduleBulkSifted();
        break;
      case 10: ReserveOne(); break;
      default: AdmitReserved(0); break;
    }
    CheckCounters();
  }

  void Drain() {
    q_->RunAll();
    EXPECT_TRUE(model_.empty());
    CheckCounters();
  }

  /// Destroys the queue with events still pending (a few more are admitted
  /// first, so the pending set is never empty here).
  void DestroyQueue() {
    for (int i = 0; i < 8; ++i) ScheduleOne(0);
    q_.reset();
  }

  const std::vector<std::shared_ptr<int>>& tokens() const { return tokens_; }

 private:
  struct Entry {
    std::int64_t ctx;
    int id;
  };
  using Key = std::pair<SimTime, std::uint64_t>;
  static constexpr std::size_t kMaxPending = 400;

  // A key taken by ReserveSeq and not yet admitted.
  struct Reservation {
    SimTime t;
    std::uint64_t seq;
  };

  // Three capture kinds: inline, boxed (larger than the inline budget) and
  // one that owns a shared_ptr, so leaked or doubly destroyed slots show up
  // in use_count().
  EventQueue::Callback Make(int id) {
    switch (rng_.UniformInt(0, 2)) {
      case 0:
        return [this, id] { Fired(id); };
      case 1: {
        std::array<std::int64_t, 8> pad{};
        pad[0] = id;
        auto fn = [this, pad] { Fired(static_cast<int>(pad[0])); };
        static_assert(sizeof(fn) > SmallCallback::kInlineBytes);
        return fn;
      }
      default: {
        auto tok = tokens_[static_cast<std::size_t>(id) % tokens_.size()];
        return [this, id, tok] {
          (void)tok;
          Fired(id);
        };
      }
    }
  }

  int NewId(int gen) {
    gen_.push_back(gen);
    return static_cast<int>(gen_.size()) - 1;
  }

  SimTime DrawTime() { return now_ + rng_.UniformInt(-3, 20); }

  void ModelAdmit(SimTime t, std::int64_t ctx, int id) { ModelAdmitAt(t, seq_++, ctx, id); }
  void ModelAdmitAt(SimTime t, std::uint64_t seq, std::int64_t ctx, int id) {
    model_[{std::max(t, now_), seq}] = Entry{ctx, id};
    peak_ = std::max(peak_, model_.size());
  }

  // Takes the next seq without admitting anything; a quarter of the keys
  // sit at Now() itself, the time a zero-delay re-admission would use.
  void ReserveOne() {
    const SimTime t = rng_.UniformInt(0, 3) == 0 ? now_ : std::max(now_, DrawTime());
    EXPECT_EQ(q_->ReserveSeq(), seq_);
    reserved_.push_back({t, seq_++});
    ++reservations_;
  }

  // Admits one outstanding reservation, possibly many steps after it was
  // taken (so later admissions already hold larger seqs).  The model takes
  // the key as is.
  void AdmitReserved(int gen) {
    if (reserved_.empty()) return;
    const auto i = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(reserved_.size()) - 1));
    const Reservation r = reserved_[i];
    reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(i));
    const int id = NewId(gen);
    q_->ScheduleAtSeq(r.t, r.seq, Make(id));
    ModelAdmitAt(r.t, r.seq, cur_ctx_, id);
  }

  void ScheduleOne(int gen) {
    const SimTime t = DrawTime();
    const int id = NewId(gen);
    if (rng_.UniformInt(0, 1) == 0) {
      q_->ScheduleAt(t, Make(id));
      ModelAdmit(t, cur_ctx_, id);
    } else {
      const std::int64_t ctx = rng_.UniformInt(-1, 7);
      q_->ScheduleAtCtx(t, ctx, Make(id));
      ModelAdmit(t, ctx, id);
    }
  }

  void AdmitBatch(std::size_t n) {
    std::vector<EventQueue::TimedEvent> batch;
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime t = DrawTime();
      const int id = NewId(0);
      batch.push_back({t, Make(id)});
      ModelAdmit(t, cur_ctx_, id);
    }
    q_->ScheduleBulk(std::move(batch));
  }

  // A batch of at least a quarter of the pending set takes the Floyd
  // rebuild; a smaller one sifts each entry up.
  void ScheduleBulk() {
    AdmitBatch(model_.size() / 4 + 1 + static_cast<std::size_t>(rng_.UniformInt(0, 8)));
  }
  void ScheduleBulkSifted() {
    AdmitBatch(static_cast<std::size_t>(
        rng_.UniformInt(1, static_cast<std::int64_t>(model_.size() / 4))));
  }

  void DispatchOne() {
    const SimTime cap = now_ + rng_.UniformInt(-2, 12);
    const bool expect = !model_.empty() && model_.begin()->first.first <= cap;
    in_dispatch_ = true;
    EXPECT_EQ(q_->DispatchOne(cap), expect);
    in_dispatch_ = false;
  }

  void RunUntil() {
    const SimTime until = now_ + rng_.UniformInt(0, 15);
    q_->RunUntil(until);
    now_ = std::max(now_, until);
    EXPECT_TRUE(model_.empty() || model_.begin()->first.first > until);
  }

  // The ShardedEngine::MigrateScheduledEvents shape: extract everything in
  // pop order, then re-admit each event with its original time and tag.
  void ExtractAndReadmit() {
    std::vector<EventQueue::Event> evs = q_->ExtractAll();
    EXPECT_EQ(q_->Pending(), 0u);
    ASSERT_EQ(evs.size(), model_.size());
    std::vector<int> ids;
    auto it = model_.begin();
    for (const auto& ev : evs) {
      EXPECT_EQ(ev.t, it->first.first);
      EXPECT_EQ(ev.seq, it->first.second);
      EXPECT_EQ(ev.ctx, it->second.ctx);
      ids.push_back(it->second.id);
      ++it;
    }
    model_.clear();
    for (std::size_t i = 0; i < evs.size(); ++i) {
      q_->ScheduleAtCtx(evs[i].t, evs[i].ctx, std::move(evs[i].fn));
      ModelAdmit(evs[i].t, evs[i].ctx, ids[i]);
    }
  }

  void Fired(int id) {
    if (model_.empty()) {
      ADD_FAILURE() << "event " << id << " fired with no event pending in the model";
      return;
    }
    const auto it = model_.begin();
    EXPECT_EQ(id, it->second.id);
    EXPECT_EQ(q_->Now(), it->first.first);
    EXPECT_EQ(q_->CurrentSeq(), it->first.second);
    if (in_dispatch_) {
      EXPECT_EQ(CurrentExec().ctx, it->second.ctx);
      cur_ctx_ = it->second.ctx;
    }
    now_ = it->first.first;
    ++processed_;
    model_.erase(it);
    // Top-level events sometimes fan out, often past the arena's free
    // slots (ExtractAll empties the arena), so the arena grows while this
    // callback runs.  Fanned-out events do not fan out again.
    if (gen_[static_cast<std::size_t>(id)] == 0 && rng_.UniformInt(0, 7) == 0) {
      for (auto n = rng_.UniformInt(1, 64); n > 0; --n) ScheduleOne(1);
    }
    // Reserved keys from inside a callback: re-admitting one taken earlier
    // (a timer that fired early re-admits itself at its recorded
    // deadline), or taking a fresh one.
    if (gen_[static_cast<std::size_t>(id)] == 0) {
      switch (rng_.UniformInt(0, 5)) {
        case 0: AdmitReserved(1); break;
        case 1: ReserveOne(); break;
        default: break;
      }
    }
  }

  void CheckCounters() {
    EXPECT_EQ(q_->Now(), now_);
    EXPECT_EQ(q_->CurrentSeq(), EventQueue::kNoSeq);
    EXPECT_EQ(q_->reserved(), reservations_);
    EXPECT_EQ(q_->Pending(), model_.size());
    EXPECT_EQ(q_->processed(), processed_);
    EXPECT_EQ(q_->peak_pending(), peak_);
    EXPECT_EQ(q_->PeekTime(),
              model_.empty() ? EventQueue::kNoEvent : model_.begin()->first.first);
  }

  Rng rng_;
  std::unique_ptr<EventQueue> q_;
  std::vector<std::shared_ptr<int>> tokens_;
  std::map<Key, Entry> model_;
  std::vector<Reservation> reserved_;  // taken, not yet admitted
  std::uint64_t reservations_ = 0;     // every ReserveSeq so far
  std::vector<int> gen_;  // by event id
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_ = 0;
  std::int64_t cur_ctx_ = -1;
  bool in_dispatch_ = false;
};

TEST(EventQueueTest, RandomInterleavingsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    QueueDiff diff(seed);
    for (int step = 0; step < 300; ++step) diff.Step();
    if (seed % 2 == 1) {
      diff.Drain();
    } else {
      diff.DestroyQueue();
    }
    for (const auto& tok : diff.tokens()) EXPECT_EQ(tok.use_count(), 1);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace fastflex::sim
