// Unit tests for the discrete-event engine: ordering, cancellation,
// deadlines, periodic timers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hbh::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.push(5.0, [&, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredWhileOthersPendingKeepsCountCorrect) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.pop().fn();                 // fires a
  EXPECT_FALSE(q.cancel(a));    // a already fired
  EXPECT_EQ(q.size(), 1u);      // b still pending
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, ClearDrainsEverything) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, StaleIdCannotCancelReusedSlot) {
  // Ids are generation-stamped: once an event fires, its slot may be
  // reused by a later push, but the old id must not cancel the newcomer.
  EventQueue q;
  const EventId stale = q.push(1.0, [] {});
  q.pop().fn();  // fires; the slot returns to the free list
  bool fired = false;
  const EventId fresh = q.push(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));  // stale generation: rejected
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  const EventId before = q.push(1.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(before));
  // A post-clear push may land in the same slot; the old id stays dead.
  const EventId after = q.push(3.0, [] {});
  EXPECT_FALSE(q.cancel(before));
  EXPECT_TRUE(q.cancel(after));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoOrderSurvivesCancelChurn) {
  // Cancelling interleaved events must not disturb the documented
  // (time, push-order) total order of the survivors.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.push(5.0, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) q.cancel(ids[static_cast<size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(EventQueueTest, NegativeZeroOrdersAsZero) {
  // -0.0 >= 0 holds, so it is a legal timestamp; its sign bit must not
  // sort it after every positive time.
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(-0.0, [&] { fired.push_back(0); });
  q.push(0.0, [&] { fired.push_back(2); });  // same instant: FIFO after -0.0
  EXPECT_EQ(q.next_time(), 0.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 1}));

  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1e-9, [&] { order.push_back(1); });
  sim.schedule_at(-0.0, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, OrdersTimestampsAcrossTheWholeRange) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  const std::vector<double> sorted{0.0, tiny, 2 * tiny, 1e-300, 1.0,
                                   1e300, max, inf};
  EventQueue q;
  std::vector<double> fired;
  for (const std::size_t i : {6u, 0u, 7u, 3u, 1u, 5u, 2u, 4u}) {
    q.push(sorted[i], [&fired, t = sorted[i]] { fired.push_back(t); });
  }
  while (!q.empty()) {
    const Time next = q.next_time();
    auto [when, fn] = q.pop();
    EXPECT_EQ(when, next);
    fn();
  }
  EXPECT_EQ(fired, sorted);
}

TEST(EventQueueTest, MatchesSortedReferenceUnderRandomOps) {
  // Differential check of the (time, push-order) contract: every pop must
  // return what a std::set ordered by (time, seq) says is first. Integer
  // timestamps from a narrow range make most pushes tie on time, so the
  // seq half of the key decides most comparisons.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    EventQueue q;
    struct Issued {
      EventId id;
      std::pair<Time, std::uint64_t> key;
      bool pending;
    };
    std::vector<Issued> issued;
    std::set<std::pair<Time, std::uint64_t>> ref;  // (time, index in issued)
    std::uint64_t ran = 0;
    for (int op = 0; op < 100000; ++op) {
      const double pick = rng.uniform01();
      if (pick < 0.45 || ref.empty()) {
        const auto when = static_cast<Time>(rng.uniform_int(0, 40));
        const std::uint64_t index = issued.size();
        const EventId id = q.push(when, [&ran, index] { ran = index; });
        issued.push_back(Issued{id, {when, index}, true});
        ref.insert({when, index});
      } else if (pick < 0.80) {
        const auto expected = *ref.begin();
        ref.erase(ref.begin());
        issued[expected.second].pending = false;
        auto [when, fn] = q.pop();
        ASSERT_EQ(when, expected.first);
        fn();
        ASSERT_EQ(ran, expected.second);
      } else if (pick < 0.999) {
        // Cancel the current top a third of the time, otherwise any id
        // ever issued — pending, fired or already cancelled.
        const std::uint64_t index =
            rng.chance(1.0 / 3)
                ? ref.begin()->second
                : static_cast<std::uint64_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(issued.size()) - 1));
        Issued& target = issued[index];
        ASSERT_EQ(q.cancel(target.id), target.pending);
        if (target.pending) ref.erase(target.key);
        target.pending = false;
      } else {
        q.clear();
        for (const auto& [when, index] : ref) issued[index].pending = false;
        ref.clear();
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(q.next_time(), ref.begin()->first);
      }
    }
  }
}

// --- The run structure: one FIFO chain per distinct pending time.

/// Logs typed-record firings; `hit` is the method an Action binds.
struct Recorder {
  std::vector<int> log;
  void hit(std::uint32_t tag) { log.push_back(static_cast<int>(tag)); }
};

TEST(EventQueueTest, CancelHeadMiddleAndTailOfOneRun) {
  EventQueue q;
  Recorder rec;
  std::vector<EventId> ids;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ids.push_back(q.push(3.0, action<&Recorder::hit>(&rec, i)));
  }
  q.push(5.0, action<&Recorder::hit>(&rec, 9));
  EXPECT_TRUE(q.cancel(ids[0]));  // head
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  EXPECT_TRUE(q.cancel(ids[2]));  // middle
  EXPECT_TRUE(q.cancel(ids[4]));  // tail
  EXPECT_EQ(q.size(), 3u);
  // A later push at the same time still joins the run behind its
  // survivors, even though the run's tail entry is dead.
  q.push(3.0, action<&Recorder::hit>(&rec, 5));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(rec.log, (std::vector<int>{1, 3, 5, 9}));

  // Cancelling a whole earliest run exposes the next one.
  const EventId a = q.push(1.0, action<&Recorder::hit>(&rec, 0));
  const EventId b = q.push(1.0, action<&Recorder::hit>(&rec, 0));
  q.push(2.0, action<&Recorder::hit>(&rec, 0));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PushEarlierThanTheEarliestRun) {
  EventQueue q;
  std::vector<double> fired;
  const auto at = [&](Time t) {
    q.push(t, [&fired, t] { fired.push_back(t); });
  };
  at(5.0);
  at(7.0);
  at(2.0);  // opens a run before every pending one
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  at(6.0);
  at(2.0);
  {
    auto [when, fn] = q.pop();
    EXPECT_DOUBLE_EQ(when, 2.0);
    fn();
  }
  // Earlier than an event that already fired: the queue itself does not
  // require monotone pushes (the simulator does).
  at(1.0);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 1.0, 2.0, 5.0, 6.0, 7.0}));
}

TEST(EventQueueTest, SignedZerosShareOneRunAndInfinityRunsLast) {
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue q;
  Recorder rec;
  q.push(0.0, action<&Recorder::hit>(&rec, 0));
  q.push(inf, action<&Recorder::hit>(&rec, 1));
  q.push(-0.0, action<&Recorder::hit>(&rec, 2));
  q.push(1.0, action<&Recorder::hit>(&rec, 3));
  q.push(0.0, action<&Recorder::hit>(&rec, 4));
  q.push(inf, action<&Recorder::hit>(&rec, 5));
  std::vector<double> times;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    EXPECT_FALSE(std::signbit(when));  // -0.0 fires as +0.0
    times.push_back(when);
    fn();
  }
  EXPECT_EQ(rec.log, (std::vector<int>{0, 2, 4, 3, 1, 5}));
  EXPECT_EQ(times, (std::vector<double>{0.0, 0.0, 0.0, 1.0, inf, inf}));
}

TEST(EventQueueTest, ClearWithSeveralRunsKillsEveryId) {
  EventQueue q;
  Recorder rec;
  std::vector<EventId> before;
  for (const Time t : {3.0, 1.0, 2.0, 1.0, 3.0}) {
    before.push_back(q.push(t, action<&Recorder::hit>(&rec, 0)));
  }
  before.push_back(q.push(2.0, [&rec] { rec.hit(0); }));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slots_allocated(), 6u);
  EXPECT_EQ(q.slots_free(), 6u);
  for (const EventId id : before) EXPECT_FALSE(q.cancel(id));
  // Post-clear pushes reuse the slots; the old ids stay dead.
  const EventId x = q.push(2.0, action<&Recorder::hit>(&rec, 7));
  q.push(1.0, [&rec] { rec.hit(6); });
  for (const EventId id : before) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.slots_allocated(), 6u);
  EXPECT_EQ(q.total_pushes(), 8u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(rec.log, (std::vector<int>{6, 7}));
  EXPECT_FALSE(q.cancel(x));
}

TEST(EventQueueTest, TypedRecordsAndClosuresFireInPushOrder) {
  EventQueue q;
  Recorder rec;
  for (std::uint32_t i = 0; i < 8; i += 2) {
    q.push(4.0, action<&Recorder::hit>(&rec, i));
    q.push(4.0, [&rec, i] { rec.hit(i + 1); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(rec.log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

  Simulator sim;
  rec.log.clear();
  sim.schedule(1.0, [&rec] { rec.hit(0); });
  sim.schedule(1.0, action<&Recorder::hit>(&rec, 1));
  sim.schedule(0.0, [&] {
    // Same-instant pushes from inside an event, both kinds.
    sim.schedule(1.0, action<&Recorder::hit>(&rec, 2));
    sim.schedule(1.0, [&rec] { rec.hit(3); });
  });
  sim.run();
  EXPECT_EQ(rec.log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, ManyDistinctTimesKeepPushOrderPerTime) {
  // Hundreds of distinct pending times, revisited in random order, so a
  // time's open run is often forgotten and a second run opens for it; pops
  // in between recycle run records. The older run at a time must still
  // fire first.
  Rng rng{6};
  EventQueue q;
  Recorder rec;
  std::set<std::pair<Time, int>> ref;  // (time, push index)
  for (int i = 0; i < 20000; ++i) {
    const Time t = 0.5 * static_cast<Time>(rng.uniform_int(0, 600)) +
                   (ref.empty() ? 0.0 : ref.begin()->first);
    q.push(t, action<&Recorder::hit>(&rec, static_cast<std::uint32_t>(i)));
    ref.emplace(t, i);
    if (rng.chance(0.4)) {
      q.pop().fn();
      ASSERT_EQ(rec.log.back(), ref.begin()->second);
      ref.erase(ref.begin());
    }
  }
  while (!q.empty()) {
    q.pop().fn();
    ASSERT_EQ(rec.log.back(), ref.begin()->second);
    ref.erase(ref.begin());
  }
}

TEST(EventQueueTest, CancelReleasesAClosureAtOnce) {
  EventQueue q;
  auto state = std::make_shared<int>(0);
  const EventId id = q.push(1.0, [state] { ++*state; });
  q.push(1.0, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 3);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(state.use_count(), 2);
  q.pop().fn();
  EXPECT_EQ(state.use_count(), 1);  // fired closures are released too
  EXPECT_EQ(*state, 1);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule(2.0, [&] { stamps.push_back(sim.now()); });
  sim.schedule(5.0, [&] { stamps.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_DOUBLE_EQ(stamps[0], 2.0);
  EXPECT_DOUBLE_EQ(stamps[1], 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(7.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(1.0, recurse);
  };
  sim.schedule(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, RunRespectsDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule(i, [&] { ++fired; });
  sim.run(4.0);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(SimulatorTest, RunForAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_for(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  sim.schedule(1.0, [] {});
  sim.run_for(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ResetClearsClockAndQueue) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  sim.schedule(1.0, [] {});
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, ExecutedCountsAcrossRuns) {
  Simulator sim;
  for (int i = 1; i <= 3; ++i) sim.schedule(i, [] {});
  sim.run(1.5);
  EXPECT_EQ(sim.executed(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed(), 3u);
}

/// Reference event loop for the differential test below: a std::map keyed
/// by (time, schedule order), run to each deadline in key order.
class ReferenceSim {
 public:
  using Id = std::pair<Time, std::uint64_t>;
  Id schedule(Time delay, std::function<void()> fn) {
    const Id id{now_ + delay, next_seq_++};
    pending_.emplace(id, std::move(fn));
    return id;
  }
  bool cancel(Id id) { return pending_.erase(id) == 1; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  void run(Time deadline) {
    while (!pending_.empty() && pending_.begin()->first.first <= deadline) {
      auto node = pending_.extract(pending_.begin());
      now_ = node.key().first;
      node.mapped()();
    }
  }

 private:
  std::map<Id, std::function<void()>> pending_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Drives a self-scheduling workload: every event logs its tag, then
/// schedules up to three events at small integer delays (0 included, so
/// same-time FIFO is exercised from inside callbacks) and cancels a random
/// earlier id. All choices come from one Rng, so the two loops see the
/// same workload only while their event orders agree.
template <class Sim>
std::vector<std::int64_t> run_self_scheduling(Sim& sim, std::uint64_t seed) {
  using Id = decltype(sim.schedule(0.0, [] {}));
  Rng rng{seed};
  std::vector<std::int64_t> log;
  std::vector<Id> ids;
  std::int64_t tags = 0;
  std::function<void(std::int64_t)> fire = [&](std::int64_t tag) {
    log.push_back(tag);
    const std::int64_t spawn = tags < 100000 ? rng.uniform_int(0, 3) : 0;
    for (std::int64_t k = 0; k < spawn; ++k) {
      const auto delay = static_cast<Time>(rng.uniform_int(0, 4));
      const std::int64_t next = tags++;
      ids.push_back(sim.schedule(delay, [&fire, next] { fire(next); }));
    }
    if (!ids.empty() && rng.chance(0.2)) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      log.push_back(sim.cancel(ids[victim]) ? -1 : -2);
    }
  };
  for (int i = 0; i < 50; ++i) {
    const std::int64_t tag = tags++;
    ids.push_back(sim.schedule(static_cast<Time>(rng.uniform_int(0, 9)),
                               [&fire, tag] { fire(tag); }));
  }
  // Deadlines land between integer timestamps and split the run into
  // windows; the marker pins which events fired before each one.
  for (Time deadline = 2.5; sim.pending() > 0; deadline += 7.5) {
    sim.run(deadline);
    log.push_back(-3);
  }
  return log;
}

TEST(SimulatorTest, CallbackSchedulingMatchesReferenceOrder) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    Simulator sim;
    ReferenceSim ref;
    const auto got = run_self_scheduling(sim, seed);
    const auto want = run_self_scheduling(ref, seed);
    ASSERT_GT(want.size(), 100000u);
    ASSERT_EQ(got, want);
  }
}

TEST(PeriodicTimerTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start();
  sim.run(35.0);
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 10.0);
  EXPECT_DOUBLE_EQ(stamps[1], 20.0);
  EXPECT_DOUBLE_EQ(stamps[2], 30.0);
}

TEST(PeriodicTimerTest, CustomInitialDelay) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start(0.0);
  sim.run(25.0);
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.0);
  EXPECT_DOUBLE_EQ(stamps[1], 10.0);
  EXPECT_DOUBLE_EQ(stamps[2], 20.0);
}

TEST(PeriodicTimerTest, StopDisarms) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer{sim, 5.0, [&] { ++fired; }};
  timer.start();
  sim.run(12.0);
  EXPECT_EQ(fired, 2);
  timer.stop();
  EXPECT_FALSE(timer.running());
  sim.run(100.0);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimerTest, DestructionCancelsPending) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTimer timer{sim, 5.0, [&] { ++fired; }};
    timer.start();
  }
  sim.run(100.0);
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTimerTest, RestartResetsPhase) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start();
  sim.run_for(4.0);
  timer.start();  // re-arm at t=4: next firing at t=14
  sim.run(20.0);
  ASSERT_FALSE(stamps.empty());
  EXPECT_DOUBLE_EQ(stamps[0], 14.0);
}

}  // namespace
}  // namespace hbh::sim
