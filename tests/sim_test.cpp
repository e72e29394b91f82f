#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qsa/sim/event_queue.hpp"
#include "qsa/sim/simulator.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::sim {
namespace {

// -------------------------------------------------------------- SimTime

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(SimTime::seconds(2).as_millis(), 2000);
  EXPECT_EQ(SimTime::minutes(1).as_millis(), 60'000);
  EXPECT_DOUBLE_EQ(SimTime::millis(1500).as_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::minutes(2.5).as_minutes(), 2.5);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(SimTime::zero(), SimTime::millis(1));
  EXPECT_LT(SimTime::millis(1), SimTime::infinity());
  EXPECT_EQ(SimTime::seconds(60), SimTime::minutes(1));
}

TEST(SimTime, Arithmetic) {
  const auto t = SimTime::seconds(10) + SimTime::seconds(5);
  EXPECT_EQ(t, SimTime::seconds(15));
  EXPECT_EQ(t - SimTime::seconds(5), SimTime::seconds(10));
  SimTime u = SimTime::zero();
  u += SimTime::millis(7);
  EXPECT_EQ(u.as_millis(), 7);
}

TEST(SimTime, NegativeTimesSupported) {
  const auto t = SimTime::minutes(-30);
  EXPECT_LT(t, SimTime::zero());
  EXPECT_EQ(SimTime::zero() - t, SimTime::minutes(30));
}

TEST(SimTimeDeathTest, ConversionsRequireAFiniteValueInRange) {
  // 1e15 minutes is 6e19 ms, past INT64_MAX (~9.2e18): the cast was
  // undefined, and in practice a positive horizon read as negative.
  EXPECT_DEATH((void)SimTime::minutes(1e15), "precondition violated");
  EXPECT_DEATH((void)SimTime::minutes(-1e15), "precondition violated");
  EXPECT_DEATH((void)SimTime::seconds(1e17), "precondition violated");
  EXPECT_DEATH((void)SimTime::seconds(std::nan("")), "precondition violated");
  EXPECT_DEATH((void)SimTime::minutes(HUGE_VAL), "precondition violated");
  // The flag bound converts exactly.
  EXPECT_EQ(SimTime::minutes(1e9).as_millis(), 60'000'000'000'000);
  EXPECT_EQ(SimTime::seconds(-6e10).as_millis(), -60'000'000'000'000);
}

// ----------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime::millis(30), [&] { fired.push_back(3); });
  q.schedule(SimTime::millis(10), [&] { fired.push_back(1); });
  q.schedule(SimTime::millis(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::millis(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ReportsNextTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::infinity());
  q.schedule(SimTime::millis(42), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(42));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(SimTime::millis(1), [&] { ran = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAdjustsSizeAndNextTime) {
  EventQueue q;
  auto h1 = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(h1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueue, CancelInertHandleIsNoop) {
  EventQueue q;
  q.schedule(SimTime::millis(1), [] {});
  EventHandle inert;
  EXPECT_FALSE(inert.valid());
  q.cancel(inert);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredHandleIsNoop) {
  EventQueue q;
  auto h = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(2), [] {});
  q.pop();       // fires h
  q.cancel(h);   // must not disturb the remaining event
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  auto h = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(2), [] {});
  q.cancel(h);
  q.cancel(h);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(
        q.schedule(SimTime::millis(i % 17), [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) q.cancel(handles[i]);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 200 - 67);  // ceil(200/3) = 67 cancelled
}

// ------------------------------------------------------------ Simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  std::vector<std::int64_t> stamps;
  s.schedule_in(SimTime::millis(5), [&] { stamps.push_back(s.now().as_millis()); });
  s.schedule_in(SimTime::millis(10), [&] { stamps.push_back(s.now().as_millis()); });
  s.run();
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{5, 10}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  bool late = false;
  s.schedule_in(SimTime::millis(5), [] {});
  s.schedule_in(SimTime::millis(50), [&] { late = true; });
  const std::size_t n = s.run_until(SimTime::millis(10));
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), SimTime::millis(10));  // clock lands on the horizon
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.schedule_in(SimTime::millis(1), chain);
  };
  s.schedule_in(SimTime::millis(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime::millis(5));
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator s;
  s.schedule_in(SimTime::millis(10), [&] {
    // From t=10, scheduling at t=3 must fire immediately (not travel back).
    s.schedule_at(SimTime::millis(3), [&] { EXPECT_EQ(s.now(), SimTime::millis(10)); });
  });
  s.run();
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Simulator, EveryFiresPeriodically) {
  Simulator s;
  int ticks = 0;
  s.every(SimTime::millis(10), SimTime::millis(10), [&] { ++ticks; });
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(ticks, 10);  // t = 10, 20, ..., 100
}

TEST(Simulator, EveryRespectsStartOffset) {
  Simulator s;
  std::vector<std::int64_t> stamps;
  s.every(SimTime::millis(25), SimTime::millis(50),
          [&] { stamps.push_back(s.now().as_millis()); });
  s.run_until(SimTime::millis(200));
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{25, 75, 125, 175}));
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator s;
  bool ran = false;
  auto h = s.schedule_in(SimTime::millis(5), [&] { ran = true; });
  s.cancel(h);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ExecutedEventsAccumulates) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_in(SimTime::millis(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Simulator, HorizonWithEmptyQueueAdvancesClock) {
  Simulator s;
  s.run_until(SimTime::minutes(3));
  EXPECT_EQ(s.now(), SimTime::minutes(3));
}

}  // namespace
}  // namespace qsa::sim
