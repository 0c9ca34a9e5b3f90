#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sgxo::sim {
namespace {

TEST(Simulation, StartsAtEpoch) {
  Simulation sim;
  EXPECT_EQ(sim.now(), TimePoint::epoch());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_micros(300), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_micros(100), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_micros(200), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::from_micros(300));
}

TEST(Simulation, EqualTimesFireFifo) {
  Simulation sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_micros(50);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  TimePoint fired;
  sim.schedule_after(Duration::seconds(1), [&] {
    sim.schedule_after(Duration::seconds(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::epoch() + Duration::seconds(3));
}

TEST(Simulation, RejectsPastAndNegative) {
  Simulation sim;
  sim.schedule_after(Duration::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::epoch(), [] {}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_after(Duration::seconds(-1), [] {}),
               ContractViolation);
}

TEST(Simulation, RejectsNullCallback) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_after(Duration{}, Simulation::Callback{}),
               ContractViolation);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_after(Duration::seconds(1),
                                        [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelTwiceReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_after(Duration::seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, InvalidEventIdNotCancellable) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
}

TEST(Simulation, RepeatingEventFiresPeriodically) {
  Simulation sim;
  int count = 0;
  EventId timer = sim.schedule_every(Duration::seconds(1),
                                     Duration::seconds(2), [&] {
                                       ++count;
                                       if (count == 4) sim.cancel(timer);
                                     });
  sim.run();
  EXPECT_EQ(count, 4);
  // First at t=1s, then every 2s: 1, 3, 5, 7.
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(7));
}

TEST(Simulation, RepeatingEventRejectsNonPositivePeriod) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_every(Duration{}, Duration{}, [] {}),
               ContractViolation);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  sim.schedule_every(Duration::seconds(1), Duration::seconds(1),
                     [&] { ++count; });
  sim.run_until(TimePoint::epoch() + Duration::from_seconds(3.5));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::from_seconds(3.5));
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(TimePoint::epoch() + Duration::minutes(5));
  EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::minutes(5));
}

TEST(Simulation, RunUntilRejectsPastDeadline) {
  Simulation sim;
  sim.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_THROW(sim.run_until(TimePoint::epoch()), ContractViolation);
}

TEST(Simulation, RunGuardsAgainstRunaway) {
  Simulation sim;
  sim.schedule_every(Duration::seconds(1), Duration::seconds(1), [] {});
  EXPECT_THROW(sim.run(/*max_events=*/100), ContractViolation);
}

TEST(Simulation, FiredEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_after(Duration::seconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.fired_events(), 5u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.schedule_after(Duration::millis(10), recurse);
    }
  };
  sim.schedule_after(Duration{}, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
}

TEST(Simulation, CancelRepeatingFromOutside) {
  Simulation sim;
  int count = 0;
  const EventId timer = sim.schedule_every(
      Duration::seconds(1), Duration::seconds(1), [&] { ++count; });
  sim.schedule_at(TimePoint::epoch() + Duration::from_seconds(2.5),
                  [&] { sim.cancel(timer); });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Simulation sim;
    std::vector<std::int64_t> stamps;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(Duration::millis(100 - i), [&stamps, &sim] {
        stamps.push_back(sim.now().micros_since_epoch());
      });
    }
    sim.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, CancelledEventLeavesTheQueueAtOnce) {
  Simulation sim;
  const EventId a = sim.schedule_after(Duration::seconds(1), [] {});
  sim.schedule_after(Duration::seconds(2), [] {});
  ASSERT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.fired_events(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, OneShotCancellingItselfReturnsFalse) {
  Simulation sim;
  EventId id;
  std::optional<bool> cancelled;
  id = sim.schedule_after(Duration::seconds(1),
                          [&] { cancelled = sim.cancel(id); });
  sim.run();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_FALSE(*cancelled);  // it is firing: nothing left to cancel
}

TEST(Simulation, RepeatingEventCancellingItselfStopsOnce) {
  Simulation sim;
  EventId timer;
  std::vector<bool> results;
  timer = sim.schedule_every(Duration::seconds(1), Duration::seconds(1), [&] {
    results.push_back(sim.cancel(timer));
    results.push_back(sim.cancel(timer));
  });
  sim.run();
  EXPECT_EQ(results, (std::vector<bool>{true, false}));
  EXPECT_EQ(sim.fired_events(), 1u);
  EXPECT_FALSE(sim.cancel(timer));
}

TEST(Simulation, CancelDuringAnEqualTimeTie) {
  // Three events at one instant fire in scheduling order: the first
  // cancels the third before it runs, the second tries the first, which
  // already fired.
  Simulation sim;
  const TimePoint t = TimePoint::epoch() + Duration::seconds(5);
  std::vector<std::string> log;
  EventId first;
  EventId third;
  first = sim.schedule_at(t, [&] {
    log.push_back("first");
    log.push_back(sim.cancel(third) ? "cancelled third" : "third gone");
  });
  sim.schedule_at(t, [&] {
    log.push_back("second");
    log.push_back(sim.cancel(first) ? "cancelled first" : "first gone");
  });
  third = sim.schedule_at(t, [&] { log.push_back("third"); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "cancelled third",
                                           "second", "first gone"}));
  EXPECT_EQ(sim.fired_events(), 2u);
}

// ---- model-based check against a naive reference queue ----------------------
//
// Random schedule / cancel / run sequences drive the Simulation and a flat
// list scanned for the minimum (time, sequence) entry. Events fire at whole
// seconds, so equal-time ties are common; an event may cancel another one,
// or itself, when it fires. After every operation both must agree on the
// firing log, every cancel's return value, the clock, the fired count and
// the number of pending events.

/// What an event does when it fires: log itself, then optionally cancel
/// the event issued `cancels`-th (possibly itself).
struct Action {
  int label = 0;
  std::optional<std::size_t> cancels;
};

class ReferenceQueue {
 public:
  /// Returns the new event's issue index.
  std::size_t schedule(std::int64_t at_s, std::int64_t period_s,
                       Action action) {
    events_.push_back(Event{at_s, next_seq_++, period_s, action, issued_});
    return issued_++;
  }

  bool cancel(std::size_t index) {
    const auto it = std::find_if(
        events_.begin(), events_.end(),
        [index](const Event& event) { return event.index == index; });
    if (it == events_.end()) return false;
    events_.erase(it);
    return true;
  }

  void run_until(std::int64_t deadline_s, std::vector<std::string>& log) {
    while (true) {
      const auto next = std::min_element(
          events_.begin(), events_.end(), [](const Event& a, const Event& b) {
            return a.at_s != b.at_s ? a.at_s < b.at_s : a.seq < b.seq;
          });
      if (next == events_.end() || next->at_s > deadline_s) break;
      const Event event = *next;
      now_s_ = event.at_s;
      ++fired_;
      // A repeating event is re-armed (same sequence) before it runs; a
      // one-shot is gone before it runs.
      if (event.period_s > 0) {
        next->at_s += event.period_s;
      } else {
        events_.erase(next);
      }
      log.push_back("fire " + std::to_string(event.action.label) + " @" +
                    std::to_string(now_s_));
      if (event.action.cancels.has_value()) {
        log.push_back("cancel " + std::to_string(*event.action.cancels) +
                      (cancel(*event.action.cancels) ? " true" : " false"));
      }
    }
    now_s_ = deadline_s;
  }

  [[nodiscard]] std::int64_t now_s() const { return now_s_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::size_t issued() const { return issued_; }

 private:
  struct Event {
    std::int64_t at_s = 0;
    std::uint64_t seq = 0;
    std::int64_t period_s = 0;  // 0 = one-shot
    Action action;
    std::size_t index = 0;
  };
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  std::size_t issued_ = 0;
  std::int64_t now_s_ = 0;
  std::uint64_t fired_ = 0;
};

TEST(SimulationModel, RandomScheduleCancelAndRunMatchANaiveQueue) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng{seed};
    Simulation sim;
    ReferenceQueue ref;
    std::vector<EventId> ids;
    std::vector<std::string> log;
    std::vector<std::string> ref_log;
    const auto seconds = [](std::int64_t s) {
      return TimePoint::epoch() + Duration::seconds(s);
    };
    const auto callback = [&](Action action) {
      return [&sim, &ids, &log, action] {
        log.push_back("fire " + std::to_string(action.label) + " @" +
                      std::to_string(sim.now().micros_since_epoch() /
                                     1'000'000));
        if (action.cancels.has_value()) {
          log.push_back("cancel " + std::to_string(*action.cancels) +
                        (sim.cancel(ids[*action.cancels]) ? " true"
                                                          : " false"));
        }
      };
    };
    // A cancel target among the events issued so far, the new one included.
    const auto maybe_target = [&](double p) -> std::optional<std::size_t> {
      if (!rng.bernoulli(p)) return std::nullopt;
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ref.issued())));
    };

    for (int op = 0; op < 300; ++op) {
      const std::string context =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const double roll = rng.next_double();
      if (roll < 0.3) {
        const std::int64_t at = ref.now_s() + rng.uniform_int(0, 4);
        const Action action{op, maybe_target(0.3)};
        ref.schedule(at, 0, action);
        ids.push_back(sim.schedule_at(seconds(at), callback(action)));
      } else if (roll < 0.42) {
        const std::int64_t delay = rng.uniform_int(0, 4);
        const std::int64_t period = rng.uniform_int(1, 3);
        // Often the timer cancels itself on its first firing.
        Action action{op, maybe_target(0.3)};
        if (rng.bernoulli(0.4)) action.cancels = ref.issued();
        ref.schedule(ref.now_s() + delay, period, action);
        ids.push_back(sim.schedule_every(Duration::seconds(delay),
                                         Duration::seconds(period),
                                         callback(action)));
      } else if (roll < 0.65) {
        if (ids.empty() || rng.bernoulli(0.1)) {
          EXPECT_FALSE(sim.cancel(EventId{})) << context;
        } else {
          const auto index = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
          EXPECT_EQ(sim.cancel(ids[index]), ref.cancel(index))
              << context << " cancel " << index;
        }
      } else {
        const std::int64_t deadline = ref.now_s() + rng.uniform_int(0, 3);
        ref.run_until(deadline, ref_log);
        sim.run_until(seconds(deadline));
      }
      ASSERT_EQ(log, ref_log) << context;
      ASSERT_EQ(sim.now(), seconds(ref.now_s())) << context;
      ASSERT_EQ(sim.fired_events(), ref.fired()) << context;
      ASSERT_EQ(sim.pending_events(), ref.size()) << context;
    }
  }
}

}  // namespace
}  // namespace sgxo::sim
