#include "sim/simulation.hpp"

#include <algorithm>

namespace sgxo::sim {

EventId Simulation::push(TimePoint at, Duration period, Callback cb) {
  SGXO_CHECK_MSG(at >= now_, "cannot schedule in the past");
  SGXO_CHECK_MSG(static_cast<bool>(cb), "null event callback");
  const EventId id{next_seq_};
  queue_.push_back(Entry{at, next_seq_, period, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), EntryCompare{});
  ++next_seq_;
  return id;
}

EventId Simulation::schedule_at(TimePoint at, Callback cb) {
  return push(at, Duration{}, std::move(cb));
}

EventId Simulation::schedule_after(Duration delay, Callback cb) {
  SGXO_CHECK_MSG(delay >= Duration{}, "negative delay");
  return push(now_ + delay, Duration{}, std::move(cb));
}

EventId Simulation::schedule_every(Duration initial_delay, Duration period,
                                   Callback cb) {
  SGXO_CHECK_MSG(period > Duration{}, "period must be positive");
  SGXO_CHECK_MSG(initial_delay >= Duration{}, "negative initial delay");
  return push(now_ + initial_delay, period, std::move(cb));
}

bool Simulation::cancel(EventId id) {
  // A queued entry is a one-shot that has not fired or a repeating event
  // that was not cancelled; anything else has nothing left to cancel.
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&id](const Entry& entry) { return entry.seq == id.seq_; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  std::make_heap(queue_.begin(), queue_.end(), EntryCompare{});
  return true;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), EntryCompare{});
  Entry entry = std::move(queue_.back());
  queue_.pop_back();
  now_ = entry.at;
  ++fired_;
  if (entry.period > Duration{}) {
    // Re-arm before invoking so the callback can cancel its own timer.
    queue_.push_back(
        Entry{entry.at + entry.period, entry.seq, entry.period, entry.cb});
    std::push_heap(queue_.begin(), queue_.end(), EntryCompare{});
  }
  entry.cb();
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  const std::uint64_t start = fired_;
  while (step()) {
    SGXO_CHECK_MSG(fired_ - start <= max_events,
                   "simulation exceeded max_events — runaway timer?");
  }
}

void Simulation::run_until(TimePoint deadline) {
  SGXO_CHECK_MSG(deadline >= now_, "deadline in the past");
  while (!queue_.empty() && queue_.front().at <= deadline) {
    step();
  }
  now_ = deadline;
}

}  // namespace sgxo::sim
