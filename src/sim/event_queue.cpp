#include "sim/event_queue.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace hbh::sim {

namespace {

constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t gen) noexcept {
  return ((static_cast<std::uint64_t>(slot) + 1) << 32) | gen;
}

}  // namespace

EventId EventQueue::push(Time when, Callback fn) {
  assert(fn != nullptr);
  assert(when >= 0 && !std::isnan(when));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  const std::uint32_t gen = slots_[slot].gen;
  heap_.push(Entry{key_bits(when), next_seq_++, slot, gen});
  ++live_;
  return EventId{encode(slot, gen)};
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t hi = id.v >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(hi - 1);
  const auto gen = static_cast<std::uint32_t>(id.v);
  // A generation match means the event is still pending: firing or
  // cancelling bumps the slot's generation exactly once.
  if (slots_[slot].gen != gen) return false;
  // Release the callback only after the books balance: its captured state
  // may have a destructor that re-enters the queue.
  Callback released = std::move(slots_[slot].fn);
  retire_slot(slot);
  --live_;
  skip_dead();
  return true;
}

void EventQueue::retire_slot(std::uint32_t slot) {
  ++slots_[slot].gen;
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
}

void EventQueue::skip_dead() noexcept {
  while (!heap_.empty() && dead(heap_.top())) {
    heap_.pop();
  }
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry top = heap_.top();
  // The callback moves straight out of the slot — the heap holds none, so
  // firing an event never copies a std::function.
  Fired fired{std::bit_cast<Time>(top.when_bits),
              std::move(slots_[top.slot].fn)};
  retire_slot(top.slot);
  --live_;
  heap_.pop();
  skip_dead();
  return fired;
}

void EventQueue::clear() {
  heap_.clear();
  // Bump every slot's generation so ids issued before the clear can never
  // alias an event pushed after it.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    ++slots_[slot].gen;
    slots_[slot].fn = nullptr;
    free_slots_.push_back(slot);
  }
  live_ = 0;
}

}  // namespace hbh::sim
