#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace hbh::sim {

namespace {

constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t gen) noexcept {
  return ((static_cast<std::uint64_t>(slot) + 1) << 32) | gen;
}

}  // namespace

EventId EventQueue::push(Time when, Action action) {
  assert(action.fn != nullptr);
  assert(when >= 0 && !std::isnan(when));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = action.fn;
  s.obj = action.obj;
  s.arg = action.arg;
  const std::uint32_t gen = s.gen;

  std::uint32_t node;
  if (free_node_ == kNone) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{slot, gen, kNone});
  } else {
    node = free_node_;
    free_node_ = nodes_[node].next;
    nodes_[node] = Node{slot, gen, kNone};
  }

  // Append to the open run at this exact time, or open one.
  const std::uint64_t bits = key_bits(when);
  Hint& hint = hints_[hint_of(bits)];
  if (hint.tail != kNone && hint.when_bits == bits) {
    nodes_[hint.tail].next = node;
  } else {
    runs_.push(Run{bits, runs_opened_++, node});
    hint.when_bits = bits;
  }
  hint.tail = node;
  ++pushes_;
  ++live_;
  return EventId{encode(slot, gen)};
}

EventId EventQueue::push(Time when, Callback fn) {
  assert(fn != nullptr);
  std::uint32_t cell;
  if (free_closure_ == kNone) {
    cell = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(Closure{std::move(fn)});
  } else {
    cell = free_closure_;
    free_closure_ = closures_[cell].next_free;
    closures_[cell].fn = std::move(fn);
  }
  return push(when, Action{&EventQueue::fire_closure, this, cell});
}

void EventQueue::fire_closure(void* queue, std::uint32_t cell) {
  auto& q = *static_cast<EventQueue*>(queue);
  // Move the closure out first: it may push, which can reuse the cell or
  // grow (and move) the table.
  const Callback fn = std::move(q.closures_[cell].fn);
  q.release_closure(cell);
  fn();
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t hi = id.v >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(hi - 1);
  const auto gen = static_cast<std::uint32_t>(id.v);
  // A generation match means the event is still pending: firing or
  // cancelling bumps the slot's generation exactly once.
  if (slots_[slot].gen != gen) return false;
  const bool closure = slots_[slot].fn == &EventQueue::fire_closure;
  const std::uint32_t cell = slots_[slot].arg;
  retire_slot(slot);
  --live_;
  skip_dead();
  if (closure) {
    // Release the closure only after the books balance: its captured state
    // may have a destructor that re-enters the queue.
    const Callback released = std::move(closures_[cell].fn);
    release_closure(cell);
  }
  return true;
}

void EventQueue::release_closure(std::uint32_t cell) noexcept {
  closures_[cell].fn = nullptr;
  closures_[cell].next_free = free_closure_;
  free_closure_ = cell;
}

void EventQueue::retire_slot(std::uint32_t slot) noexcept {
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
}

void EventQueue::drop_head() noexcept {
  Run& run = runs_.top();
  const std::uint32_t node = run.head;
  run.head = nodes_[node].next;
  nodes_[node].next = free_node_;
  free_node_ = node;
  if (run.head != kNone) return;
  // The run is empty: its tail just went, so no hint may name it. A hint
  // at the same time may belong to a newer run; dropping it too only
  // costs that run its later appends.
  Hint& hint = hints_[hint_of(run.when_bits)];
  if (hint.when_bits == run.when_bits) hint.tail = kNone;
  runs_.pop();
}

void EventQueue::skip_dead() noexcept {
  while (!runs_.empty()) {
    const Node& head = nodes_[runs_.top().head];
    if (slots_[head.slot].gen == head.gen) return;
    drop_head();
  }
}

EventQueue::Fired EventQueue::pop() {
  assert(!runs_.empty());
  const Run& run = runs_.top();
  const std::uint32_t slot = nodes_[run.head].slot;
  const Slot& s = slots_[slot];
  const Fired fired{std::bit_cast<Time>(run.when_bits),
                    Action{s.fn, s.obj, s.arg}};
  retire_slot(slot);
  --live_;
  drop_head();
  skip_dead();
  return fired;
}

void EventQueue::clear() {
  runs_.clear();
  hints_.fill(Hint{});
  nodes_.clear();
  free_node_ = kNone;
  // Bump every slot's generation so ids issued before the clear can never
  // alias an event pushed after it.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    ++slots_[slot].gen;
    free_slots_.push_back(slot);
  }
  closures_.clear();
  free_closure_ = kNone;
  live_ = 0;
}

}  // namespace hbh::sim
