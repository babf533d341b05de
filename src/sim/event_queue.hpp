// Deterministic discrete-event queue of typed records.
//
// Events fire in (time, sequence) order: two events scheduled for the same
// instant execute in the order they were scheduled. That FIFO tie-break is
// what makes every simulation in this repo bit-for-bit reproducible.
//
// An event is an Action `{fn, obj, arg}`: a plain function pointer called
// as fn(obj, arg). The hot senders push these directly — the fabric an
// `arrive(slot)` per hop, PeriodicTimer its `fire()` — so no event on the
// per-hop path builds, moves or destroys a std::function. Harness closures
// (subscribe/leave lambdas, fault plans, tests) still push a Callback; it
// waits in a side table, and its record is `{fire_closure, queue, cell}`.
//
// Pending events group into runs, one per distinct timestamp, each a chain
// of its events in push order. The simulator keeps few distinct times
// pending — link delays are integer costs and soft-state timers fire on a
// period (docs/PERFORMANCE.md) — so the queue orders runs, not events: a
// MinHeap keyed by (time, order opened) holds the open runs, and a small
// direct-mapped hint table remembers each time's newest run's tail. A push
// appends there or opens a run; a pop takes the earliest run's head.
// Timestamps compare
// by util/min_heap.hpp's key_bits(), which folds -0.0 into +0.0 and orders
// +inf last.
//
// Cancellation is O(1) via generation-stamped handles: an EventId packs a
// liveness slot index and the slot's generation at push time, and firing or
// cancelling bumps the generation, so stale chain entries (and stale ids)
// are recognized by a single array compare. Cancelled events stay chained
// until they reach the head of the earliest run, where pop() and cancel()
// discard them. A slot is recycled the moment its event fires or is
// cancelled; a chain entry refers to it by (slot, generation), so a reused
// slot never revives a dead entry.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/ids.hpp"
#include "util/min_heap.hpp"

namespace hbh::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
/// Packs (slot + 1, generation); 0 is the invalid id.
struct EventId {
  std::uint64_t v = 0;
  [[nodiscard]] constexpr bool valid() const noexcept { return v != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

/// A typed event: calling it runs fn(obj, arg).
struct Action {
  void (*fn)(void*, std::uint32_t) = nullptr;
  void* obj = nullptr;
  std::uint32_t arg = 0;

  void operator()() const { fn(obj, arg); }
};

/// The Action that calls `(obj->*Method)(arg)`, or `(obj->*Method)()` for
/// a method without a parameter.
template <auto Method, class T>
[[nodiscard]] Action action(T* obj, std::uint32_t arg = 0) noexcept {
  return Action{[](void* o, std::uint32_t a) {
                  T& target = *static_cast<T*>(o);
                  if constexpr (std::is_invocable_v<decltype(Method), T&,
                                                    std::uint32_t>) {
                    (target.*Method)(a);
                  } else {
                    (void)a;
                    (target.*Method)();
                  }
                },
                obj, arg};
}

/// Time-ordered queue of typed events with stable same-time ordering.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  // Closure records point back at their queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `action` to fire at absolute time `when`. Requires when >= 0
  /// (-0.0 is treated as +0.0) and not NaN.
  EventId push(Time when, Action action);

  /// Enqueues a closure. It is released when it fires or is cancelled.
  EventId push(Time when, Callback fn);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  // --- Slot-pool observability (telemetry gauges, docs/OBSERVABILITY.md).
  // A healthy steady state allocates a pool once and then recycles it:
  // total_pushes() grows without bound while slots_allocated() plateaus.

  /// Event slots ever allocated (the warm pool size).
  [[nodiscard]] std::size_t slots_allocated() const noexcept {
    return slots_.size();
  }
  /// Slots currently retired and awaiting reuse.
  [[nodiscard]] std::size_t slots_free() const noexcept {
    return free_slots_.size();
  }
  /// Events ever pushed; pushes beyond slots_allocated() reused a slot.
  [[nodiscard]] std::uint64_t total_pushes() const noexcept { return pushes_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] Time next_time() const noexcept {
    return std::bit_cast<Time>(runs_.top().when_bits);
  }

  /// Pops and returns the earliest event. Requires !empty(). A popped
  /// closure stays in the side table until `fn` runs, so `fn` must not run
  /// after the queue is cleared or destroyed.
  struct Fired {
    Time when;
    Action fn;
  };
  Fired pop();

  /// Drops all pending events. Ids issued before the clear are dead: they
  /// can never cancel an event pushed afterwards.
  void clear();

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A pending event's record: its Action, flattened so the generation
  /// fills the Action's tail padding.
  struct Slot {
    void (*fn)(void*, std::uint32_t) = nullptr;
    void* obj = nullptr;
    std::uint32_t arg = 0;
    std::uint32_t gen = 0;  ///< bumped on fire/cancel/clear
  };
  static_assert(sizeof(Slot) <= 24);

  /// One entry of a run's chain: the slot it fires and the slot's
  /// generation at push time (a mismatch means cancelled).
  struct Node {
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;  ///< next entry of the same run, or kNone
  };

  /// An open run: the pending events at one timestamp, oldest push first,
  /// ordered by (time, the order runs opened in). Two runs share a time
  /// only when a hint was evicted; the older one then takes no more
  /// pushes, so it still holds only earlier events.
  struct Run {
    std::uint64_t when_bits;  ///< key_bits(when)
    std::uint64_t opened;
    std::uint32_t head;  ///< oldest entry still chained
    [[nodiscard]] HeapKey key() const noexcept {
      return heap_key(when_bits, opened);
    }
  };

  /// Where the next push at `when_bits` appends: the tail entry of that
  /// time's newest open run. Direct-mapped by time, so a colliding time
  /// evicts it.
  struct Hint {
    std::uint64_t when_bits = 0;
    std::uint32_t tail = kNone;  ///< kNone: no run to append to
  };
  static constexpr std::size_t kHints = 64;
  [[nodiscard]] static std::size_t hint_of(std::uint64_t when_bits) noexcept {
    return static_cast<std::size_t>((when_bits * 0x9E3779B97F4A7C15ull) >> 58);
  }

  /// A side-table cell: a pending closure, or a link in the free list.
  struct Closure {
    Callback fn;
    std::uint32_t next_free = kNone;
  };

  /// Runs `closures_[cell]`, releasing its cell first.
  static void fire_closure(void* queue, std::uint32_t cell);

  /// Returns an emptied cell to the free list.
  void release_closure(std::uint32_t cell) noexcept;

  /// Invalidates every outstanding reference to `slot` and recycles it.
  void retire_slot(std::uint32_t slot) noexcept;

  /// Removes the head entry of the earliest run, and the run once empty.
  void drop_head() noexcept;

  /// Discards dead entries at the head of the earliest run. Run after every
  /// pop and cancel, so the head is always live (or no run is left) and
  /// next_time() reads it directly.
  void skip_dead() noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< slots available for reuse
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNone;  ///< free nodes, chained through `next`
  MinHeap<Run> runs_;  ///< open runs; top() is the earliest
  std::array<Hint, kHints> hints_{};
  std::uint64_t runs_opened_ = 0;
  std::vector<Closure> closures_;    ///< closure side table, by cell
  std::uint32_t free_closure_ = kNone;  ///< free cells, chained
  std::uint64_t pushes_ = 0;
  std::size_t live_ = 0;  ///< pending (un-fired, un-cancelled) events
};

}  // namespace hbh::sim
