// Deterministic discrete-event priority queue.
//
// Events fire in (time, sequence) order: two events scheduled for the same
// instant execute in the order they were scheduled. That FIFO tie-break is
// what makes every simulation in this repo bit-for-bit reproducible. The
// heap is util/min_heap.hpp's MinHeap, keyed by `time bits << 64 | seq` —
// the same total order as the (time, seq) pair for any time >= 0, compared
// without a branch per field.
//
// Cancellation is O(1) via generation-stamped handles: an EventId packs a
// liveness slot index and the slot's generation at push time, and firing or
// cancelling bumps the generation, so stale heap entries (and stale ids)
// are recognized by a single array compare. Cancelled events stay in the
// heap until they reach the top, where pop() and cancel() discard them —
// far cheaper than heap removal for the soft-state timer churn the
// multicast protocols generate, and push/cancel never allocate once the
// slot pool is warm. Callbacks live in the slot pool rather than the heap,
// so heap maintenance moves 24-byte PODs and a cancelled event's captured
// state is released at cancel time, not when its dead entry surfaces.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
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

/// Min-heap of timestamped callbacks with stable same-time ordering.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues `fn` to fire at absolute time `when`. Requires when >= 0
  /// (-0.0 is treated as +0.0) and not NaN.
  EventId push(Time when, Callback fn);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  // --- Slot-pool observability (telemetry gauges, docs/OBSERVABILITY.md).
  // A healthy steady state allocates a pool once and then recycles it:
  // total_pushes() grows without bound while slots_allocated() plateaus.

  /// Callback slots ever allocated (the warm pool size).
  [[nodiscard]] std::size_t slots_allocated() const noexcept {
    return slots_.size();
  }
  /// Slots currently retired and awaiting reuse.
  [[nodiscard]] std::size_t slots_free() const noexcept {
    return free_slots_.size();
  }
  /// Events ever pushed; pushes beyond slots_allocated() reused a slot.
  [[nodiscard]] std::uint64_t total_pushes() const noexcept {
    return next_seq_ - 1;
  }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] Time next_time() const noexcept {
    return std::bit_cast<Time>(heap_.top().when_bits);
  }

  /// Pops and returns the earliest event. Requires !empty().
  struct Fired {
    Time when;
    Callback fn;
  };
  Fired pop();

  /// Drops all pending events. Ids issued before the clear are dead: they
  /// can never cancel an event pushed afterwards.
  void clear();

 private:
  /// Heap entries are 24-byte trivially-copyable PODs: the callback lives
  /// in the entry's slot, not the heap, so sift-up/down moves are plain
  /// memcpys instead of std::function move/destroy calls.
  struct Entry {
    std::uint64_t when_bits;  ///< key_bits(when)
    std::uint64_t seq;        ///< global schedule order (same-time FIFO)
    std::uint32_t slot;       ///< slot backing this entry (liveness + callback)
    std::uint32_t gen;        ///< slot generation at push time
    [[nodiscard]] HeapKey key() const noexcept {
      return heap_key(when_bits, seq);
    }
  };
  static_assert(sizeof(Entry) == 24);
  struct Slot {
    std::uint32_t gen = 0;  ///< bumped on fire/cancel/clear
    Callback fn;
  };

  /// True when the entry was cancelled or already fired (its slot moved on).
  [[nodiscard]] bool dead(const Entry& e) const noexcept {
    return slots_[e.slot].gen != e.gen;
  }

  /// Invalidates every outstanding reference to `slot` and recycles it.
  /// The slot's callback must already be released/moved out.
  void retire_slot(std::uint32_t slot);

  /// Discards dead entries at the top of the heap. Run after every pop and
  /// cancel, so the top is always live (or the heap empty) and next_time()
  /// reads it directly.
  void skip_dead() noexcept;

  MinHeap<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< slots available for reuse
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;  ///< pending (un-fired, un-cancelled) events
};

}  // namespace hbh::sim
