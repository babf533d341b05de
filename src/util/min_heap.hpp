// Binary min-heap of small trivially-copyable entries ordered by one
// 128-bit key.
//
// Both priority queues on the simulator's hot paths order by a
// (non-negative double, u64 tie-break) pair: the event queue's same-time
// runs by (time, order opened), the SPF frontier by (distance, push
// order). For
// doubles in [+0.0, +inf] the IEEE-754 bit pattern, read as an unsigned
// integer, orders exactly like the value, so `bits << 64 | tie` is one
// integer with the same total order as the pair. Comparing it is a
// subtract-with-borrow, not a data-dependent branch on the first field
// followed by another on the second — and a mispredicted branch per level
// is what a sift costs on heaps of a few hundred entries, which sit in L1.
//
// Entries keep the two halves as separate u64 fields and build the key
// only at compare time: an `unsigned __int128` member would align the
// entry to 16 bytes and grow a 24-byte entry to 32.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace hbh {

__extension__ typedef unsigned __int128 HeapKey;

/// The heap key of the pair (x, tie).
[[nodiscard]] constexpr HeapKey heap_key(std::uint64_t x_bits,
                                         std::uint64_t tie) noexcept {
  return (static_cast<HeapKey>(x_bits) << 64) | tie;
}

/// The bit pattern of `x`, which orders like `x` for every x in
/// [+0.0, +inf]. Requires x >= 0 and not NaN. Adding +0.0 folds -0.0 —
/// whose sign bit would sort it after +inf — into +0.0.
[[nodiscard]] inline std::uint64_t key_bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x + 0.0);
}

/// Min-heap over `Entry`, which provides `HeapKey key() const`. Keys must
/// be distinct (the tie-break makes them so), so the pop order is fully
/// determined by the keys and not by the heap's internal layout.
template <class Entry>
class MinHeap {
  static_assert(std::is_trivially_copyable_v<Entry>);

 public:
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }

  /// The entry with the smallest key. Requires !empty().
  [[nodiscard]] const Entry& top() const noexcept {
    assert(!v_.empty());
    return v_.front();
  }
  /// The same, for updating fields outside the key; the key must not change.
  [[nodiscard]] Entry& top() noexcept {
    assert(!v_.empty());
    return v_.front();
  }

  void push(Entry e) {
    v_.push_back(e);
    sift_up(v_.size() - 1, e);
  }

  /// Removes top(). Floyd's bottom-up deletion: walk the hole left by the
  /// root down to a leaf along the smaller child — one key compare per
  /// level, folded into the index rather than branched on — then sift the
  /// displaced last entry up from there. It almost always stays near the
  /// bottom, so the walk back up is short.
  void pop() noexcept {
    assert(!v_.empty());
    const Entry last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(v_[child + 1].key() < v_[child].key());
      v_[hole] = v_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {  // a lone left child at the end of the array
      v_[hole] = v_[child];
      hole = child;
    }
    sift_up(hole, last);
  }

  /// Drops every entry, keeping the storage for reuse.
  void clear() noexcept { v_.clear(); }

 private:
  /// Places `e` at `hole` or above, moving larger ancestors down.
  void sift_up(std::size_t hole, const Entry& e) noexcept {
    const HeapKey k = e.key();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(k < v_[parent].key())) break;
      v_[hole] = v_[parent];
      hole = parent;
    }
    v_[hole] = e;
  }

  std::vector<Entry> v_;
};

}  // namespace hbh
