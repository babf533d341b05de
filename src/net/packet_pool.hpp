// The fabric's in-flight packet pool.
//
// A packet is written into one pool slot when it is first sent and stays
// there, hop after hop, until an agent consumes it or the fabric drops it;
// the fabric and the agents pass its 4-byte PacketHandle instead of the
// packet. Slots live in fixed-size chunks that are never moved or freed, so
// growing the pool (e.g. by clone() during a fan-out) never invalidates a
// reference to a packet already in it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/ids.hpp"

namespace hbh::net {

/// Names one slot of the in-flight pool.
struct PacketHandle {
  std::uint32_t v = std::numeric_limits<std::uint32_t>::max();

  constexpr PacketHandle() = default;
  constexpr explicit PacketHandle(std::uint32_t value) : v(value) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return v != std::numeric_limits<std::uint32_t>::max();
  }
  [[nodiscard]] constexpr std::uint32_t index() const noexcept { return v; }

  friend constexpr bool operator==(PacketHandle, PacketHandle) = default;
};

class PacketPool {
 public:
  /// Where a parked packet arrives, and the neighbour it arrives from
  /// (kNoNode for a self-addressed local delivery).
  struct Hop {
    NodeId to;
    NodeId from;
  };

  /// Slots per chunk: 256 slots of 80 bytes, 20 KiB per chunk.
  static constexpr std::uint32_t kChunkSize = 256;

  /// Writes `packet` into a free slot (the most recently freed one first)
  /// and returns it held: live, not in flight.
  PacketHandle emplace(Packet&& packet) {
    const PacketHandle h = take();
    slot(h).packet = std::move(packet);
    return h;
  }

  /// Copies the packet in `h` into a new held slot; `h` does not move.
  PacketHandle clone(PacketHandle h) {
    assert(slot(h).state != State::kFree);
    const PacketHandle copy = take();  // may add a chunk; `h` stays put
    slot(copy).packet = slot(h).packet;
    return copy;
  }

  /// Frees `h`'s slot; the handle must not be used again.
  void release(PacketHandle h) noexcept {
    Slot& s = slot(h);
    assert(s.state == State::kHeld);
    s.state = State::kFree;
    free_.push_back(h.v);
    --live_;
  }

  /// Marks the held packet in `h` in flight toward `hop.to`.
  void park(PacketHandle h, Hop hop) noexcept {
    Slot& s = slot(h);
    assert(s.state == State::kHeld);
    s.hop = hop;
    s.state = State::kParked;
  }

  /// Takes the parked packet in `h` off the wire (it is held again) and
  /// returns where it arrived.
  Hop unpark(PacketHandle h) noexcept {
    Slot& s = slot(h);
    assert(s.state == State::kParked);
    s.state = State::kHeld;
    return s.hop;
  }

  /// Whether `h` is live and not in flight: an agent holds it.
  [[nodiscard]] bool held(PacketHandle h) const noexcept {
    return slot(h).state == State::kHeld;
  }

  [[nodiscard]] Packet& operator[](PacketHandle h) noexcept {
    return slot(h).packet;
  }
  [[nodiscard]] const Packet& operator[](PacketHandle h) const noexcept {
    return slot(h).packet;
  }

  /// The handle of a live packet stored in this pool; invalid for any
  /// other packet.
  [[nodiscard]] PacketHandle find(const Packet& packet) const noexcept;

  /// Live packets: held or in flight.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Slots allocated so far (whole chunks).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * std::size_t{kChunkSize};
  }

 private:
  enum class State : std::uint8_t { kFree, kHeld, kParked };

  struct Slot {
    Packet packet;
    Hop hop;
    State state = State::kFree;
  };

  [[nodiscard]] Slot& slot(PacketHandle h) noexcept {
    return chunks_[h.v / kChunkSize][h.v % kChunkSize];
  }
  [[nodiscard]] const Slot& slot(PacketHandle h) const noexcept {
    return chunks_[h.v / kChunkSize][h.v % kChunkSize];
  }

  /// A free slot, marked held; grows the pool by one chunk when needed.
  PacketHandle take() {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      if (used_ == capacity()) grow();
      index = used_++;
    }
    const PacketHandle h{index};
    Slot& s = slot(h);
    assert(s.state == State::kFree);
    s.state = State::kHeld;
    ++live_;
    return h;
  }
  void grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  ///< released slots, reused LIFO
  std::uint32_t used_ = 0;           ///< slots ever taken (the rest is fresh)
  std::size_t live_ = 0;
};

}  // namespace hbh::net
