#include "net/packet_pool.hpp"

namespace hbh::net {

void PacketPool::grow() {
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
}

PacketHandle PacketPool::find(const Packet& packet) const noexcept {
  // A linear scan: only the rare anomaly report asks.
  for (std::uint32_t i = 0; i < used_; ++i) {
    const Slot& s = slot(PacketHandle{i});
    if (&s.packet == &packet) {
      return s.state == State::kFree ? PacketHandle{} : PacketHandle{i};
    }
  }
  return PacketHandle{};
}

}  // namespace hbh::net
