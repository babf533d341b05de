#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace hbh::net {

namespace {

constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 20;

constexpr std::uint8_t kFlagFirst = 1u << 0;
constexpr std::uint8_t kFlagFresh = 1u << 1;
constexpr std::uint8_t kFlagMarked = 1u << 2;
constexpr std::uint8_t kFlagEncap = 1u << 3;
constexpr std::uint8_t kFlagTraced = 1u << 4;
constexpr std::uint8_t kFlagPadded = 1u << 5;

constexpr std::size_t kTraceExtSize = 16;  // trace_id(8) + span_id(8)

class Writer {
 public:
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void addr(Ipv4Addr a) { u32(a.bits()); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  std::uint8_t u8() {
    if (remaining() < 1) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const auto hi = u8();
    const auto lo = u8();
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    const std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    const std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  Ipv4Addr addr() { return Ipv4Addr{u32()}; }
  double f64() { return std::bit_cast<double>(u64()); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::uint8_t flags_of(const Packet& p) {
  std::uint8_t flags = 0;
  switch (p.type) {
    case PacketType::kJoin:
      if (p.join().first) flags |= kFlagFirst;
      if (p.join().fresh) flags |= kFlagFresh;
      break;
    case PacketType::kTree:
      if (p.tree().marked) flags |= kFlagMarked;
      break;
    case PacketType::kData:
      if (p.data().encapsulated) flags |= kFlagEncap;
      if (p.data().pad > 0) flags |= kFlagPadded;
      break;
    case PacketType::kFusion:
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      break;
  }
  return flags;
}

}  // namespace

std::size_t encoded_size(const Packet& packet) {
  const std::size_t header = kHeaderSize;
  switch (packet.type) {
    case PacketType::kJoin:
      return header + 4;
    case PacketType::kTree:
      return header + 12;
    case PacketType::kFusion:
      return header + 6 + 4 * packet.fusion().receivers.size();
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      return header + 8;
    case PacketType::kData:
      // pad length prefix (4) + pad bytes, only when PADDED is set.
      return header + 20 +
             (packet.data().pad > 0 ? 4 + std::size_t{packet.data().pad} : 0);
  }
  return header;
}

std::vector<std::uint8_t> encode(const Packet& packet,
                                 const TraceContext& trace) {
  Writer w{encoded_size(packet) + (trace.active() ? kTraceExtSize : 0)};
  w.u8(static_cast<std::uint8_t>(
      (kVersion << 4) | static_cast<std::uint8_t>(packet.type)));
  w.u8(static_cast<std::uint8_t>(flags_of(packet) |
                                 (trace.active() ? kFlagTraced : 0)));
  w.u8(static_cast<std::uint8_t>(packet.ttl < 0 ? 0 : packet.ttl));
  w.u8(0);  // reserved
  w.addr(packet.src);
  w.addr(packet.dst);
  w.addr(packet.channel.source);
  w.addr(packet.channel.group.addr());
  if (trace.active()) {
    w.u64(trace.trace_id);
    w.u64(trace.span_id);
  }
  switch (packet.type) {
    case PacketType::kJoin:
      w.addr(packet.join().receiver);
      break;
    case PacketType::kTree:
      w.addr(packet.tree().target);
      w.addr(packet.tree().last_branch);
      w.u32(packet.tree().wave);
      break;
    case PacketType::kFusion: {
      const auto& f = packet.fusion();
      w.addr(f.origin);
      w.u16(static_cast<std::uint16_t>(f.receivers.size()));
      for (const Ipv4Addr r : f.receivers) w.addr(r);
      break;
    }
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      w.addr(packet.pim_join().root);
      w.addr(packet.pim_join().receiver);
      break;
    case PacketType::kData:
      w.u64(packet.data().probe);
      w.u32(packet.data().seq);
      w.f64(packet.data().sent_at);
      if (packet.data().pad > 0) {
        w.u32(packet.data().pad);
        for (std::uint32_t i = 0; i < packet.data().pad; ++i) w.u8(0);
      }
      break;
  }
  return w.take();
}

std::optional<Packet> decode(std::span<const std::uint8_t> wire,
                             TraceContext* trace) {
  Reader r{wire};
  const std::uint8_t vt = r.u8();
  if ((vt >> 4) != kVersion) return std::nullopt;
  const auto raw_type = static_cast<std::uint8_t>(vt & 0x0F);
  if (raw_type > static_cast<std::uint8_t>(PacketType::kPimPrune)) {
    return std::nullopt;
  }
  Packet p;
  p.type = static_cast<PacketType>(raw_type);
  const std::uint8_t flags = r.u8();
  p.ttl = r.u8();
  if (r.u8() != 0) return std::nullopt;  // reserved must be zero
  p.src = r.addr();
  p.dst = r.addr();
  p.channel.source = r.addr();
  p.channel.group = GroupAddr{r.addr()};
  TraceContext context;
  if ((flags & kFlagTraced) != 0) {
    context.trace_id = r.u64();
    context.span_id = r.u64();
    if (context.trace_id == 0) return std::nullopt;  // flag requires a trace
  }
  if (!r.ok()) return std::nullopt;

  switch (p.type) {
    case PacketType::kJoin:
      p.payload = JoinPayload{r.addr(), (flags & kFlagFirst) != 0,
                              (flags & kFlagFresh) != 0};
      break;
    case PacketType::kTree: {
      TreePayload t;
      t.target = r.addr();
      t.marked = (flags & kFlagMarked) != 0;
      t.last_branch = r.addr();
      t.wave = r.u32();
      p.payload = t;
      break;
    }
    case PacketType::kFusion: {
      FusionPayload f;
      f.origin = r.addr();
      const std::uint16_t count = r.u16();
      if (r.remaining() != std::size_t{count} * 4) return std::nullopt;
      f.receivers.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) f.receivers.push_back(r.addr());
      p.payload = std::move(f);
      break;
    }
    case PacketType::kPimJoin:
    case PacketType::kPimPrune: {
      PimJoinPayload j;
      j.root = r.addr();
      j.receiver = r.addr();
      p.payload = j;
      break;
    }
    case PacketType::kData: {
      DataPayload d;
      d.probe = r.u64();
      d.seq = r.u32();
      d.sent_at = r.f64();
      d.encapsulated = (flags & kFlagEncap) != 0;
      if ((flags & kFlagPadded) != 0) {
        d.pad = r.u32();
        if (d.pad == 0) return std::nullopt;  // flag requires padding
        for (std::uint32_t i = 0; i < d.pad; ++i) {
          if (r.u8() != 0) return std::nullopt;  // pad bytes must be zero
        }
      }
      p.payload = d;
      break;
    }
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  if (trace != nullptr) *trace = context;
  return p;
}

}  // namespace hbh::net
