// Wire encoding of HBH/REUNITE/PIM simulation packets.
//
// The paper defines no on-the-wire format, so this is this
// implementation's own (documented in docs/PROTOCOL.md): a 20-byte common
// header followed by a per-type payload, all fields big-endian. In the
// simulator it serves two purposes: the control-overhead benches report
// honest byte counts, and the codec round-trip is fuzz/property tested as
// any production parser should be.
//
//   common header (20 bytes):
//     0      version(hi nibble)=1 | type(lo nibble)
//     1      flags   (bit0 FIRST, bit1 FRESH, bit2 MARKED, bit3 ENCAP,
//                     bit4 TRACED, bit5 PADDED)
//     2      ttl
//     3      reserved (0)
//     4..7   src IPv4
//     8..11  dst IPv4
//     12..15 channel source S
//     16..19 channel group G
//   trace extension (16 bytes, only when TRACED is set):
//     trace_id(8) span_id(8)
//   payload:
//     join:     receiver(4)
//     tree:     target(4) last_branch(4) wave(4)
//     fusion:   origin(4) count(2) receiver(4)*count
//     pim-join: root(4) receiver(4)
//     data:     probe(8) seq(4) sent_at(8, IEEE-754 big-endian)
//               [pad_len(4) + pad_len zero bytes, only when PADDED is set —
//                the application payload modelled for capacity accounting]
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace hbh::net {

/// Serializes a packet; an active `trace` adds the 16-byte extension.
/// Never fails for well-formed packets.
[[nodiscard]] std::vector<std::uint8_t> encode(const Packet& packet,
                                               const TraceContext& trace = {});

/// Parses a packet; nullopt on any malformed input (short buffer, unknown
/// version/type, truncated fusion list, trailing garbage). A non-null
/// `trace` receives the trace extension (inactive when there is none).
[[nodiscard]] std::optional<Packet> decode(std::span<const std::uint8_t> wire,
                                           TraceContext* trace = nullptr);

/// Exact encoded size in bytes of the modelled packet, without the trace
/// extension (without building the buffer). This is the size the fabric
/// serializes on capacitated links and the byte counters report, so
/// tracing a run never changes its timing or its byte counts.
[[nodiscard]] std::size_t encoded_size(const Packet& packet);

}  // namespace hbh::net
