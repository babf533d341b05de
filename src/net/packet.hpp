// Simulated packets.
//
// Every packet — control or data — carries a unicast destination address;
// that is the essence of the recursive-unicast approach: unicast-only
// routers can always forward, and multicast-aware routers additionally
// inspect the channel header. The typed payload variant replaces on-the-wire
// encoding, which the simulation does not need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/channel.hpp"
#include "util/ids.hpp"
#include "util/ipv4.hpp"

namespace hbh::net {

/// join(S, R): sent periodically by receiver R (or a branching router B as
/// join(S, B)) hop-by-hop toward the source. `first` marks a receiver's very
/// first join, which HBH routers must never intercept (§3.1). `fresh` is
/// REUNITE's (re)anchoring signal: a receiver sets it while it is NOT
/// connected to the tree (no recent tree(S, R) addressed to it); only fresh
/// joins may create new forwarding state — refresh joins travel unchanged
/// to wherever the receiver is already anchored.
struct JoinPayload {
  Ipv4Addr receiver;
  bool first = false;
  bool fresh = false;
};

/// tree(S, R): emitted periodically by the source (and re-emitted by
/// branching routers) toward R, installing/refreshing tree state hop-by-hop.
/// `marked` implements REUNITE's marked tree messages announcing that the
/// data flow addressed to R will stop. `last_branch` is the address of the
/// most recent branching node the message traversed — the node a fusion
/// message generated downstream must be addressed to. `wave` is the
/// source's refresh round: replicas inherit it, and routers replicate a
/// given wave at most once, which roots every refresh chain at the source
/// (transient dst/entry cycles otherwise self-sustain; DESIGN.md §5).
struct TreePayload {
  Ipv4Addr target;
  bool marked = false;
  Ipv4Addr last_branch;
  std::uint32_t wave = 0;
};

/// fusion(S, R1..Rn): sent upstream by a (potential) branching node Bp
/// listing all nodes Bp keeps in its MFT; processed by the upstream
/// branching node it is addressed to (HBH Appendix A).
struct FusionPayload {
  std::vector<Ipv4Addr> receivers;
  Ipv4Addr origin;  ///< Bp, the node that produced the fusion.
};

/// PIM-style (*,G)/(S,G) join travelling hop-by-hop toward `root`
/// (the source for PIM-SS, the rendez-vous point for PIM-SM). The same
/// payload shape serves prunes (explicit fast leave).
struct PimJoinPayload {
  Ipv4Addr root;
  Ipv4Addr receiver;
};

/// Multicast payload data. `probe` tags measurement packets so the metrics
/// taps can attribute link copies and delivery delays to one transmission.
/// `encapsulated` models PIM-SM register tunnelling (source → RP in unicast).
/// `pad` models application payload size: that many zero bytes ride on the
/// wire (TrafficSpec::payload_bytes), so serialization time on capacitated
/// links scales with it. 0 (default) keeps the legacy wire format.
struct DataPayload {
  std::uint64_t probe = 0;
  std::uint32_t seq = 0;
  Time sent_at = 0;
  bool encapsulated = false;
  std::uint32_t pad = 0;
};

/// Causal tracing context of one in-flight packet. A root span is opened
/// when an external action (subscribe, data emission, fault) originates a
/// packet; each wire transmission re-stamps `span_id` with a child span, so
/// the context a packet arrives with names the causal parent of whatever the
/// receiving agent does next. `trace_id == 0` means "not traced". Contexts
/// live beside the packet, in a side array of the Network indexed by the
/// packet's pool handle that exists only while a TraceHook is installed, so
/// untraced runs neither store nor move them and a packet's modelled wire
/// size never depends on whether the run is traced.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
  [[nodiscard]] bool operator==(const TraceContext&) const noexcept = default;
};

enum class PacketType : std::uint8_t {
  kData,
  kJoin,
  kTree,
  kFusion,
  kPimJoin,
  kPimPrune,  ///< PIM explicit leave: tears down oifs toward the sender
};

[[nodiscard]] std::string to_string(PacketType t);

/// Number of PacketType values (for per-type counter arrays).
inline constexpr std::size_t kPacketTypeCount = 6;

/// Default initial TTL; generous for the ≤50-node topologies simulated here
/// while still bounding any forwarding loop a protocol bug could create.
inline constexpr int kDefaultTtl = 64;

struct Packet {
  Ipv4Addr src;        ///< unicast source address
  Ipv4Addr dst;        ///< unicast destination address (never class-D)
  Channel channel;     ///< the multicast channel this packet belongs to
  PacketType type = PacketType::kData;
  int ttl = kDefaultTtl;
  std::variant<DataPayload, JoinPayload, TreePayload, FusionPayload,
               PimJoinPayload>
      payload{};

  [[nodiscard]] DataPayload& data() { return std::get<DataPayload>(payload); }
  [[nodiscard]] const DataPayload& data() const {
    return std::get<DataPayload>(payload);
  }
  [[nodiscard]] JoinPayload& join() { return std::get<JoinPayload>(payload); }
  [[nodiscard]] const JoinPayload& join() const {
    return std::get<JoinPayload>(payload);
  }
  [[nodiscard]] TreePayload& tree() { return std::get<TreePayload>(payload); }
  [[nodiscard]] const TreePayload& tree() const {
    return std::get<TreePayload>(payload);
  }
  [[nodiscard]] FusionPayload& fusion() {
    return std::get<FusionPayload>(payload);
  }
  [[nodiscard]] const FusionPayload& fusion() const {
    return std::get<FusionPayload>(payload);
  }
  [[nodiscard]] PimJoinPayload& pim_join() {
    return std::get<PimJoinPayload>(payload);
  }
  [[nodiscard]] const PimJoinPayload& pim_join() const {
    return std::get<PimJoinPayload>(payload);
  }

  /// One-line human-readable description for traces.
  [[nodiscard]] std::string describe() const;
};

}  // namespace hbh::net
