// Causal control-plane tracing (docs/OBSERVABILITY.md "Causal tracing").
//
// The Tracer implements net::TraceHook: externally triggered actions
// (subscribe/unsubscribe, source tree rounds and data emissions, injected
// faults) open *root* spans; every wire copy of a traced packet becomes a
// *transmit* span parented on the context the packet carried into that hop,
// so multi-hop chains — HBH's join→tree→fusion cascades, REUNITE
// replication, PIM join/prune propagation, data fan-out — form a single
// causal tree per root. Table mutations, deliveries, and drops are instant
// events hung off the span that caused them.
//
// Span ids are allocated sequentially in simulation-event order, so an
// instrumented run produces byte-identical traces at any HBH_JOBS setting
// (one session runs on one thread from start to end). Recording is
// capacity-bounded like StateSampler: ids keep advancing when
// full (structure stays deterministic) while dropped spans are counted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hbh::metrics {

inline constexpr std::string_view kTraceSchema = "hbh.trace/v1";

enum class SpanKind : std::uint8_t {
  kRoot,      ///< externally triggered action (subscribe, tree round, fault)
  kChild,     ///< agent-local sub-action (one soft-state refresh round)
  kTransmit,  ///< one wire copy crossing one link
  kInstant,   ///< zero-duration event (delivery, table mutation, drop)
};

[[nodiscard]] std::string_view to_string(SpanKind kind);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for roots
  SpanKind kind = SpanKind::kInstant;
  std::string name;      ///< "subscribe", "tx:tree", "mft-insert", ...
  NodeId node;           ///< where it happened (transmit: the sending node)
  net::Channel channel;  ///< invalid for channel-less roots (faults)
  Ipv4Addr subject;      ///< who it is about (receiver, tree target, ...)
  net::PacketType type = net::PacketType::kData;  ///< transmit spans only
  Time start = 0;
  Time end = 0;
};

class Tracer final : public net::TraceHook {
 public:
  /// Records at most `capacity` spans; ids keep advancing beyond that so
  /// trace structure is independent of the recording limit.
  explicit Tracer(sim::Simulator& sim, std::size_t capacity = 1u << 20);

  // net::TraceHook
  net::TraceContext root(std::string_view name, NodeId node,
                         const net::Channel& channel,
                         Ipv4Addr subject) override;
  net::TraceContext child(const net::TraceContext& parent,
                          std::string_view name, NodeId node,
                          const net::Channel& channel,
                          Ipv4Addr subject) override;
  void instant(const net::TraceContext& parent, std::string_view name,
               NodeId node, const net::Channel& channel,
               Ipv4Addr subject) override;
  net::TraceContext on_transmit(const net::Topology::Edge& edge,
                                const net::Packet& packet,
                                const net::TraceContext& parent, Time start,
                                Time arrival) override;
  void on_drop(NodeId at, const net::Packet& packet,
               const net::TraceContext& trace, std::string_view reason,
               Time now) override;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Spans not recorded because the capacity was reached.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] bool truncated() const noexcept { return dropped_ != 0; }

  void clear();

 private:
  net::TraceContext open(std::uint64_t trace_id, std::uint64_t parent_id,
                         SpanKind kind, std::string_view name, NodeId node,
                         const net::Channel& channel, Ipv4Addr subject,
                         net::PacketType type, Time start, Time end);

  sim::Simulator& sim_;
  std::size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Per-receiver graft timeline folded out of one trace: when the receiver
/// subscribed, when the first data packet reached it, and how many control
/// messages its join chain cost (transmit spans in the subscribe trace).
struct GraftTimeline {
  Ipv4Addr receiver;
  net::Channel channel;
  Time subscribed_at = 0;
  Time first_delivery_at = -1;         ///< -1: never delivered in the run
  double join_to_first_delivery = -1;  ///< -1: never delivered
  std::uint64_t control_messages = 0;
};

/// Per-receiver leave timeline: explicit-prune protocols (PIM) quiesce when
/// the last prune transmission lands; soft-state protocols (HBH, REUNITE)
/// when the receiver's forwarding state is evicted by timeout.
struct LeaveTimeline {
  Ipv4Addr receiver;
  net::Channel channel;
  Time unsubscribed_at = 0;
  double leave_to_prune = -1;  ///< -1: no prune/eviction observed
};

struct ConvergenceSummary {
  std::vector<GraftTimeline> grafts;
  std::vector<LeaveTimeline> leaves;

  [[nodiscard]] double mean_join_to_first_delivery() const;
  [[nodiscard]] double mean_leave_to_prune() const;
  [[nodiscard]] double mean_control_per_graft() const;
  [[nodiscard]] std::size_t undelivered_grafts() const;
};

/// Folds a span list into per-receiver convergence timelines. Deliveries
/// and evictions are matched by (channel, receiver) across traces — a
/// receiver's first delivery is usually caused by a source emission root,
/// not by its own join chain.
[[nodiscard]] ConvergenceSummary analyze_convergence(
    const std::vector<SpanRecord>& spans);

/// Writes spans as a Chrome trace-event / Perfetto JSON file (schema key
/// "hbh.trace/v1", one track per node, X events for spans, i events for
/// instants). Loadable directly in ui.perfetto.dev / chrome://tracing.
[[nodiscard]] bool write_perfetto_trace(
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, std::string>& info, std::uint64_t dropped,
    const std::string& path);

/// Convenience overload for a whole tracer.
[[nodiscard]] bool write_perfetto_trace(
    const Tracer& tracer, const std::map<std::string, std::string>& info,
    const std::string& path);

}  // namespace hbh::metrics
