// Receiver-side group membership: the host agents that subscribe to
// channels, emit periodic control refreshes, and record data deliveries.
//
// This plays the role IGMP plays at the network edge (the paper assumes
// "one or many receivers attached to a border router through IGMP" — we
// model one receiver host per router and note that local aggregation does
// not change tree cost, §4.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mcast/common/soft_state.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hbh::mcast {

/// Observer of data arriving at receiver hosts. The metrics module installs
/// one to measure per-receiver delay and exactly-once delivery.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void on_data(NodeId host, const net::Packet& packet, Time now) = 0;
};

/// A record of one data delivery kept by the host itself (tests use this
/// directly; experiments prefer a DeliverySink).
struct Delivery {
  net::Channel channel;
  std::uint64_t probe = 0;
  std::uint32_t seq = 0;
  Time sent_at = 0;
  Time received_at = 0;
};

/// How a receiver host signals membership upstream.
enum class JoinStyle {
  kSourceJoin,  ///< HBH / REUNITE: periodic join(S, r) unicast toward S
  kPimJoin,     ///< PIM: hop-by-hop (S/RP, G) join toward a configured root
};

/// Receiver host agent, common to all four protocols.
///
/// subscribe() sends the first join immediately (flagged `first` for HBH's
/// "never intercepted" rule) and re-sends every join_period. unsubscribe()
/// silently stops refreshing — exactly how the paper's receivers leave.
class ReceiverHost : public net::ProtocolAgent {
 public:
  ReceiverHost(JoinStyle style, McastConfig config)
      : style_(style), config_(config) {}

  /// Starts membership in `channel`. For kPimJoin, `root` is the tree root
  /// the join propagates toward (source for PIM-SS, RP for PIM-SM);
  /// ignored for kSourceJoin.
  void subscribe(const net::Channel& channel, Ipv4Addr root = kNoAddr);

  /// Stops refreshing membership (soft-state leave).
  void unsubscribe(const net::Channel& channel);

  [[nodiscard]] bool subscribed(const net::Channel& channel) const {
    return subs_.contains(channel);
  }

  /// Number of channels this host is currently subscribed to.
  [[nodiscard]] std::size_t subscription_count() const noexcept {
    return subs_.size();
  }

  /// All data deliveries observed so far.
  [[nodiscard]] const std::vector<Delivery>& deliveries() const noexcept {
    return deliveries_;
  }
  void clear_deliveries() { deliveries_.clear(); }

  void set_sink(DeliverySink* sink) noexcept { sink_ = sink; }

  void handle(net::PacketHandle h, NodeId from) override;

  /// True while the receiver considers itself connected to the channel's
  /// tree: a tree(S, r) addressed to it arrived within ~2.5 refresh
  /// periods. Drives the REUNITE `fresh` join bit (re-anchoring signal).
  [[nodiscard]] bool connected(const net::Channel& channel) const;

 private:
  /// The data-termination decision: records the delivery (trace instant,
  /// Delivery, sink, log) when subscribed and returns true when the packet
  /// ends here (also for unsubscribed self-addressed data); false means
  /// the packet is not ours and should be forwarded.
  bool accept_data(net::PacketHandle h);

  struct Subscription {
    Ipv4Addr root;
    std::unique_ptr<sim::PeriodicTimer> timer;
    net::TraceContext ctx;  ///< root span of this membership episode
    bool first_sent = false;
    Time last_tree_at = -1;  ///< arrival time of the last tree(S, r); -1 = never
    std::uint32_t last_wave = 0;  ///< highest refresh wave seen; stale
                                  ///< stragglers must not fake connectivity
  };

  void send_refresh(const net::Channel& channel);

  JoinStyle style_;
  McastConfig config_;
  std::unordered_map<net::Channel, Subscription> subs_;
  std::vector<Delivery> deliveries_;
  DeliverySink* sink_ = nullptr;
};

}  // namespace hbh::mcast
