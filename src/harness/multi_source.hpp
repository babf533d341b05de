// A composite source-host agent: one host node sourcing many ⟨S,G⟩
// channels (the EXPRESS channel model the paper builds on — a source
// address can anchor any number of groups).
//
// The Network allows one ProtocolAgent per node, and each protocol's
// source agent (HbhSource / ReuniteSource / PimSource) is single-channel
// by design. This composite bridges the two: it owns one source sub-agent
// per channel, gives each its node identity via Network::adopt, and
// dispatches arriving packets by the packet's channel field. Packets for
// channels this host does not source fall through to the base agent —
// plain unicast forwarding, exactly what a single source agent does with
// a foreign channel — so a one-channel composite is event-for-event
// identical to attaching that source agent directly.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness/session.hpp"
#include "net/channel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hbh::harness {

class MultiSourceHost : public net::ProtocolAgent {
 public:
  /// Installs the source sub-agent for `channel` and binds it to this
  /// host's node (the composite must already be attached to the network).
  /// If the simulation already started, the sub-agent is started here.
  net::ProtocolAgent& add_source(const net::Channel& channel,
                                 std::unique_ptr<net::ProtocolAgent> source);

  void start() override;
  void handle(net::PacketHandle h, NodeId from) override;

  [[nodiscard]] std::size_t source_count() const noexcept {
    return subs_.size();
  }

  /// The source sub-agent serving `channel` (nullptr if none).
  [[nodiscard]] net::ProtocolAgent* agent_for(const net::Channel& channel);
  [[nodiscard]] const net::ProtocolAgent* agent_for(
      const net::Channel& channel) const;

  /// Sum of the sub-agents' telemetry counters. Receives are counted on
  /// the composite by the Network; timer fires accrue in the sub-agents.
  [[nodiscard]] net::AgentStats sub_stats() const;

  /// (Re)configures autonomous data emission for `channel`: `emit` fires
  /// every spec.interval() from spec.start until spec.stop (TrafficSpec
  /// semantics). Replaces any previous spec for the channel; a rate-0 spec
  /// just cancels. Armed immediately if the simulation started, else at
  /// start(). Each firing counts as one composite timer fire.
  void set_traffic(const net::Channel& channel, const TrafficSpec& spec,
                   std::function<void()> emit);

  /// The active traffic spec for `channel` (default spec if none).
  [[nodiscard]] const TrafficSpec& traffic(const net::Channel& channel) const;

 private:
  struct Sub {
    net::Channel channel;
    std::unique_ptr<net::ProtocolAgent> agent;
  };
  struct Traffic {
    net::Channel channel;
    TrafficSpec spec;
    std::function<void()> emit;
    std::unique_ptr<sim::PeriodicTimer> timer;
  };

  void arm_traffic(Traffic& t);
  void fire_traffic(Traffic& t);

  std::vector<Sub> subs_;
  std::vector<std::unique_ptr<Traffic>> traffic_;  ///< stable across growth
  bool started_ = false;
};

}  // namespace hbh::harness
