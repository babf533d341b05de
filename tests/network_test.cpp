// Unit tests for the network fabric: addressing, unicast forwarding,
// delays, TTL protection, taps, and agent interception hooks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"

namespace hbh::net {
namespace {

using routing::UnicastRouting;

struct Fixture {
  Topology topo;
  std::unique_ptr<UnicastRouting> routes;
  std::unique_ptr<Network> net;
  sim::Simulator sim;

  // Line topology 0 - 1 - 2 - 3, unit costs, delay 2 per hop.
  void build_line(std::size_t n = 4) {
    for (std::size_t i = 0; i < n; ++i) topo.add_node();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      topo.add_duplex(NodeId{static_cast<std::uint32_t>(i)},
                      NodeId{static_cast<std::uint32_t>(i + 1)},
                      LinkSpec{.cost = 1, .delay = 2});
    }
    routes = std::make_unique<UnicastRouting>(topo);
    net = std::make_unique<Network>(sim, topo, *routes);
  }
};

/// Agent recording every delivery addressed to it.
class RecordingAgent : public ProtocolAgent {
 public:
  struct Seen {
    Packet packet;
    Time at;
    NodeId from;
  };
  std::vector<Seen> received;

 protected:
  void deliver_local(PacketHandle h, NodeId from) override {
    received.push_back(Seen{net().packet(h), simulator().now(), from});
  }
};

/// Tap collecting (from, to) of each transmission.
class RecordingTap : public PacketTap {
 public:
  std::vector<std::pair<NodeId, NodeId>> hops;
  std::vector<std::string> drops;
  void on_transmit(const Topology::Edge& e, const Packet&, Time) override {
    hops.emplace_back(e.from, e.to);
  }
  void on_drop(NodeId, const Packet&, std::string_view reason, Time) override {
    drops.emplace_back(reason);
  }
};

Packet make_data(Network& net, NodeId from, NodeId to) {
  Packet p;
  p.src = net.address_of(from);
  p.dst = net.address_of(to);
  p.type = PacketType::kData;
  p.payload = DataPayload{};
  return p;
}

TEST(NetworkTest, AddressAssignmentIsStableAndReversible) {
  Fixture f;
  f.build_line();
  for (std::uint32_t i = 0; i < 4; ++i) {
    const NodeId n{i};
    const Ipv4Addr a = f.net->address_of(n);
    EXPECT_EQ(f.net->node_of(a), n);
    EXPECT_EQ(a.octet(0), 10);
  }
  EXPECT_EQ(f.net->node_of(Ipv4Addr(1, 2, 3, 4)), kNoNode);
}

TEST(NetworkTest, NodeOfRejectsAddressesOutsideTheScheme) {
  Fixture f;
  f.build_line();
  EXPECT_EQ(f.net->node_of(Ipv4Addr{}), kNoNode);                // 0.0.0.0
  EXPECT_EQ(f.net->node_of(Ipv4Addr(232, 0, 0, 1)), kNoNode);    // class D
  EXPECT_EQ(f.net->node_of(Ipv4Addr(10, 0, 2, 2)), kNoNode);     // host .2
  EXPECT_EQ(f.net->node_of(node_address(NodeId{4})), kNoNode);   // index 4
  EXPECT_EQ(f.net->node_of(Ipv4Addr(10, 255, 255, 1)), kNoNode);
  EXPECT_EQ(f.net->node_of(Ipv4Addr(10, 0, 3, 1)), NodeId{3});
}

TEST(NetworkTest, NodeAddressSchemeSpansIndices) {
  EXPECT_EQ(node_address(NodeId{0}).to_string(), "10.0.0.1");
  EXPECT_EQ(node_address(NodeId{255}).to_string(), "10.0.255.1");
  EXPECT_EQ(node_address(NodeId{256}).to_string(), "10.1.0.1");
}

TEST(NetworkTest, UnicastDeliveryAcrossMultipleHops) {
  Fixture f;
  f.build_line();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 6.0);  // 3 hops × delay 2
  EXPECT_EQ(sink.received[0].from, NodeId{2});
}

TEST(NetworkTest, TransmissionCountersTrackHops) {
  Fixture f;
  f.build_line();
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  EXPECT_EQ(f.net->counters().transmissions, 3u);
  EXPECT_EQ(f.net->counters().data_transmissions, 3u);
  EXPECT_EQ(f.net->counters().control_transmissions, 0u);
}

TEST(NetworkTest, TapObservesEveryHopInOrder) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  ASSERT_EQ(tap.hops.size(), 3u);
  EXPECT_EQ(tap.hops[0], std::make_pair(NodeId{0}, NodeId{1}));
  EXPECT_EQ(tap.hops[2], std::make_pair(NodeId{2}, NodeId{3}));
}

TEST(NetworkTest, SelfAddressedPacketDeliversLocally) {
  Fixture f;
  f.build_line();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{1}, make_data(*f.net, NodeId{1}, NodeId{1}));
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 0.0);
  EXPECT_EQ(f.net->counters().transmissions, 0u);
}

TEST(NetworkTest, UnknownDestinationIsDropped) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  Packet p = make_data(*f.net, NodeId{0}, NodeId{1});
  p.dst = Ipv4Addr(8, 8, 8, 8);
  f.net->send(NodeId{0}, std::move(p));
  f.sim.run();
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0], "unknown-destination");
  EXPECT_EQ(f.net->counters().drops_no_route, 1u);
}

TEST(NetworkTest, NoRouteIsDropped) {
  Fixture f;
  // Two disconnected nodes.
  f.topo.add_node();
  f.topo.add_node();
  f.routes = std::make_unique<UnicastRouting>(f.topo);
  f.net = std::make_unique<Network>(f.sim, f.topo, *f.routes);
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{1}));
  f.sim.run();
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0], "no-route");
}

TEST(NetworkTest, TtlExpiryBoundsForwarding) {
  Fixture f;
  f.build_line(4);
  Packet p = make_data(*f.net, NodeId{0}, NodeId{3});
  p.ttl = 2;  // enough for 2 hops only
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, std::move(p));
  f.sim.run();
  EXPECT_EQ(tap.hops.size(), 2u);
  EXPECT_EQ(f.net->counters().drops_ttl, 1u);
}

TEST(NetworkTest, DefaultAgentForwardsTransitTraffic) {
  Fixture f;
  f.build_line();
  // No custom agents anywhere except destination: transit nodes 1, 2 use
  // the default agent and must forward.
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST(NetworkTest, DefaultAgentSinksSelfAddressed) {
  Fixture f;
  f.build_line();
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{2}));
  f.sim.run();
  EXPECT_EQ(f.net->counters().local_sink, 1u);
}

TEST(NetworkTest, SendDirectUsesNamedLinkOnly) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  // Direct transmission 1->2 of a packet addressed elsewhere; the next
  // agent (default) will then forward it by unicast toward node 0.
  Packet p = make_data(*f.net, NodeId{1}, NodeId{0});
  f.net->send_direct(NodeId{1}, NodeId{2}, std::move(p));
  f.sim.run();
  ASSERT_GE(tap.hops.size(), 2u);
  EXPECT_EQ(tap.hops[0], std::make_pair(NodeId{1}, NodeId{2}));
  EXPECT_EQ(tap.hops[1], std::make_pair(NodeId{2}, NodeId{1}));
}

TEST(NetworkTest, PacketsSentWhileDeliveringArriveIntactAndInOrder) {
  // Node 1 answers every packet addressed to it with a burst of sends —
  // to itself and to node 3 — from inside the delivery, so the in-flight
  // pool is reused and grown while a packet is being handed over. Each
  // echo re-reads the delivered packet after the previous send, so a
  // packet still living in a reused or moved slot would show.
  class Fanout : public ProtocolAgent {
   protected:
    void deliver_local(PacketHandle h, NodeId) override {
      const Packet& p = net().packet(h);
      if (p.data().seq >= 100) return;  // the echoes themselves end here
      for (std::uint32_t k = 0; k < 8; ++k) {
        Packet echo = p;
        echo.data().seq = 100 + 10 * p.data().seq + k;
        echo.dst = k % 2 == 0 ? net().address_of(NodeId{3}) : self_addr();
        net().send(self(), std::move(echo));
      }
    }
  };
  Fixture f;
  f.build_line();
  f.net->attach(NodeId{1}, std::make_unique<Fanout>());
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    Packet p = make_data(*f.net, NodeId{0}, NodeId{1});
    p.payload = DataPayload{.seq = seq};
    f.net->send(NodeId{0}, std::move(p));
  }
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 12u);
  for (std::size_t i = 0; i < sink.received.size(); ++i) {
    const std::uint32_t seq = 100 + 10 * static_cast<std::uint32_t>(i / 4) +
                              2 * static_cast<std::uint32_t>(i % 4);
    EXPECT_EQ(sink.received[i].packet.data().seq, seq) << i;
    EXPECT_DOUBLE_EQ(sink.received[i].at, 6.0);  // 1 hop in, 2 hops out
  }
}

TEST(NetworkTest, StartInvokesAllAgents) {
  class StartCounting : public ProtocolAgent {
   public:
    explicit StartCounting(int& counter) : counter_(counter) {}
    void start() override { ++counter_; }

   private:
    int& counter_;
  };
  Fixture f;
  f.build_line();
  int started = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    f.net->attach(NodeId{i}, std::make_unique<StartCounting>(started));
  }
  f.net->start();
  EXPECT_EQ(started, 4);
}

// --- The in-flight pool ---------------------------------------------------

// Hops pass a 4-byte handle; what stays in the pool must stay small too.
static_assert(sizeof(Packet) <= 64, "Packet outgrew one cache line");
static_assert(sizeof(PacketHandle) == 4);

TEST(PacketPoolTest, ClonesGrowPastAChunkWithoutMovingTheHeldPacket) {
  // A handler clones the packet it holds until the pool needs a second
  // chunk, re-reading the original through the reference it took before
  // the first clone. Chunked storage must keep that reference valid (the
  // ASan job turns a moved slot into a hard failure).
  class Cloner : public ProtocolAgent {
   public:
    std::size_t live_after = 0;
    bool intact = true;

   protected:
    void deliver_local(PacketHandle h, NodeId) override {
      const Packet& original = net().packet(h);
      const std::uint32_t seq = original.data().seq;
      for (std::uint32_t i = 0; i < 2 * PacketPool::kChunkSize; ++i) {
        const PacketHandle copy = net().clone(h);
        intact = intact && original.data().seq == seq &&
                 original.dst == self_addr();
        net().packet(copy).data().seq = seq + 1 + i;
        net().packet(copy).dst = net().address_of(NodeId{3});
        net().send(self(), copy);
        intact = intact && original.data().seq == seq;
      }
      live_after = net().packets_live();  // clones and the held original
    }
  };
  Fixture f;
  f.build_line();
  auto& cloner = static_cast<Cloner&>(
      f.net->attach(NodeId{1}, std::make_unique<Cloner>()));
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{1}));
  f.sim.run();
  EXPECT_TRUE(cloner.intact);
  EXPECT_GT(cloner.live_after, 2u * PacketPool::kChunkSize);
  ASSERT_EQ(sink.received.size(), 2u * PacketPool::kChunkSize);
  for (std::size_t i = 0; i < sink.received.size(); ++i) {
    EXPECT_EQ(sink.received[i].packet.data().seq, i + 1) << i;
  }
  EXPECT_EQ(f.net->packets_live(), 0u);
}

TEST(PacketPoolTest, ImpairmentDuplicateIsAPoolClone) {
  Fixture f;
  f.build_line(2);
  Impairment dup;
  dup.duplicate = 1.0;
  f.net->set_impairment(NodeId{0}, NodeId{1}, dup);
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{1}));
  // Original and duplicate are parked, each in its own slot.
  EXPECT_EQ(f.net->packets_live(), 2u);
  f.sim.run();
  EXPECT_EQ(f.net->counters().duplicates_injected, 1u);
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(f.net->packets_live(), 0u);
}

TEST(PacketPoolTest, SelfAddressedDeliveryParksInThePool) {
  Fixture f;
  f.build_line();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{1}, make_data(*f.net, NodeId{1}, NodeId{1}));
  EXPECT_EQ(f.net->packets_live(), 1u);  // parked for the zero-delay arrival
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].from, kNoNode);
  EXPECT_EQ(f.net->packets_live(), 0u);
}

TEST(PacketPoolTest, EveryDropReasonFreesItsSlot) {
  struct Case {
    std::string reason;
    std::function<void(Fixture&, Packet&)> setup;
    bool direct = false;  ///< send_direct across 0 -> 1 instead of send
  };
  const auto impair = [](Fixture& f, const Impairment& imp) {
    f.net->set_impairment(NodeId{0}, NodeId{1}, imp);
  };
  const std::vector<Case> cases = {
      {"unknown-destination",
       [](Fixture&, Packet& p) { p.dst = Ipv4Addr(8, 8, 8, 8); }},
      {"ttl-expired", [](Fixture&, Packet& p) { p.ttl = 0; }},
      {"link-down",
       [](Fixture& f, Packet&) {
         f.topo.set_link_up(*f.topo.find_link(NodeId{0}, NodeId{1}), false);
       },
       /*direct=*/true},
      {"link-down",
       [&](Fixture& f, Packet&) {
         Impairment flap;
         flap.down_windows = {{0, 10}};
         impair(f, flap);
       }},
      {"loss",
       [&](Fixture& f, Packet&) {
         Impairment lossy;
         lossy.loss = 1.0;
         impair(f, lossy);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    Fixture f;
    f.build_line(2);
    RecordingTap tap;
    f.net->add_tap(&tap);
    Packet p = make_data(*f.net, NodeId{0}, NodeId{1});
    c.setup(f, p);
    if (c.direct) {
      f.net->send_direct(NodeId{0}, NodeId{1}, std::move(p));
    } else {
      f.net->send(NodeId{0}, std::move(p));
    }
    EXPECT_EQ(f.net->packets_live(), 0u);  // dropped before it was parked
    f.sim.run();
    ASSERT_EQ(tap.drops.size(), 1u);
    EXPECT_EQ(tap.drops[0], c.reason);
    EXPECT_EQ(f.net->packets_live(), 0u);
  }

  {
    SCOPED_TRACE("no-route");
    Fixture f;
    f.topo.add_node();
    f.topo.add_node();  // disconnected
    f.routes = std::make_unique<UnicastRouting>(f.topo);
    f.net = std::make_unique<Network>(f.sim, f.topo, *f.routes);
    f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{1}));
    EXPECT_EQ(f.net->counters().drops_no_route, 1u);
    EXPECT_EQ(f.net->packets_live(), 0u);
  }

  for (const AqmPolicy aqm : {AqmPolicy::kDropTail, AqmPolicy::kRed}) {
    SCOPED_TRACE(aqm == AqmPolicy::kRed ? "red-early" : "queue-full");
    // 40 B/tu against a packet every 0.5 tu: twice the drain rate, so the
    // queue fills and sheds (RED early, drop-tail at the limit).
    Fixture f;
    f.topo.add_node();
    f.topo.add_node();
    f.topo.add_duplex(NodeId{0}, NodeId{1},
                      LinkSpec{.cost = 1, .delay = 1, .capacity = 40,
                               .queue_limit = 32, .aqm = aqm});
    f.routes = std::make_unique<UnicastRouting>(f.topo);
    f.net = std::make_unique<Network>(f.sim, f.topo, *f.routes);
    f.net->seed_aqm(42);
    for (int i = 0; i < 200; ++i) {
      f.sim.schedule(0.5 * i, [&f] {
        f.net->send_direct(NodeId{0}, NodeId{1},
                           make_data(*f.net, NodeId{0}, NodeId{1}));
      });
    }
    f.sim.run();
    const NetworkCounters& c = f.net->counters();
    EXPECT_GT(aqm == AqmPolicy::kRed ? c.drops_red : c.drops_queue_full, 0u);
    EXPECT_EQ(f.net->packets_live(), 0u);
  }
}

TEST(PacketTest, DescribeMentionsTypeAndAddresses) {
  Packet p;
  p.src = Ipv4Addr(10, 0, 0, 1);
  p.dst = Ipv4Addr(10, 0, 1, 1);
  p.type = PacketType::kJoin;
  p.payload = JoinPayload{Ipv4Addr(10, 0, 2, 1), true};
  const std::string d = p.describe();
  EXPECT_NE(d.find("join"), std::string::npos);
  EXPECT_NE(d.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(d.find("first"), std::string::npos);
}

TEST(PacketTest, DescribeFusionListsReceivers) {
  Packet p;
  p.type = PacketType::kFusion;
  p.payload = FusionPayload{{Ipv4Addr(10, 0, 2, 1), Ipv4Addr(10, 0, 3, 1)},
                            Ipv4Addr(10, 0, 9, 1)};
  const std::string d = p.describe();
  EXPECT_NE(d.find("10.0.2.1,10.0.3.1"), std::string::npos);
  EXPECT_NE(d.find("from=10.0.9.1"), std::string::npos);
}

}  // namespace
}  // namespace hbh::net
