// Source-agent unit tests (HbhSource / ReuniteSource), RP placement
// policies, and randomized wire-codec round-trips — coverage for the
// channel-root behaviors the protocol suites only exercise indirectly.
#include <gtest/gtest.h>

#include <memory>

#include "mcast/hbh/source.hpp"
#include "mcast/pim/router.hpp"
#include "mcast/reunite/source.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace hbh::mcast {
namespace {

struct Tap : net::PacketTap {
  struct Seen {
    NodeId from;
    net::Packet packet;
  };
  std::vector<Seen> sent;
  void on_transmit(const net::Topology::Edge& e, const net::Packet& p,
                   Time) override {
    sent.push_back(Seen{e.from, p});
  }
  [[nodiscard]] std::size_t count_from(NodeId node,
                                       net::PacketType type) const {
    std::size_t n = 0;
    for (const auto& s : sent) {
      if (s.from == node && s.packet.type == type) ++n;
    }
    return n;
  }
  void clear() { sent.clear(); }
};

// sh(host, n2) - n0 - n1 - rh(host, n3): source host at one end.
struct Fixture {
  net::Topology topo = topo::make_line(2);
  NodeId sh, rh;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  Tap tap;
  net::Channel ch;
  McastConfig cfg{};

  Fixture() {
    sh = topo.add_node(net::NodeKind::kHost);
    rh = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{0}, sh, net::LinkSpec{});
    topo.add_duplex(NodeId{1}, rh, net::LinkSpec{});
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    net->add_tap(&tap);
    ch = net::Channel{net->address_of(sh), GroupAddr::ssm(1)};
  }

  net::Packet join(Ipv4Addr r, bool fresh = true) {
    net::Packet p;
    p.src = r;
    p.dst = ch.source;
    p.channel = ch;
    p.type = net::PacketType::kJoin;
    p.payload = net::JoinPayload{r, false, fresh};
    return p;
  }
};

TEST(HbhSourceTest, EmitsOneTreePerEntryPerPeriod) {
  Fixture f;
  auto* src = static_cast<hbh::HbhSource*>(&f.net->attach(
      f.sh, std::make_unique<hbh::HbhSource>(f.ch, f.cfg)));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.sim.run_for(25);  // two tree rounds at t=10, 20
  EXPECT_EQ(f.tap.count_from(f.sh, net::PacketType::kTree), 2u);
  EXPECT_TRUE(src->has_members());
}

TEST(HbhSourceTest, NoMembersNoTrees) {
  Fixture f;
  f.net->attach(f.sh, std::make_unique<hbh::HbhSource>(f.ch, f.cfg));
  f.net->start();
  f.sim.run_for(50);
  EXPECT_EQ(f.tap.count_from(f.sh, net::PacketType::kTree), 0u);
}

TEST(HbhSourceTest, EntryExpiresWithoutJoinRefresh) {
  Fixture f;
  auto* src = static_cast<hbh::HbhSource*>(&f.net->attach(
      f.sh, std::make_unique<hbh::HbhSource>(f.ch, f.cfg)));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.sim.run_for(30);
  EXPECT_TRUE(src->has_members());
  f.sim.run_for(80);  // past t2 = 70 with no refreshes
  EXPECT_EQ(src->send_data(1, 0), 0u);  // purged: no data targets left
  EXPECT_FALSE(src->has_members());
}

TEST(HbhSourceTest, SendDataAddressesEachDataTarget) {
  Fixture f;
  auto* src = static_cast<hbh::HbhSource*>(&f.net->attach(
      f.sh, std::make_unique<hbh::HbhSource>(f.ch, f.cfg)));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.sim.run_for(5);
  f.tap.clear();
  EXPECT_EQ(src->send_data(7, 3), 1u);
  f.sim.run_for(1);
  ASSERT_EQ(f.tap.count_from(f.sh, net::PacketType::kData), 1u);
  EXPECT_EQ(f.tap.sent.back().packet.data().probe, 7u);
  EXPECT_EQ(f.tap.sent.back().packet.dst, f.net->address_of(f.rh));
}

TEST(HbhSourceTest, ForeignChannelTrafficFallsThrough) {
  Fixture f;
  auto* src = static_cast<hbh::HbhSource*>(&f.net->attach(
      f.sh, std::make_unique<hbh::HbhSource>(f.ch, f.cfg)));
  f.net->start();
  net::Packet foreign = f.join(f.net->address_of(f.rh));
  foreign.channel = net::Channel{f.net->address_of(f.rh), GroupAddr::ssm(9)};
  foreign.dst = f.ch.source;
  f.net->send(f.rh, std::move(foreign));
  f.sim.run_for(10);
  EXPECT_FALSE(src->has_members());  // not our channel: ignored
}

TEST(ReuniteSourceTest, FirstJoinBecomesDst) {
  Fixture f;
  auto* src = static_cast<reunite::ReuniteSource*>(&f.net->attach(
      f.sh, std::make_unique<reunite::ReuniteSource>(f.ch, f.cfg)));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.sim.run_for(5);
  ASSERT_TRUE(src->has_members());
  EXPECT_EQ(src->mft()->dst, f.net->address_of(f.rh));
  EXPECT_TRUE(src->mft()->entries.empty());
}

TEST(ReuniteSourceTest, SecondFreshJoinBecomesEntry) {
  Fixture f;
  auto* src = static_cast<reunite::ReuniteSource*>(&f.net->attach(
      f.sh, std::make_unique<reunite::ReuniteSource>(f.ch, f.cfg)));
  f.net->start();
  const Ipv4Addr r2{10, 9, 9, 1};
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.net->send(f.rh, f.join(r2));
  f.sim.run_for(5);
  ASSERT_TRUE(src->has_members());
  EXPECT_TRUE(src->mft()->entries.contains(r2));
}

TEST(ReuniteSourceTest, NonFreshUnknownJoinIgnored) {
  // A refresh join leaking through a momentarily-stale downstream anchor
  // must not double-anchor the receiver at the source.
  Fixture f;
  auto* src = static_cast<reunite::ReuniteSource*>(&f.net->attach(
      f.sh, std::make_unique<reunite::ReuniteSource>(f.ch, f.cfg)));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh), /*fresh=*/true));
  f.sim.run_for(5);
  const Ipv4Addr r2{10, 9, 9, 1};
  f.net->send(f.rh, f.join(r2, /*fresh=*/false));
  f.sim.run_for(5);
  EXPECT_FALSE(src->mft()->entries.contains(r2));
}

TEST(ReuniteSourceTest, DstPromotionAfterDstDeath) {
  Fixture f;
  auto* src = static_cast<reunite::ReuniteSource*>(&f.net->attach(
      f.sh, std::make_unique<reunite::ReuniteSource>(f.ch, f.cfg)));
  f.net->start();
  const Ipv4Addr r1 = f.net->address_of(f.rh);
  const Ipv4Addr r2{10, 9, 9, 1};
  f.net->send(f.rh, f.join(r1));
  f.net->send(f.rh, f.join(r2));
  f.sim.run_for(5);
  ASSERT_EQ(src->mft()->dst, r1);
  // Keep r2 alive, let r1 starve past t2.
  for (int i = 0; i < 9; ++i) {
    f.net->send(f.rh, f.join(r2, /*fresh=*/false));
    f.sim.run_for(10);
  }
  ASSERT_TRUE(src->has_members());
  EXPECT_EQ(src->mft()->dst, r2);  // promoted
}

TEST(ReuniteSourceTest, MarkedTreeEmittedForStaleDst) {
  Fixture f;
  f.net->attach(f.sh, std::make_unique<reunite::ReuniteSource>(f.ch, f.cfg));
  f.net->start();
  f.net->send(f.rh, f.join(f.net->address_of(f.rh)));
  f.sim.run_for(45);  // dst stale at t1 = 35 (single join, no refresh)
  bool saw_marked = false;
  for (const auto& s : f.tap.sent) {
    if (s.from == f.sh && s.packet.type == net::PacketType::kTree &&
        s.packet.tree().marked) {
      saw_marked = true;
    }
  }
  EXPECT_TRUE(saw_marked);
}

TEST(RpPolicyTest, DelayAwareNeverWorseOnExpectedSmDelay) {
  // The delay-aware policy optimizes exactly the PIM-SM delay objective,
  // so its score can never exceed the cost-medoid's on the same draw.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng{seed};
    auto scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    routing::UnicastRouting routes{scenario.topo};
    const NodeId src_router = scenario.routers[0];

    const auto sm_delay_score = [&](NodeId rp) {
      double score = routes.path_delay(scenario.source_host, rp);
      double down = 0;
      std::size_t n = 0;
      for (const NodeId r : scenario.routers) {
        if (r == rp) continue;
        const auto up = routes.path(r, rp);
        Time d = 0;
        for (std::size_t i = 0; i + 1 < up.size(); ++i) {
          const auto link = scenario.topo.find_link(up[i + 1], up[i]);
          d += scenario.topo.edge(*link).link.delay;
        }
        down += d;
        ++n;
      }
      return score + down / static_cast<double>(n);
    };

    const NodeId medoid = pim::choose_rp(routes, scenario.routers);
    const NodeId aware = pim::choose_rp_delay_aware(routes, scenario.routers,
                                                    scenario.source_host);
    ASSERT_TRUE(medoid.valid());
    ASSERT_TRUE(aware.valid());
    EXPECT_LE(sm_delay_score(aware), sm_delay_score(medoid) + 1e-9)
        << "seed " << seed << " src " << to_string(src_router);
  }
}

TEST(RpPolicyTest, BothPoliciesDeterministic) {
  Rng rng{77};
  auto scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  routing::UnicastRouting routes{scenario.topo};
  EXPECT_EQ(pim::choose_rp(routes, scenario.routers),
            pim::choose_rp(routes, scenario.routers));
  EXPECT_EQ(
      pim::choose_rp_delay_aware(routes, scenario.routers, scenario.source_host),
      pim::choose_rp_delay_aware(routes, scenario.routers,
                                 scenario.source_host));
}

TEST(WirePropertyTest, RandomizedRoundTripsAllTypes) {
  Rng rng{0xC0DEC};
  const auto rand_addr = [&] {
    return Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
  };
  for (int i = 0; i < 500; ++i) {
    net::Packet p;
    p.src = rand_addr();
    p.dst = rand_addr();
    p.channel = net::Channel{rand_addr(), GroupAddr::ssm(static_cast<std::uint16_t>(
                                              rng.uniform_int(0, 65535)))};
    p.ttl = static_cast<int>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        p.type = net::PacketType::kJoin;
        p.payload = net::JoinPayload{rand_addr(), rng.chance(0.5),
                                     rng.chance(0.5)};
        break;
      case 1:
        p.type = net::PacketType::kTree;
        p.payload = net::TreePayload{
            rand_addr(), rng.chance(0.5), rand_addr(),
            static_cast<std::uint32_t>(rng.next())};
        break;
      case 2: {
        p.type = net::PacketType::kFusion;
        net::FusionPayload fp;
        fp.origin = rand_addr();
        const auto count = rng.uniform_int(0, 8);
        for (int k = 0; k < count; ++k) fp.receivers.push_back(rand_addr());
        p.payload = std::move(fp);
        break;
      }
      case 3:
        p.type = net::PacketType::kPimJoin;
        p.payload = net::PimJoinPayload{rand_addr(), rand_addr()};
        break;
      default:
        p.type = net::PacketType::kData;
        p.payload = net::DataPayload{rng.next(),
                                     static_cast<std::uint32_t>(rng.next()),
                                     rng.uniform(0, 1e6), rng.chance(0.5)};
        break;
    }
    const auto bytes = net::encode(p);
    ASSERT_EQ(bytes.size(), net::encoded_size(p));
    const auto out = net::decode(bytes);
    ASSERT_TRUE(out.has_value()) << "iteration " << i;
    EXPECT_EQ(out->type, p.type);
    EXPECT_EQ(out->src, p.src);
    EXPECT_EQ(out->dst, p.dst);
    EXPECT_EQ(out->channel, p.channel);
    EXPECT_EQ(out->ttl, p.ttl);
  }
}

}  // namespace
}  // namespace hbh::mcast
