// Unit tests for capacitated-link egress queues: drop-tail boundaries,
// drain ordering, the wait + serialization + propagation delay oracle,
// the control-packet priority lane, RED's seeded determinism, and the
// byte-identity guarantee for uncapacitated links, and a traced congested
// session queueing exactly like an untraced one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/session.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/wire.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace hbh::net {
namespace {

using routing::UnicastRouting;

struct Fixture {
  Topology topo;
  std::unique_ptr<UnicastRouting> routes;
  std::unique_ptr<Network> net;
  sim::Simulator sim;

  void finish() {
    routes = std::make_unique<UnicastRouting>(topo);
    net = std::make_unique<Network>(sim, topo, *routes);
  }
};

/// Agent recording arrival times of everything addressed to it.
class RecordingAgent : public ProtocolAgent {
 public:
  std::vector<Time> arrivals;

 protected:
  void deliver_local(PacketHandle, NodeId) override {
    arrivals.push_back(simulator().now());
  }
};

/// Tap collecting drop reasons and queue admissions.
class QueueTap : public PacketTap {
 public:
  struct Admission {
    Time wait;
    Time serialization;
    Time at;
    std::size_t depth;
  };
  std::vector<std::string> drops;
  std::vector<Admission> admissions;
  void on_drop(NodeId, const Packet&, std::string_view reason, Time) override {
    drops.emplace_back(reason);
  }
  void on_queue(const Topology::Edge&, const Packet&, Time wait,
                Time serialization, std::size_t depth, Time now) override {
    admissions.push_back(Admission{wait, serialization, now, depth});
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

Packet make_join(Network& net, NodeId from, NodeId to) {
  Packet p;
  p.src = net.address_of(from);
  p.dst = net.address_of(to);
  p.type = PacketType::kJoin;
  p.payload = JoinPayload{.receiver = net.address_of(from)};
  return p;
}

TEST(QueueTest, DropTailAdmitsExactlyQueueLimit) {
  // One capacitated link 0 -> 1 with room for 4 packets; the occupancy
  // includes the copy currently serializing, so a back-to-back burst of 4
  // fills the queue exactly and the 5th is the first drop.
  Fixture f;
  f.topo.add_node();
  f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1},
                    LinkSpec{.cost = 1, .delay = 2, .capacity = 10,
                             .queue_limit = 4});
  f.finish();
  QueueTap tap;
  f.net->add_tap(&tap);
  for (int i = 0; i < 5; ++i) {
    f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                       NodeId{1}));
  }
  EXPECT_EQ(f.net->counters().queued_packets, 4u);
  EXPECT_EQ(f.net->counters().drops_queue_full, 1u);
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0], "queue-full");
  EXPECT_EQ(f.net->queue_depth(*f.topo.find_link(NodeId{0}, NodeId{1})), 4u);
}

TEST(QueueTest, DrainOrderingMatchesSerializationSchedule) {
  // Back-to-back admissions serialize FIFO: copy i waits i x ser, so
  // arrival_i = (i + 1) x ser + propagation, strictly increasing.
  Fixture f;
  f.topo.add_node();
  f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1},
                    LinkSpec{.cost = 1, .delay = 2, .capacity = 10,
                             .queue_limit = 4});
  f.finish();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  QueueTap tap;
  f.net->add_tap(&tap);
  const Time ser =
      static_cast<Time>(encoded_size(make_data(*f.net, NodeId{0}, NodeId{1}))) /
      10.0;
  for (int i = 0; i < 4; ++i) {
    f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                       NodeId{1}));
  }
  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  ASSERT_EQ(tap.admissions.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(tap.admissions[i].wait, static_cast<double>(i) * ser);
    EXPECT_DOUBLE_EQ(tap.admissions[i].serialization, ser);
    EXPECT_DOUBLE_EQ(sink.arrivals[i],
                     static_cast<double>(i + 1) * ser + 2.0);
  }
  // Fully drained: the backlog is gone and the next burst admits again.
  EXPECT_EQ(f.net->queue_depth(*f.topo.find_link(NodeId{0}, NodeId{1})), 0u);
  f.net->send_direct(NodeId{0}, NodeId{1},
                     make_data(*f.net, NodeId{0}, NodeId{1}));
  EXPECT_EQ(f.net->counters().drops_queue_full, 0u);
  EXPECT_EQ(f.net->counters().queued_packets, 5u);
}

TEST(QueueTest, ChainDelayOracle) {
  // 0 -> 1 -> 2 with ser1 < ser2: the second of two back-to-back packets
  // queues behind the first on BOTH links, and its end-to-end delay is the
  // closed-form sum of waits, serializations, and propagations.
  Fixture f;
  for (int i = 0; i < 3; ++i) f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1},
                    LinkSpec{.cost = 1, .delay = 1, .capacity = 20});
  f.topo.add_duplex(NodeId{1}, NodeId{2},
                    LinkSpec{.cost = 1, .delay = 1, .capacity = 10});
  f.finish();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{2}, std::make_unique<RecordingAgent>()));
  const Time ser1 =
      static_cast<Time>(encoded_size(make_data(*f.net, NodeId{0}, NodeId{2}))) /
      20.0;
  const Time ser2 = 2.0 * ser1;  // half the capacity, same bytes
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{2}));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{2}));
  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  // First packet never waits: ser1 + 1 to reach node 1, ser2 + 1 onward.
  EXPECT_DOUBLE_EQ(sink.arrivals[0], ser1 + 1.0 + ser2 + 1.0);
  // Second waits ser1 on hop 1 (arrives at 2·ser1 + 1), then hop 2 is busy
  // until ser1 + 1 + ser2, so it waits ser2 - ser1 more before its own
  // serialization.
  EXPECT_DOUBLE_EQ(sink.arrivals[1],
                   2.0 * ser1 + 1.0 + (ser2 - ser1) + ser2 + 1.0);
}

TEST(QueueTest, ControlPacketsBypassFullQueue) {
  // Priority lane: with the egress queue exactly full, a control packet
  // still crosses at pure propagation delay and charges no queue slot.
  Fixture f;
  f.topo.add_node();
  f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1},
                    LinkSpec{.cost = 1, .delay = 2, .capacity = 10,
                             .queue_limit = 2});
  f.finish();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  for (int i = 0; i < 2; ++i) {
    f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                       NodeId{1}));
  }
  const LinkId link = *f.topo.find_link(NodeId{0}, NodeId{1});
  EXPECT_EQ(f.net->queue_depth(link), 2u);
  f.net->send_direct(NodeId{0}, NodeId{1},
                     make_join(*f.net, NodeId{0}, NodeId{1}));
  EXPECT_EQ(f.net->counters().drops_queue_full, 0u);
  EXPECT_EQ(f.net->counters().queued_packets, 2u);
  EXPECT_EQ(f.net->queue_depth(link), 2u);
  f.sim.run();
  // The join's arrival (delay 2) beats both queued data copies (ser 4, 8).
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(sink.arrivals.front(), 2.0);
}

TEST(QueueTest, HighWaterMarkAndAdmittedTrackOccupancy) {
  // A burst of 4 into a limit-4 queue peaks at depth 4; after draining and
  // a second, smaller burst the high-water mark must still read the peak
  // while the admission counter keeps accumulating. The per-admission
  // depth passed to on_queue is the occupancy including that copy.
  Fixture f;
  f.topo.add_node();
  f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1},
                    LinkSpec{.cost = 1, .delay = 2, .capacity = 10,
                             .queue_limit = 4});
  f.finish();
  QueueTap tap;
  f.net->add_tap(&tap);
  const LinkId link = *f.topo.find_link(NodeId{0}, NodeId{1});
  for (int i = 0; i < 5; ++i) {
    f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                       NodeId{1}));
  }
  ASSERT_EQ(tap.admissions.size(), 4u);
  for (std::size_t i = 0; i < tap.admissions.size(); ++i) {
    EXPECT_EQ(tap.admissions[i].depth, i + 1);
  }
  EXPECT_EQ(f.net->queue_high_water(link), 4u);
  EXPECT_EQ(f.net->queue_admitted(link), 4u);

  f.sim.run();  // drain completely
  f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                     NodeId{1}));
  EXPECT_EQ(f.net->queue_high_water(link), 4u);  // monotone peak
  EXPECT_EQ(f.net->queue_admitted(link), 5u);
  // The reverse direction carried nothing.
  EXPECT_EQ(f.net->queue_high_water(*f.topo.find_link(NodeId{1}, NodeId{0})),
            0u);
  EXPECT_EQ(f.net->queue_admitted(*f.topo.find_link(NodeId{1}, NodeId{0})),
            0u);
}

TEST(QueueTest, RedDecisionsAreSeedDeterministic) {
  // Two identically seeded networks must make identical RED early-drop
  // decisions; reseeding with seed_aqm resets the streams mid-object.
  const auto run_once = [](std::uint64_t seed) {
    Fixture f;
    f.topo.add_node();
    f.topo.add_node();
    // ser = 40 B / 40 B/tu = 1 tu; offering a packet every 0.5 tu is 2x
    // the drain rate, so occupancy climbs through RED's [min_th, max_th)
    // band and holds there instead of slamming into the drop-tail limit
    // (where "queue-full" would preempt RED entirely).
    f.topo.add_duplex(NodeId{0}, NodeId{1},
                      LinkSpec{.cost = 1, .delay = 1, .capacity = 40,
                               .queue_limit = 32, .aqm = AqmPolicy::kRed});
    f.finish();
    f.net->seed_aqm(seed);
    QueueTap tap;
    f.net->add_tap(&tap);
    for (int i = 0; i < 200; ++i) {
      f.sim.schedule(0.5 * i, [&f] {
        f.net->send_direct(NodeId{0}, NodeId{1},
                           make_data(*f.net, NodeId{0}, NodeId{1}));
      });
    }
    f.sim.run();
    return std::pair{f.net->counters().drops_red, tap.drops};
  };
  const auto [drops_a, reasons_a] = run_once(42);
  const auto [drops_b, reasons_b] = run_once(42);
  EXPECT_GT(drops_a, 0u);  // the load pattern must actually exercise RED
  EXPECT_EQ(drops_a, drops_b);
  EXPECT_EQ(reasons_a, reasons_b);
}

TEST(QueueTest, UncapacitatedLinksStayUntouched) {
  // capacity == 0 is the byte-identity guarantee: no queue state, no
  // congestion counters, no on_queue callbacks, delay = propagation only.
  Fixture f;
  f.topo.add_node();
  f.topo.add_node();
  f.topo.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{.cost = 1, .delay = 2});
  f.finish();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  QueueTap tap;
  f.net->add_tap(&tap);
  for (int i = 0; i < 8; ++i) {
    f.net->send_direct(NodeId{0}, NodeId{1}, make_data(*f.net, NodeId{0},
                                                       NodeId{1}));
  }
  f.sim.run();
  EXPECT_EQ(f.net->counters().queued_packets, 0u);
  EXPECT_EQ(f.net->counters().drops_queue_full, 0u);
  EXPECT_EQ(f.net->counters().drops_red, 0u);
  EXPECT_TRUE(tap.admissions.empty());
  EXPECT_EQ(f.net->queue_depth(*f.topo.find_link(NodeId{0}, NodeId{1})), 0u);
  ASSERT_EQ(sink.arrivals.size(), 8u);
  for (const Time t : sink.arrivals) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(QueueTest, TracingLeavesACongestedSessionsTimingUntouched) {
  // A trace context rides beside the packet, not in its modelled wire size,
  // so tracing a congested run must not change one serialization time,
  // queue wait, drop or delivery. HBH on the ISP backbone at 360 B/tu with
  // 64-byte payloads at 4 emissions per tu keeps the queues busy.
  struct Outcome {
    std::vector<Time> waits;
    std::vector<Time> serializations;
    std::vector<std::string> drops;
    std::size_t deliveries = 0;
  };
  const auto run = [](bool traced) {
    Rng rng{2026};
    topo::Scenario scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    Rng pick{7};
    const auto receivers = pick.sample(scenario.candidate_receivers(), 8);
    harness::SessionConfig config;
    config.observe.tracing = traced;
    harness::Session session{scenario, harness::Protocol::kHbh, config};
    QueueTap tap;
    session.network().add_tap(&tap);
    harness::ChannelHandle ch = session.default_channel();
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      ch.subscribe(r, delay);
      delay += 2.0;
    }
    session.run_for(delay + 200);
    session.apply_backbone_capacity(360, 64);
    const Time start = session.simulator().now();
    ch.set_traffic(harness::TrafficSpec{
        .rate = 4, .payload_bytes = 64, .start = start, .stop = start + 300});
    session.run_for(400);
    session.network().remove_tap(&tap);
    Outcome out;
    for (const QueueTap::Admission& a : tap.admissions) {
      out.waits.push_back(a.wait);
      out.serializations.push_back(a.serialization);
    }
    out.drops = tap.drops;
    for (const NodeId r : receivers) {
      out.deliveries += session.receiver(r).deliveries().size();
    }
    return out;
  };
  const Outcome plain = run(false);
  const Outcome traced = run(true);
  ASSERT_GT(plain.waits.size(), 1000u);
  EXPECT_GT(*std::max_element(plain.waits.begin(), plain.waits.end()), 0.0);
  EXPECT_GT(plain.deliveries, 0u);
  EXPECT_EQ(traced.waits, plain.waits);
  EXPECT_EQ(traced.serializations, plain.serializations);
  EXPECT_EQ(traced.drops, plain.drops);
  EXPECT_EQ(traced.deliveries, plain.deliveries);
}

}  // namespace
}  // namespace hbh::net
