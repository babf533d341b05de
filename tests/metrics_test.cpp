// Tests for the measurement probes (tree cost counting, per-link copy
// detection, delay recording, delivery audit).
#include <gtest/gtest.h>

#include "metrics/probe.hpp"

namespace hbh::metrics {
namespace {

net::Topology::Edge edge(std::uint32_t a, std::uint32_t b) {
  return net::Topology::Edge{NodeId{a}, NodeId{b}, net::LinkSpec{}};
}

net::Packet data_packet(std::uint64_t probe, Time sent_at = 0) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.payload = net::DataPayload{probe, 0, sent_at, false};
  return p;
}

TEST(DataProbeTest, CountsOnlyMatchingDataTransmissions) {
  DataProbe probe{1};
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(1, 2), data_packet(1), 1);
  probe.on_transmit(edge(1, 2), data_packet(2), 1);  // other probe
  net::Packet join;
  join.type = net::PacketType::kJoin;
  join.payload = net::JoinPayload{};
  probe.on_transmit(edge(0, 1), join, 2);  // control traffic
  EXPECT_EQ(probe.link_copies(), 2u);
}

TEST(DataProbeTest, PerLinkCopyCounts) {
  DataProbe probe{1};
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(1, 0), data_packet(1), 0);  // reverse direction
  EXPECT_EQ(probe.max_copies_on_a_link(), 2u);
  EXPECT_EQ(probe.per_link().size(), 2u);  // directions are distinct links
}

TEST(DataProbeTest, DelayRecordingPerHost) {
  DataProbe probe{1};
  net::Packet p = data_packet(1, /*sent_at=*/5.0);
  probe.on_data(NodeId{7}, p, 12.0);
  probe.on_data(NodeId{8}, p, 9.0);
  const auto& d = probe.deliveries();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.at(NodeId{7})[0], 7.0);
  EXPECT_DOUBLE_EQ(d.at(NodeId{8})[0], 4.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{7}, NodeId{8}}), 5.5);
}

TEST(DataProbeTest, MeanDelaySkipsMissingReceivers) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(1, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{1}, NodeId{2}}), 10.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{2}}), 0.0);
}

TEST(DataProbeTest, MissingAndDuplicatedAudit) {
  DataProbe probe{1};
  const net::Packet p = data_packet(1);
  probe.on_data(NodeId{1}, p, 1.0);
  probe.on_data(NodeId{2}, p, 1.0);
  probe.on_data(NodeId{2}, p, 2.0);  // duplicate
  const std::vector<NodeId> expected{NodeId{1}, NodeId{2}, NodeId{3}};
  EXPECT_EQ(probe.missing(expected), (std::vector<NodeId>{NodeId{3}}));
  EXPECT_EQ(probe.duplicated(), (std::vector<NodeId>{NodeId{2}}));
  EXPECT_FALSE(probe.exactly_once(expected));
}

TEST(DataProbeTest, ExactlyOnceHappyPath) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(1), 1.0);
  probe.on_data(NodeId{2}, data_packet(1), 1.0);
  EXPECT_TRUE(probe.exactly_once({NodeId{1}, NodeId{2}}));
}

TEST(DataProbeTest, IgnoresDeliveriesOfOtherProbes) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(99), 1.0);
  EXPECT_TRUE(probe.deliveries().empty());
}

TEST(DataProbeTest, DropCounting) {
  DataProbe probe{1};
  probe.on_drop(NodeId{0}, data_packet(1), "ttl-expired", 0);
  probe.on_drop(NodeId{0}, data_packet(2), "ttl-expired", 0);
  EXPECT_EQ(probe.drops(), 1u);
}

}  // namespace
}  // namespace hbh::metrics
