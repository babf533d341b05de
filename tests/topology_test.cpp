// Unit tests for the directed topology model.
#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace hbh::net {
namespace {

Topology triangle() {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  t.add_duplex(a, b, LinkAttrs{1, 1});
  t.add_duplex(b, c, LinkAttrs{2, 2});
  t.add_duplex(c, a, LinkAttrs{3, 3});
  return t;
}

TEST(TopologyTest, NodesGetDenseIds) {
  Topology t;
  EXPECT_EQ(t.add_node().index(), 0u);
  EXPECT_EQ(t.add_node(NodeKind::kHost).index(), 1u);
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.kind(NodeId{0}), NodeKind::kRouter);
  EXPECT_EQ(t.kind(NodeId{1}), NodeKind::kHost);
}

TEST(TopologyTest, DirectedLinkAttributesAreIndependent) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  t.add_duplex(a, b, LinkAttrs{3, 3}, LinkAttrs{7, 7});
  const auto ab = t.find_link(a, b);
  const auto ba = t.find_link(b, a);
  ASSERT_TRUE(ab && ba);
  EXPECT_DOUBLE_EQ(t.edge(*ab).attrs.cost, 3.0);
  EXPECT_DOUBLE_EQ(t.edge(*ba).attrs.cost, 7.0);
}

TEST(TopologyTest, FindLinkIsDirectional) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  t.add_link(a, b, LinkAttrs{1, 1});
  EXPECT_TRUE(t.find_link(a, b).has_value());
  EXPECT_FALSE(t.find_link(b, a).has_value());
}

TEST(TopologyTest, ReverseNamesTheOppositeDirection) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  t.add_duplex(a, b, LinkAttrs{1, 1});
  const LinkId ab = *t.find_link(a, b);
  const LinkId ba = *t.find_link(b, a);
  EXPECT_EQ(t.reverse(ab), ba);
  EXPECT_EQ(t.reverse(ba), ab);

  // A one-way edge has no reverse until its opposite is added.
  const LinkId bc = t.add_link(b, c, LinkAttrs{1, 1});
  EXPECT_EQ(t.reverse(bc), kNoLink);
  const LinkId cb = t.add_link(c, b, LinkAttrs{2, 2});
  EXPECT_EQ(t.reverse(bc), cb);
  EXPECT_EQ(t.reverse(cb), bc);
}

TEST(TopologyTest, OutLinksEnumeratesNeighbors) {
  const Topology t = triangle();
  EXPECT_EQ(t.out_links(NodeId{0}).size(), 2u);
  EXPECT_EQ(t.degree(NodeId{1}), 2u);
  EXPECT_EQ(t.link_count(), 6u);  // 3 duplex links = 6 directed edges
}

TEST(TopologyTest, SetAttrsReplaces) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const LinkId l = t.add_link(a, b, LinkAttrs{1, 1});
  t.set_attrs(l, LinkAttrs{9, 4});
  EXPECT_DOUBLE_EQ(t.edge(l).attrs.cost, 9.0);
  EXPECT_DOUBLE_EQ(t.edge(l).attrs.delay, 4.0);
}

TEST(TopologyTest, NodesOfKindFilters) {
  Topology t;
  t.add_node();
  t.add_node(NodeKind::kHost);
  t.add_node();
  const auto routers = t.nodes_of_kind(NodeKind::kRouter);
  const auto hosts = t.nodes_of_kind(NodeKind::kHost);
  EXPECT_EQ(routers.size(), 2u);
  EXPECT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0], NodeId{1});
}

TEST(TopologyTest, AverageRouterDegreeExcludesHostLinksByDefault) {
  Topology t;
  const NodeId r0 = t.add_node();
  const NodeId r1 = t.add_node();
  const NodeId h = t.add_node(NodeKind::kHost);
  t.add_duplex(r0, r1, LinkAttrs{1, 1});
  t.add_duplex(r0, h, LinkAttrs{1, 1});
  EXPECT_DOUBLE_EQ(t.average_router_degree(), 1.0);
  EXPECT_DOUBLE_EQ(t.average_router_degree(/*count_host_links=*/true), 1.5);
}

TEST(TopologyTest, StronglyConnectedDetection) {
  const Topology t = triangle();
  EXPECT_TRUE(t.strongly_connected());

  Topology oneway;
  const NodeId a = oneway.add_node();
  const NodeId b = oneway.add_node();
  oneway.add_link(a, b, LinkAttrs{1, 1});
  EXPECT_FALSE(oneway.strongly_connected());
}

TEST(TopologyTest, SingleNodeIsStronglyConnected) {
  Topology t;
  t.add_node();
  EXPECT_TRUE(t.strongly_connected());
}

TEST(TopologyTest, DisconnectedComponentsDetected) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  t.add_node();  // isolated
  t.add_duplex(a, b, LinkAttrs{1, 1});
  EXPECT_FALSE(t.strongly_connected());
}

TEST(TopologyTest, ContainsValidatesIds) {
  Topology t;
  t.add_node();
  EXPECT_TRUE(t.contains(NodeId{0}));
  EXPECT_FALSE(t.contains(NodeId{1}));
  EXPECT_FALSE(t.contains(kNoNode));
}

}  // namespace
}  // namespace hbh::net
