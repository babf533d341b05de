// IP-Multicast clouds as HBH tree leaves (paper §3 / §5 future work).
//
// A campus network with classic IP Multicast hangs off one border router.
// Its hosts signal membership with IGMP-style reports; the border router
// (IgmpLeafRouter) joins the HBH channel once on their behalf. However
// many local members come and go, the wide-area HBH tree sees exactly one
// leaf — the paper's incremental-deployment story at the receiving edge.
#include <cstdio>

#include "mcast/common/membership.hpp"
#include "mcast/hbh/igmp_leaf.hpp"
#include "mcast/hbh/router.hpp"
#include "mcast/hbh/source.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

using namespace hbh;
using namespace hbh::mcast;
namespace hbhp = ::hbh::mcast::hbh;  // 'hbh' alone is ambiguous under the usings

int main() {
  // Backbone: sh - n0 - n1 - n2(border); campus hosts c1..c4 on n2.
  net::Topology topo = topo::make_line(3);
  const NodeId sh = topo.add_node(net::NodeKind::kHost);
  topo.add_duplex(NodeId{0}, sh, net::LinkSpec{});
  std::vector<NodeId> campus;
  for (int i = 0; i < 4; ++i) {
    const NodeId h = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{2}, h, net::LinkSpec{});
    campus.push_back(h);
  }

  sim::Simulator sim;
  routing::UnicastRouting routes{topo};
  net::Network net{sim, topo, routes};
  const mcast::McastConfig cfg{};
  const net::Channel ch{net.address_of(sh), GroupAddr::ssm(1)};

  auto* source = static_cast<hbhp::HbhSource*>(
      &net.attach(sh, std::make_unique<hbhp::HbhSource>(ch, cfg)));
  net.attach(NodeId{0}, std::make_unique<hbhp::HbhRouter>(cfg));
  net.attach(NodeId{1}, std::make_unique<hbhp::HbhRouter>(cfg));
  auto* border = static_cast<hbhp::IgmpLeafRouter*>(
      &net.attach(NodeId{2}, std::make_unique<hbhp::IgmpLeafRouter>(cfg)));
  std::vector<ReceiverHost*> hosts;
  for (const NodeId h : campus) {
    hosts.push_back(static_cast<ReceiverHost*>(&net.attach(
        h, std::make_unique<ReceiverHost>(JoinStyle::kPimJoin, cfg))));
  }
  net.start();

  std::printf("IP-Multicast campus behind border router n2 (HBH upstream)\n\n");

  // Members trickle in via IGMP; the border joins upstream exactly once.
  const Ipv4Addr border_addr = net.address_of(NodeId{2});
  hosts[0]->subscribe(ch, border_addr);
  sim.run_for(25);
  hosts[1]->subscribe(ch, border_addr);
  hosts[2]->subscribe(ch, border_addr);
  sim.run_for(25);

  std::size_t receivers = 0;
  source->mft().for_each_data_target(sim.now(), [&](Ipv4Addr) { ++receivers; });
  std::printf("after 3 IGMP reports: border has %zu local members, "
              "source sees %zu receiver(s)\n",
              border->local_members(ch).size(), receivers);

  source->send_data(1, 0);
  sim.run_for(20);
  std::size_t delivered = 0;
  for (const auto* h : hosts) delivered += h->deliveries().size();
  std::printf("one data packet -> %zu campus deliveries (1 backbone copy)\n",
              delivered);

  // The last member leaving tears the leaf down; upstream state ages out.
  hosts[0]->unsubscribe(ch);
  hosts[1]->unsubscribe(ch);
  hosts[2]->unsubscribe(ch);
  sim.run_for(150);
  std::printf("after all IGMP leaves: border upstream member: %s, "
              "source members: %s\n",
              border->upstream_member(ch) ? "yes" : "no",
              source->has_members() ? "yes" : "no");
  return delivered == 3 ? 0 : 1;
}
