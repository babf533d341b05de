#include "mcast/pim/source.hpp"

#include <cassert>

#include "util/profiler.hpp"

namespace hbh::mcast::pim {

using net::Packet;
using net::PacketType;

void PimSource::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  if (packet.dst == self_addr()) {
    // Periodic (S,G) joins terminate at the source host; the access router
    // already recorded its oif while forwarding them.
    return;
  }
  net::ProtocolAgent::handle(h, from);
}

std::size_t PimSource::send_data(std::uint64_t probe, std::uint32_t seq,
                                 std::uint32_t pad) {
  HBH_PHASE("data_fanout");
  Packet data;
  data.src = self_addr();
  data.channel = channel_;
  data.type = PacketType::kData;
  // One emission = one root span; RP decapsulation and oif replication
  // downstream inherit it via the packet context.
  const net::TraceContext ctx = trace_root("data", channel_, self_addr());

  if (mode_ == PimMode::kSharedTree) {
    assert(!rp_.unspecified());
    data.dst = rp_;
    data.payload = net::DataPayload{probe, seq, simulator().now(),
                                    /*encapsulated=*/true, pad};
    forward(std::move(data), ctx);
    return 1;
  }

  // PIM-SS: group-addressed over the access link; the first-hop router
  // replicates down the reverse SPT.
  data.dst = channel_.group.addr();
  data.payload = net::DataPayload{probe, seq, simulator().now(), false, pad};
  const auto links = net().topology().out_links(self());
  assert(!links.empty());  // hosts are degree-1 stubs
  const NodeId access_router = net().topology().edge(links[0]).to;
  net().send_direct(self(), access_router, std::move(data), ctx);
  return 1;
}

}  // namespace hbh::mcast::pim
