// QoS-aware routing hook (the paper's §5 future work).
//
// HBH builds source-rooted shortest-path trees on top of whatever unicast
// routing provides. Our routing layer takes a pluggable metric, so
// delay-sensitive deployments can route (and therefore build HBH trees)
// by delay, hop count, or any custom edge weight. This example compares
// the receiver delay of HBH trees under three metrics on a topology where
// cost and delay disagree.
#include <cstdio>

#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

using namespace hbh;

int main() {
  // A 4x4 grid where administrative cost and propagation delay are drawn
  // independently: cost-based routes are NOT delay-optimal.
  net::Topology grid = topo::make_grid(4, 4);
  Rng rng{7};
  for (std::uint32_t i = 0; i < grid.link_count(); ++i) {
    grid.set_spec(
        LinkId{i},
        net::LinkSpec{.cost = static_cast<double>(rng.uniform_int(1, 10)),
                      .delay = static_cast<double>(rng.uniform_int(1, 10))});
  }

  struct NamedMetric {
    const char* name;
    routing::MetricFn fn;
  };
  const NamedMetric metrics[] = {
      {"administrative cost", routing::cost_metric()},
      {"propagation delay  ", routing::delay_metric()},
      {"hop count          ", [](const net::Topology::Edge&) { return 1.0; }},
  };

  const NodeId source{0};
  std::printf("Route quality from node 0 under different routing metrics\n");
  std::printf("(HBH trees inherit these paths, so this is the delay a\n");
  std::printf(" receiver at each node would see)\n\n");
  std::printf("%-22s %14s %14s\n", "metric", "avg delay", "worst delay");

  for (const auto& metric : metrics) {
    const routing::UnicastRouting routes{grid, metric.fn};
    double total = 0;
    double worst = 0;
    std::size_t n = 0;
    for (std::uint32_t v = 1; v < grid.node_count(); ++v) {
      const Time d = routes.path_delay(source, NodeId{v});
      total += d;
      worst = std::max(worst, d);
      ++n;
    }
    std::printf("%-22s %14.2f %14.2f\n", metric.name,
                total / static_cast<double>(n), worst);
  }

  std::printf(
      "\nRouting by delay gives the QoS-optimal HBH trees; the pluggable\n"
      "routing::MetricFn is the integration point the paper's future-work\n"
      "section calls for.\n");
  return 0;
}
