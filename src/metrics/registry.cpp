#include "metrics/registry.hpp"

namespace hbh::metrics {

namespace {

template <typename T, typename Make>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& map,
                  std::string_view name, Make make) {
  const auto it = map.find(std::string{name});
  if (it != map.end()) return *it->second;
  auto [inserted, ok] = map.emplace(std::string{name}, make());
  (void)ok;
  return *inserted->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(counters_, name,
                        [] { return std::unique_ptr<Counter>{new Counter}; });
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(gauges_, name,
                        [] { return std::unique_ptr<Gauge>{new Gauge}; });
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  return find_or_create(histograms_, name, [&bounds] {
    return std::unique_ptr<Histogram>{new Histogram{std::move(bounds)}};
  });
}

Gauge& Registry::bind_gauge(std::string_view name,
                            std::function<double()> provider) {
  Gauge& g = gauge(name);
  g.bind(std::move(provider));
  return g;
}

}  // namespace hbh::metrics
