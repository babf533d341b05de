// hbhsim — command-line driver for one-off simulations.
//
// A small CLI over the library so experiments don't require writing C++:
//
//   hbhsim [--topo isp|rand50|waxman] [--proto hbh|reunite|pimsm|pimss]
//          [--receivers N] [--seed S] [--symmetric] [--warmup T]
//          [--fail A B] [--census] [--csv]
//
// Runs one seeded trial, prints tree cost / delay / delivery audit, and
// optionally the per-link tree, a state census, or CSV for scripting.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "harness/session.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

namespace {

struct Options {
  std::string topo = "isp";
  std::string proto = "hbh";
  std::size_t receivers = 8;
  std::uint64_t seed = 1;
  bool symmetric = false;
  Time warmup = 600;
  std::optional<std::pair<std::uint32_t, std::uint32_t>> fail;
  bool census = false;
  bool csv = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--topo") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.topo = v;
    } else if (arg == "--proto") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.proto = v;
    } else if (arg == "--receivers") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.receivers = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--warmup") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.warmup = std::strtod(v, nullptr);
    } else if (arg == "--fail") {
      const char* a = next();
      const char* b = next();
      if (a == nullptr || b == nullptr) return std::nullopt;
      opt.fail = {static_cast<std::uint32_t>(std::strtoul(a, nullptr, 10)),
                  static_cast<std::uint32_t>(std::strtoul(b, nullptr, 10))};
    } else if (arg == "--symmetric") {
      opt.symmetric = true;
    } else if (arg == "--census") {
      opt.census = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opt;
}

std::optional<Protocol> proto_of(const std::string& name) {
  if (name == "hbh") return Protocol::kHbh;
  if (name == "reunite") return Protocol::kReunite;
  if (name == "pimsm") return Protocol::kPimSm;
  if (name == "pimss") return Protocol::kPimSs;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) {
    std::fprintf(
        stderr,
        "usage: hbhsim [--topo isp|rand50|waxman] "
        "[--proto hbh|reunite|pimsm|pimss] [--receivers N] [--seed S]\n"
        "              [--symmetric] [--warmup T] [--fail A B] [--census] "
        "[--csv]\n");
    return 2;
  }
  const auto proto = proto_of(opt->proto);
  if (!proto) {
    std::fprintf(stderr, "unknown protocol %s\n", opt->proto.c_str());
    return 2;
  }

  Rng rng{opt->seed};
  topo::Scenario scenario;
  if (opt->topo == "isp") {
    scenario = topo::make_isp();
  } else if (opt->topo == "rand50") {
    scenario = topo::make_random50(rng);
  } else if (opt->topo == "waxman") {
    scenario = topo::make_waxman(topo::WaxmanParams{}, rng);
  } else {
    std::fprintf(stderr, "unknown topology %s\n", opt->topo.c_str());
    return 2;
  }
  topo::randomize_costs(scenario.topo, rng);
  if (opt->symmetric) topo::symmetrize_costs(scenario.topo);

  auto candidates = scenario.candidate_receivers();
  const std::size_t k = std::min(opt->receivers, candidates.size());
  const auto receivers = rng.sample(candidates, k);

  Session session{std::move(scenario), *proto};
  Time delay = 0.1;
  for (const NodeId r : receivers) {
    session.subscribe(r, delay);
    delay += 1.0;
  }
  session.run_for(opt->warmup);
  if (opt->fail) {
    session.set_link_down(NodeId{opt->fail->first},
                          NodeId{opt->fail->second});
    session.run_for(opt->warmup / 2);
  }
  const harness::Measurement m = session.measure();

  if (opt->csv) {
    std::printf("topo,proto,receivers,seed,cost,mean_delay,delivered\n");
    std::printf("%s,%s,%zu,%llu,%zu,%.4f,%d\n", opt->topo.c_str(),
                opt->proto.c_str(), k,
                static_cast<unsigned long long>(opt->seed), m.tree_cost,
                m.mean_delay, m.delivered_exactly_once() ? 1 : 0);
    return m.delivered_exactly_once() ? 0 : 1;
  }

  std::printf("hbhsim: %s on %s, %zu receivers, seed %llu%s\n",
              opt->proto.c_str(), opt->topo.c_str(), k,
              static_cast<unsigned long long>(opt->seed),
              opt->symmetric ? " (symmetric costs)" : "");
  if (*proto == Protocol::kPimSm) {
    std::printf("RP: %s\n", to_string(session.rp()).c_str());
  }
  std::printf("tree cost   : %zu link copies\n", m.tree_cost);
  std::printf("mean delay  : %.2f time units\n", m.mean_delay);
  std::printf("max on link : %zu cop%s\n", m.max_link_copies,
              m.max_link_copies == 1 ? "y" : "ies");
  std::printf("delivery    : %s (%zu missing, %zu duplicated)\n",
              m.delivered_exactly_once() ? "exactly-once" : "IMPERFECT",
              m.missing.size(), m.duplicated.size());
  if (opt->census) {
    const auto census = session.state_census();
    std::printf("state census: %zu control entries, %zu forwarding entries, "
                "%zu stateful routers\n",
                census.control_entries, census.forwarding_entries,
                census.routers_with_state);
  }
  return m.delivered_exactly_once() ? 0 : 1;
}
