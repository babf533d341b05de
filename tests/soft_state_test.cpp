// Unit tests for the soft-state machinery and the protocol tables built
// on it (HBH's MCT/MFT, REUNITE's dst-bearing MFT).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "mcast/common/soft_state.hpp"
#include "mcast/hbh/tables.hpp"
#include "mcast/reunite/tables.hpp"

namespace hbh::mcast {
namespace {

const McastConfig kCfg{};  // T=10, t1=35, t2=70

/// The MFT's data and tree selections, collected in walk order.
std::vector<Ipv4Addr> data_targets(const hbh::Mft& mft, Time now) {
  std::vector<Ipv4Addr> out;
  mft.for_each_data_target(now, [&](Ipv4Addr t) { out.push_back(t); });
  return out;
}

std::vector<Ipv4Addr> tree_targets(const hbh::Mft& mft, Time now) {
  std::vector<Ipv4Addr> out;
  mft.for_each_tree_target(now, [&](Ipv4Addr t) { out.push_back(t); });
  return out;
}

TEST(SoftEntryTest, FreshEntryLifecycle) {
  SoftEntry e{kCfg, 0.0};
  EXPECT_FALSE(e.stale(0.0));
  EXPECT_FALSE(e.stale(34.9));
  EXPECT_TRUE(e.stale(35.0));
  EXPECT_FALSE(e.dead(69.9));
  EXPECT_TRUE(e.dead(70.0));
}

TEST(SoftEntryTest, RefreshRestartsBothTimers) {
  SoftEntry e{kCfg, 0.0};
  e.refresh(kCfg, 30.0);
  EXPECT_FALSE(e.stale(64.9));
  EXPECT_TRUE(e.stale(65.0));
  EXPECT_TRUE(e.dead(100.0));
}

TEST(SoftEntryTest, KeepaliveRefreshesT2Only) {
  SoftEntry e{kCfg, 0.0};
  e.expire_t1(0.0);
  EXPECT_TRUE(e.stale(0.0));
  e.refresh_keepalive(kCfg, 40.0);
  EXPECT_TRUE(e.stale(40.0));     // still stale
  EXPECT_FALSE(e.dead(100.0));    // but alive until 40 + t2
  EXPECT_TRUE(e.dead(110.0));
}

TEST(SoftEntryTest, KeepaliveDoesNotReExpireFreshEntry) {
  // Appendix A rule F4 keeps t1 expired if it was expired; a join-freshened
  // entry must stay fresh through later fusions.
  SoftEntry e{kCfg, 0.0};
  e.refresh_keepalive(kCfg, 5.0);
  EXPECT_FALSE(e.stale(10.0));  // t1 untouched, still fresh until 35
}

TEST(SoftEntryTest, MarkedFlagIndependentOfTimers) {
  SoftEntry e{kCfg, 0.0};
  e.set_marked(true);
  EXPECT_TRUE(e.marked());
  e.refresh(kCfg, 10.0);
  EXPECT_TRUE(e.marked());  // refresh never clears marking
  e.set_marked(false);
  EXPECT_FALSE(e.marked());
}

TEST(SoftEntryTest, StateStringReflectsLifecycle) {
  SoftEntry e{kCfg, 0.0};
  EXPECT_EQ(e.state_string(0.0), "fresh");
  EXPECT_EQ(e.state_string(40.0), "stale");
  EXPECT_EQ(e.state_string(80.0), "dead");
  e.set_marked(true);
  EXPECT_EQ(e.state_string(0.0), "fresh+marked");
}

TEST(HbhMftTest, UpsertAndFind) {
  hbh::Mft mft;
  const Ipv4Addr a{10, 0, 0, 1};
  EXPECT_TRUE(mft.empty());
  mft.upsert(a, kCfg, 0.0);
  EXPECT_EQ(mft.size(), 1u);
  EXPECT_TRUE(mft.contains(a));
  ASSERT_NE(mft.find(a), nullptr);
  EXPECT_EQ(mft.find(Ipv4Addr{9, 9, 9, 9}), nullptr);
}

TEST(HbhMftTest, TargetSelectionBySoftState) {
  hbh::Mft mft;
  const Ipv4Addr fresh{10, 0, 0, 1};
  const Ipv4Addr stale{10, 0, 0, 2};
  const Ipv4Addr marked{10, 0, 0, 3};
  mft.upsert(fresh, kCfg, 0.0);
  mft.upsert(stale, kCfg, 0.0).expire_t1(0.0);
  mft.upsert(marked, kCfg, 0.0).set_marked(true);

  // Data goes to non-marked entries (stale included).
  const auto data = data_targets(mft, 1.0);
  EXPECT_EQ(data, (std::vector<Ipv4Addr>{fresh, stale}));
  // Tree messages go to non-stale entries (marked included).
  const auto tree = tree_targets(mft, 1.0);
  EXPECT_EQ(tree, (std::vector<Ipv4Addr>{fresh, marked}));
  // Fusion payloads list every live entry.
  EXPECT_EQ(mft.live_targets(1.0).size(), 3u);
}

TEST(HbhMftTest, PurgeRemovesDeadOnly) {
  hbh::Mft mft;
  mft.upsert(Ipv4Addr{10, 0, 0, 1}, kCfg, 0.0);
  mft.upsert(Ipv4Addr{10, 0, 0, 2}, kCfg, 50.0);
  EXPECT_EQ(mft.purge(80.0), 1u);  // first died at 70
  EXPECT_EQ(mft.size(), 1u);
  EXPECT_TRUE(mft.contains(Ipv4Addr{10, 0, 0, 2}));
}

TEST(HbhMftTest, DeterministicIterationOrder) {
  hbh::Mft mft;
  mft.upsert(Ipv4Addr{10, 0, 0, 3}, kCfg, 0.0);
  mft.upsert(Ipv4Addr{10, 0, 0, 1}, kCfg, 0.0);
  mft.upsert(Ipv4Addr{10, 0, 0, 2}, kCfg, 0.0);
  const auto targets = data_targets(mft, 0.0);
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_LT(targets[0], targets[1]);
  EXPECT_LT(targets[1], targets[2]);
}

/// The flat MFT's reference model: an ordered map whose purge walks every
/// entry on every call (no expiry gate).
struct MapMft {
  std::map<Ipv4Addr, SoftEntry> entries;

  std::size_t purge(Time now, std::vector<Ipv4Addr>& evicted) {
    std::size_t removed = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.dead(now)) {
        evicted.push_back(it->first);
        it = entries.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  template <typename Pred>
  [[nodiscard]] std::vector<Ipv4Addr> select(Pred keep) const {
    std::vector<Ipv4Addr> out;
    for (const auto& [target, entry] : entries) {
      if (keep(entry)) out.push_back(target);
    }
    return out;
  }
};

TEST(HbhMftTest, MatchesMapReferenceUnderRandomOps) {
  // Random upsert / find / mark / keepalive / expire_t1 / erase / purge on
  // a dozen targets, the clock advancing by integer and quarter-unit
  // steps so that purges often land exactly on an entry's t2 expiry.
  std::vector<Ipv4Addr> pool;
  for (std::uint8_t i = 1; i <= 12; ++i) pool.push_back(Ipv4Addr{10, 0, i, 1});
  // The default timers, and short fractional ones under which entries
  // die within a few steps.
  const McastConfig short_cfg{10.0, 10.0, 3.5, 7.25};
  for (const std::uint32_t seed : {1u, 2u, 3u, 7u, 11u, 42u}) {
    const McastConfig& cfg = seed % 2 == 0 ? kCfg : short_cfg;
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng{seed};
    const auto pick = [&](std::uint32_t n) { return rng() % n; };
    hbh::Mft flat;
    MapMft ref;
    Time now = 0;
    for (int step = 0; step < 4000; ++step) {
      if (pick(3) == 0) {
        now += pick(4) == 0 ? static_cast<Time>(1 + pick(20))
                            : 0.25 * static_cast<Time>(pick(8));
      }
      const Ipv4Addr target = pool[pick(static_cast<std::uint32_t>(pool.size()))];
      SoftEntry* got = flat.find(target);
      const auto want = ref.entries.find(target);
      ASSERT_EQ(got != nullptr, want != ref.entries.end()) << "step " << step;
      switch (pick(7)) {
        case 0:
        case 1:
          flat.upsert(target, cfg, now);
          if (!ref.entries.try_emplace(target, cfg, now).second) {
            want->second.refresh(cfg, now);
          }
          break;
        case 2:
          if (got != nullptr) {
            got->mark(cfg, now);
            want->second.mark(cfg, now);
          }
          break;
        case 3:
          if (got != nullptr) {
            got->refresh_keepalive(cfg, now);
            want->second.refresh_keepalive(cfg, now);
          }
          break;
        case 4:
          if (got != nullptr) {
            got->expire_t1(now);
            want->second.expire_t1(now);
          }
          break;
        case 5:
          if (pick(4) == 0) {
            flat.erase(target);
            ref.entries.erase(target);
          }
          break;
        default: {
          std::vector<Ipv4Addr> flat_evicted;
          std::vector<Ipv4Addr> ref_evicted;
          ASSERT_EQ(flat.purge(now, &flat_evicted),
                    ref.purge(now, ref_evicted))
              << "step " << step << " t=" << now;
          ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.entries.size()) << "step " << step;
      ASSERT_EQ(data_targets(flat, now), ref.select([&](const SoftEntry& e) {
        return !e.dead(now) && !e.marked(now);
      })) << "step " << step;
      ASSERT_EQ(tree_targets(flat, now), ref.select([&](const SoftEntry& e) {
        return !e.dead(now) && !e.stale(now);
      })) << "step " << step;
      const auto live =
          ref.select([&](const SoftEntry& e) { return !e.dead(now); });
      ASSERT_EQ(flat.live_targets(now), live) << "step " << step;
      ASSERT_EQ(flat.live_count(now), live.size()) << "step " << step;
    }
  }
}

TEST(ReuniteMftTest, PurgePromotesFirstLiveEntryToDst) {
  reunite::Mft mft;
  mft.dst = Ipv4Addr{10, 0, 0, 1};
  mft.dst_state = SoftEntry{kCfg, 0.0};
  mft.entries.emplace(Ipv4Addr{10, 0, 0, 2}, SoftEntry{kCfg, 60.0});
  EXPECT_FALSE(mft.purge(80.0));  // dst died; r2 promoted
  EXPECT_EQ(mft.dst, (Ipv4Addr{10, 0, 0, 2}));
  EXPECT_TRUE(mft.entries.empty());
}

TEST(ReuniteMftTest, PurgeDestroysWhenEverythingDead) {
  reunite::Mft mft;
  mft.dst = Ipv4Addr{10, 0, 0, 1};
  mft.dst_state = SoftEntry{kCfg, 0.0};
  mft.entries.emplace(Ipv4Addr{10, 0, 0, 2}, SoftEntry{kCfg, 0.0});
  EXPECT_TRUE(mft.purge(100.0));
}

TEST(ReuniteMftTest, DataCopyTargetsIncludeStaleEntries) {
  reunite::Mft mft;
  mft.dst = Ipv4Addr{10, 0, 0, 1};
  mft.dst_state = SoftEntry{kCfg, 0.0};
  SoftEntry stale{kCfg, 0.0};
  stale.expire_t1(0.0);
  mft.entries.emplace(Ipv4Addr{10, 0, 0, 2}, stale);
  EXPECT_EQ(mft.data_copy_targets(10.0).size(), 1u);  // stale still gets data
  EXPECT_EQ(mft.data_copy_targets(80.0).size(), 0u);  // dead does not
}

TEST(McastConfigTest, DefaultsFollowDesignDoc) {
  McastConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.join_period, 10.0);
  EXPECT_DOUBLE_EQ(cfg.tree_period, 10.0);
  EXPECT_DOUBLE_EQ(cfg.t1, 35.0);
  EXPECT_DOUBLE_EQ(cfg.t2, 70.0);
  EXPECT_GT(cfg.t1, cfg.join_period);  // several refresh chances before stale
  EXPECT_GT(cfg.t2, cfg.t1);
}

}  // namespace
}  // namespace hbh::mcast
