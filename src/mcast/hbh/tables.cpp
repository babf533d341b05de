#include "mcast/hbh/tables.hpp"

#include <algorithm>

namespace hbh::mcast::hbh {

namespace {

/// First entry whose target is not below `target` (the sorted position).
template <typename Entries>
auto position(Entries& entries, Ipv4Addr target) {
  return std::lower_bound(
      entries.begin(), entries.end(), target,
      [](const Mft::Entry& e, Ipv4Addr t) { return e.first < t; });
}

}  // namespace

SoftEntry* Mft::find(Ipv4Addr target) {
  return const_cast<SoftEntry*>(std::as_const(*this).find(target));
}

const SoftEntry* Mft::find(Ipv4Addr target) const {
  const auto it = position(entries_, target);
  return it == entries_.end() || it->first != target ? nullptr : &it->second;
}

SoftEntry& Mft::upsert(Ipv4Addr target, const McastConfig& cfg, Time now) {
  auto it = position(entries_, target);
  if (it == entries_.end() || it->first != target) {
    it = entries_.emplace(it, target, SoftEntry{cfg, now});
  } else {
    it->second.refresh(cfg, now);
  }
  min_t2_ = std::min(min_t2_, it->second.t2_expiry());
  return it->second;
}

std::size_t Mft::purge(Time now, std::vector<Ipv4Addr>* evicted) {
  if (now < min_t2_) return 0;  // no entry can have died yet
  min_t2_ = kNoExpiry;
  auto kept = entries_.begin();
  for (const Entry& e : entries_) {  // ascending, so evicted is too
    if (e.second.dead(now)) {
      if (evicted != nullptr) evicted->push_back(e.first);
    } else {
      min_t2_ = std::min(min_t2_, e.second.t2_expiry());
      *kept++ = e;
    }
  }
  const auto removed = static_cast<std::size_t>(entries_.end() - kept);
  entries_.erase(kept, entries_.end());
  return removed;
}

void Mft::erase(Ipv4Addr target) {
  const auto it = position(entries_, target);
  if (it != entries_.end() && it->first == target) entries_.erase(it);
}

std::size_t Mft::live_count(Time now) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [now](const Entry& e) { return !e.second.dead(now); }));
}

std::vector<Ipv4Addr> Mft::live_targets(Time now) const {
  std::vector<Ipv4Addr> out;
  out.reserve(live_count(now));
  for (const auto& [target, entry] : entries_) {
    if (!entry.dead(now)) out.push_back(target);
  }
  return out;
}

std::string Mft::to_string(Time now) const {
  std::string out = "{";
  bool comma = false;
  for (const auto& [target, entry] : entries_) {
    if (comma) out += ", ";
    out += target.to_string() + ":" + entry.state_string(now);
    comma = true;
  }
  return out + "}";
}

}  // namespace hbh::mcast::hbh
