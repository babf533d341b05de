// Tree rendering: render_tree() turns a measured per-link copy map into
// the indented ASCII tree the examples print. Per-type message and byte
// counts live in the telemetry registry (metrics::NetworkStatsTap).
#pragma once

#include <map>
#include <string>
#include <utility>

#include "util/ids.hpp"

namespace hbh::metrics {

/// Renders a measured distribution tree (Measurement::per_link) as an
/// indented ASCII tree rooted at `root`. Links not reachable from the root
/// (shouldn't happen in a converged tree) are listed separately.
[[nodiscard]] std::string render_tree(
    const std::map<std::pair<NodeId, NodeId>, std::size_t>& per_link,
    NodeId root);

}  // namespace hbh::metrics
