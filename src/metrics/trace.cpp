#include "metrics/trace.hpp"

#include <functional>
#include <set>
#include <sstream>
#include <vector>

namespace hbh::metrics {

std::string render_tree(
    const std::map<std::pair<NodeId, NodeId>, std::size_t>& per_link,
    NodeId root) {
  std::map<NodeId, std::vector<std::pair<NodeId, std::size_t>>> children;
  std::set<std::pair<std::uint32_t, std::uint32_t>> rendered;
  for (const auto& [link, copies] : per_link) {
    children[link.first].emplace_back(link.second, copies);
  }

  std::ostringstream out;
  // Depth-first from the root. A node may appear multiple times if
  // several copies traverse it — render each child edge once.
  const std::function<void(NodeId, int)> walk = [&](NodeId at, int depth) {
    const auto it = children.find(at);
    if (it == children.end()) return;
    for (const auto& [child, copies] : it->second) {
      if (!rendered.insert({at.index(), child.index()}).second) continue;
      for (int i = 0; i < depth; ++i) out << "  ";
      out << "+- " << hbh::to_string(child);
      if (copies > 1) out << " (x" << copies << ")";
      out << '\n';
      walk(child, depth + 1);
    }
  };
  out << hbh::to_string(root) << '\n';
  walk(root, 1);

  // Any unrendered links are disconnected from the root (diagnostic aid).
  bool header = false;
  for (const auto& [link, copies] : per_link) {
    if (rendered.contains({link.first.index(), link.second.index()})) continue;
    if (!header) {
      out << "unrooted links:\n";
      header = true;
    }
    out << "  " << hbh::to_string(link.first) << "->"
        << hbh::to_string(link.second) << " (x" << copies << ")\n";
  }
  return out.str();
}

}  // namespace hbh::metrics
