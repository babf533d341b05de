// Tests for the ASCII tree renderer.
#include <gtest/gtest.h>

#include "metrics/trace.hpp"

namespace hbh::metrics {
namespace {

TEST(RenderTreeTest, SimpleChain) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 1;
  links[{NodeId{1}, NodeId{2}}] = 1;
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("n0\n"), std::string::npos);
  EXPECT_NE(art.find("+- n1"), std::string::npos);
  EXPECT_NE(art.find("  +- n2"), std::string::npos);
  EXPECT_EQ(art.find("unrooted"), std::string::npos);
}

TEST(RenderTreeTest, FanOutAndCopyCounts) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 2;  // duplicated link
  links[{NodeId{0}, NodeId{2}}] = 1;
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("+- n1 (x2)"), std::string::npos);
  EXPECT_NE(art.find("+- n2"), std::string::npos);
}

TEST(RenderTreeTest, UnrootedLinksListed) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 1;
  links[{NodeId{7}, NodeId{8}}] = 1;  // disconnected from root 0
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("unrooted links:"), std::string::npos);
  EXPECT_NE(art.find("n7->n8"), std::string::npos);
}

TEST(RenderTreeTest, EmptyTreeIsJustTheRoot) {
  const std::string art = render_tree({}, NodeId{3});
  EXPECT_EQ(art, "n3\n");
}

}  // namespace
}  // namespace hbh::metrics
