// Wire codec tests: exact round-trips for every packet type, size
// accounting, and rejection of malformed inputs (the property any
// production parser must satisfy: decode(encode(p)) == p, and decode
// never crashes or misparses corrupted buffers).
#include <gtest/gtest.h>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace hbh::net {
namespace {

Packet base(PacketType type) {
  Packet p;
  p.type = type;
  p.src = Ipv4Addr{10, 0, 1, 1};
  p.dst = Ipv4Addr{10, 0, 2, 1};
  p.channel = Channel{Ipv4Addr{10, 0, 9, 1}, GroupAddr::ssm(3)};
  p.ttl = 17;
  return p;
}

void expect_header_roundtrip(const Packet& in, const Packet& out) {
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.src, in.src);
  EXPECT_EQ(out.dst, in.dst);
  EXPECT_EQ(out.channel, in.channel);
  EXPECT_EQ(out.ttl, in.ttl);
}

TEST(WireTest, JoinRoundTrip) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}, true, true};
  const auto bytes = encode(p);
  EXPECT_EQ(bytes.size(), encoded_size(p));
  const auto out = decode(bytes);
  ASSERT_TRUE(out.has_value());
  expect_header_roundtrip(p, *out);
  EXPECT_EQ(out->join().receiver, p.join().receiver);
  EXPECT_TRUE(out->join().first);
  EXPECT_TRUE(out->join().fresh);
}

TEST(WireTest, JoinFlagsIndependent) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}, false, true};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->join().first);
  EXPECT_TRUE(out->join().fresh);
}

TEST(WireTest, TreeRoundTrip) {
  Packet p = base(PacketType::kTree);
  p.payload = TreePayload{Ipv4Addr{10, 0, 5, 1}, true, Ipv4Addr{10, 0, 7, 1},
                          0xDEADBEEF};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  expect_header_roundtrip(p, *out);
  EXPECT_EQ(out->tree().target, p.tree().target);
  EXPECT_TRUE(out->tree().marked);
  EXPECT_EQ(out->tree().last_branch, p.tree().last_branch);
  EXPECT_EQ(out->tree().wave, 0xDEADBEEFu);
}

TEST(WireTest, FusionRoundTripWithReceiverList) {
  Packet p = base(PacketType::kFusion);
  p.payload = FusionPayload{
      {Ipv4Addr{10, 0, 5, 1}, Ipv4Addr{10, 0, 6, 1}, Ipv4Addr{10, 0, 7, 1}},
      Ipv4Addr{10, 0, 8, 1}};
  const auto bytes = encode(p);
  EXPECT_EQ(bytes.size(), 20u + 6u + 12u);
  const auto out = decode(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->fusion().origin, p.fusion().origin);
  EXPECT_EQ(out->fusion().receivers, p.fusion().receivers);
}

TEST(WireTest, FusionEmptyListRoundTrip) {
  Packet p = base(PacketType::kFusion);
  p.payload = FusionPayload{{}, Ipv4Addr{10, 0, 8, 1}};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->fusion().receivers.empty());
}

TEST(WireTest, PimJoinRoundTrip) {
  Packet p = base(PacketType::kPimJoin);
  p.payload = PimJoinPayload{Ipv4Addr{10, 0, 3, 1}, Ipv4Addr{10, 0, 4, 1}};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->pim_join().root, p.pim_join().root);
  EXPECT_EQ(out->pim_join().receiver, p.pim_join().receiver);
}

TEST(WireTest, PimPruneRoundTrip) {
  Packet p = base(PacketType::kPimPrune);
  p.payload = PimJoinPayload{Ipv4Addr{10, 0, 3, 1}, Ipv4Addr{10, 0, 4, 1}};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, PacketType::kPimPrune);
  EXPECT_EQ(out->pim_join().root, p.pim_join().root);
  EXPECT_EQ(out->pim_join().receiver, p.pim_join().receiver);
}

TEST(WireTest, DataRoundTripIncludingTimestamp) {
  Packet p = base(PacketType::kData);
  p.payload = DataPayload{0x1122334455667788ull, 42, 123.456, true};
  const auto out = decode(encode(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data().probe, p.data().probe);
  EXPECT_EQ(out->data().seq, 42u);
  EXPECT_DOUBLE_EQ(out->data().sent_at, 123.456);
  EXPECT_TRUE(out->data().encapsulated);
}

TEST(WireTest, TracedRoundTripCarriesContext) {
  Packet p = base(PacketType::kTree);
  p.payload = TreePayload{Ipv4Addr{10, 0, 5, 1}, false, {}, 1};
  const TraceContext trace{0xAABBCCDD11223344ull, 0x55667788ull};
  const auto bytes = encode(p, trace);
  // The traced flag costs exactly the 16-byte extension, which the
  // modelled wire size leaves out.
  EXPECT_EQ(bytes.size(), encoded_size(p) + 16);
  EXPECT_EQ(encode(p).size(), encoded_size(p));
  TraceContext decoded;
  const auto out = decode(bytes, &decoded);
  ASSERT_TRUE(out.has_value());
  expect_header_roundtrip(p, *out);
  EXPECT_EQ(decoded, trace);
  EXPECT_TRUE(decoded.active());
}

TEST(WireTest, UntracedPacketDecodesInactiveContext) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  TraceContext decoded{1, 2};
  const auto out = decode(encode(p), &decoded);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(decoded.active());
}

TEST(WireTest, RejectsTracedFlagWithZeroTraceId) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  auto bytes = encode(p, TraceContext{7, 9});
  // Zero out the trace_id field (bytes 20..27, right after the fixed
  // header): the traced flag now promises a context that is not there.
  for (std::size_t i = 20; i < 28; ++i) bytes[i] = 0;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, RejectsShortBuffer) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  auto bytes = encode(p);
  for (std::size_t cut = 1; cut <= bytes.size(); ++cut) {
    const std::span<const std::uint8_t> truncated{bytes.data(),
                                                  bytes.size() - cut};
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(WireTest, RejectsTrailingGarbage) {
  Packet p = base(PacketType::kData);
  p.payload = DataPayload{};
  auto bytes = encode(p);
  bytes.push_back(0);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, RejectsWrongVersion) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  auto bytes = encode(p);
  bytes[0] = static_cast<std::uint8_t>((2 << 4) | (bytes[0] & 0x0F));
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, RejectsUnknownType) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  auto bytes = encode(p);
  bytes[0] = static_cast<std::uint8_t>((1 << 4) | 0x0F);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, RejectsNonZeroReserved) {
  Packet p = base(PacketType::kJoin);
  p.payload = JoinPayload{Ipv4Addr{10, 0, 5, 1}};
  auto bytes = encode(p);
  bytes[3] = 1;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, RejectsFusionCountMismatch) {
  Packet p = base(PacketType::kFusion);
  p.payload = FusionPayload{{Ipv4Addr{10, 0, 5, 1}}, Ipv4Addr{10, 0, 8, 1}};
  auto bytes = encode(p);
  bytes[24 + 1] = 2;  // count field says 2, list holds 1
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(WireTest, FuzzDecodeNeverCrashes) {
  // Random buffers must never crash the parser; most should be rejected.
  Rng rng{0xF422};
  std::size_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> noise(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (decode(noise).has_value()) ++accepted;
  }
  // Version nibble alone rejects ~15/16 of random inputs.
  EXPECT_LT(accepted, 100u);
}

TEST(WireTest, FuzzMutatedPacketsNeverCrash) {
  Rng rng{0xF423};
  Packet p = base(PacketType::kFusion);
  p.payload = FusionPayload{{Ipv4Addr{10, 0, 5, 1}, Ipv4Addr{10, 0, 6, 1}},
                            Ipv4Addr{10, 0, 8, 1}};
  const auto original = encode(p);
  for (int i = 0; i < 5000; ++i) {
    auto mutated = original;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[idx] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)decode(mutated);  // must not crash; result validity irrelevant
  }
  SUCCEED();
}

TEST(WireTest, EncodedSizeMatchesForAllTypes) {
  Packet join = base(PacketType::kJoin);
  join.payload = JoinPayload{Ipv4Addr{1, 2, 3, 4}};
  Packet tree = base(PacketType::kTree);
  tree.payload = TreePayload{};
  Packet data = base(PacketType::kData);
  data.payload = DataPayload{};
  Packet pim = base(PacketType::kPimJoin);
  pim.payload = PimJoinPayload{};
  for (const Packet* p : {&join, &tree, &data, &pim}) {
    EXPECT_EQ(encode(*p).size(), encoded_size(*p));
  }
}

}  // namespace
}  // namespace hbh::net
