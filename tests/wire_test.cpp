#include <gtest/gtest.h>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace saps::net {
namespace {

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f32(-3.25f);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(r.f32(), -3.25f);
  EXPECT_TRUE(r.done());
}

TEST(ByteCodec, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(ByteCodec, TruncatedReadThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), std::out_of_range);
}

TEST(Wire, NotifyRoundTrip) {
  const NotifyMsg msg{.round = 42, .mask_seed = 0xFEEDFACE, .peer = 7};
  const auto bytes = msg.encode();
  EXPECT_EQ(peek_type(bytes), MsgType::kNotify);
  const auto back = NotifyMsg::decode(bytes);
  EXPECT_EQ(back.round, 42u);
  EXPECT_EQ(back.mask_seed, 0xFEEDFACEull);
  EXPECT_EQ(back.peer, 7u);
}

TEST(Wire, RoundEndRoundTrip) {
  const RoundEndMsg msg{.round = 9, .rank = 3};
  const auto back = RoundEndMsg::decode(msg.encode());
  EXPECT_EQ(back.round, 9u);
  EXPECT_EQ(back.rank, 3u);
}

TEST(Wire, MaskedModelRoundTripAndSizeContract) {
  MaskedModelMsg msg;
  msg.mask_seed = 123456789;
  msg.round = 17;
  msg.values = {1.5f, -2.25f, 0.0f, 9.75f};
  const auto bytes = msg.encode();
  // The encoded size must equal the charge: 16 + 4k for k values.
  EXPECT_EQ(bytes.size(), 16u + 4u * 4u);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), static_cast<double>(bytes.size()));
  const auto back = MaskedModelMsg::decode(bytes);
  EXPECT_EQ(back.mask_seed, msg.mask_seed);
  EXPECT_EQ(back.round, msg.round);
  EXPECT_EQ(back.values, msg.values);
}

TEST(Wire, MaskedModelEmptyPayload) {
  MaskedModelMsg msg;
  msg.mask_seed = 5;
  const auto back = MaskedModelMsg::decode(msg.encode());
  EXPECT_TRUE(back.values.empty());
}

TEST(Wire, SparseDeltaRoundTripAndSizeContract) {
  SparseDeltaMsg msg;
  msg.round = 3;
  msg.origin = 11;
  msg.indices = {1, 5, 1000};
  msg.values = {0.5f, -1.0f, 2.0f};
  const auto bytes = msg.encode();
  // The encoded size must equal the charge: 16 + 8·nnz for nnz entries.
  EXPECT_EQ(bytes.size(), 16u + 8u * 3u);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), static_cast<double>(bytes.size()));
  const auto back = SparseDeltaMsg::decode(bytes);
  EXPECT_EQ(back.indices, msg.indices);
  EXPECT_EQ(back.values, msg.values);
  EXPECT_EQ(back.origin, 11u);
}

TEST(Wire, SparseDeltaRejectsMismatchedArrays) {
  SparseDeltaMsg msg;
  msg.indices = {1, 2};
  msg.values = {1.0f};
  EXPECT_THROW(msg.encode(), std::invalid_argument);
}

TEST(Wire, FullModelRoundTrip) {
  FullModelMsg msg;
  msg.rank = 2;
  Rng rng(8);
  msg.params.resize(1000);
  for (auto& v : msg.params) v = rng.next_float();
  const auto back = FullModelMsg::decode(msg.encode());
  EXPECT_EQ(back.rank, 2u);
  EXPECT_EQ(back.params, msg.params);
}

TEST(Wire, DecodeRejectsWrongType) {
  const NotifyMsg msg{.round = 1, .mask_seed = 2, .peer = 3};
  EXPECT_THROW(RoundEndMsg::decode(msg.encode()), std::invalid_argument);
}

TEST(Wire, PeekTypeOnEmptyThrows) {
  EXPECT_THROW((void)peek_type({}), std::out_of_range);
}

}  // namespace
}  // namespace saps::net
