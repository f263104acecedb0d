// Cross-check suite for the message plane: the traffic charge of every wire
// message (wire_bytes(), what sim::Fabric bills) is pinned against the
// byte-level encoding and against a closed form written here — 16 + 4k for
// masked models, 16 + 8·nnz for sparse deltas, 5 + bits·n/8 for QSGD
// gradients — across dimensions, the control messages at their 24- and
// 12-byte sizes, plus truncated-input decode tests for every message type.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/quantize.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace saps::net {
namespace {

constexpr std::size_t kDims[] = {0, 1, 3, 17, 256, 4096};

TEST(ChargeCrossCheck, NotifyMatchesControlPlaneConstant) {
  const NotifyMsg msg{.round = 7, .mask_seed = 0xFEEDULL, .peer = 3};
  EXPECT_EQ(msg.encode().size(), 24u);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 24.0);
}

TEST(ChargeCrossCheck, RoundEndMatchesControlPlaneConstant) {
  const RoundEndMsg msg{.round = 7, .rank = 3};
  EXPECT_EQ(msg.encode().size(), 12u);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 12.0);
}

TEST(ChargeCrossCheck, MaskedModelMatchesMaskedWireBytesAcrossDims) {
  Rng rng(5);
  for (const auto k : kDims) {
    MaskedModelMsg msg;
    msg.mask_seed = 99;
    msg.round = 2;
    msg.values.resize(k);
    for (auto& v : msg.values) v = rng.next_float();
    const auto bytes = msg.encode();
    EXPECT_EQ(bytes.size(), 16 + 4 * k) << "k=" << k;
    EXPECT_DOUBLE_EQ(msg.wire_bytes(), static_cast<double>(bytes.size()));
  }
}

TEST(ChargeCrossCheck, SparseDeltaMatchesSparseVectorWireBytesAcrossDims) {
  Rng rng(6);
  for (const auto nnz : kDims) {
    SparseDeltaMsg msg;
    msg.round = 1;
    msg.origin = 4;
    for (std::size_t i = 0; i < nnz; ++i) {
      msg.indices.push_back(static_cast<std::uint32_t>(3 * i));
      msg.values.push_back(rng.next_float());
    }
    const auto bytes = msg.encode();
    EXPECT_EQ(bytes.size(), 16 + 8 * nnz) << "nnz=" << nnz;
    EXPECT_DOUBLE_EQ(msg.wire_bytes(), static_cast<double>(bytes.size()));
  }
}

TEST(ChargeCrossCheck, FullModelChargesPaperPayloadPlusPinnedFrame) {
  // FullModelMsg is one of the two deliberate charge/encoding deltas: the
  // paper's Table I counts model parameters moved, so the charge is payload
  // floats only; the physical frame is exactly kFrameBytes on top.
  for (const auto n : kDims) {
    FullModelMsg msg;
    msg.rank = 1;
    msg.params.assign(n, 0.5f);
    EXPECT_DOUBLE_EQ(msg.wire_bytes(), 4.0 * static_cast<double>(n));
    EXPECT_EQ(msg.encode().size(),
              static_cast<std::size_t>(msg.wire_bytes()) +
                  FullModelMsg::kFrameBytes)
        << "n=" << n;
  }
}

TEST(ChargeCrossCheck, QuantGradMatchesQsgdEncodedWireBytes) {
  // The other deliberate delta: the charge is the information-theoretic
  // QSGD size (sub-byte bits per coordinate); the physical encoding
  // byte-aligns the packed bits and adds the frame.
  Rng rng(7);
  for (const std::uint8_t levels : {1, 2, 4, 15, 127}) {
    for (const auto n : kDims) {
      if (n == 0) continue;  // qsgd_encode rejects empty input
      std::vector<float> x(n);
      for (auto& v : x) v = rng.next_float() - 0.5f;
      Rng enc_rng(11);
      const auto enc = compress::qsgd_encode(x, levels, enc_rng);
      QuantGradMsg msg;
      msg.round = 3;
      msg.origin = 2;
      msg.norm = enc.norm;
      msg.levels = enc.levels;
      msg.quantized = enc.quantized;
      // 2s+1 signed levels at ceil(log2(2s+1)) bits each.
      const auto bits = static_cast<std::size_t>(
          std::ceil(std::log2(2.0 * static_cast<double>(levels) + 1.0)));
      EXPECT_DOUBLE_EQ(msg.wire_bytes(),
                       5.0 + static_cast<double>(bits * n) / 8.0)
          << "levels=" << int(levels) << " n=" << n;
      const std::size_t packed = (bits * n + 7) / 8;  // byte-aligned stream
      EXPECT_EQ(msg.encode().size(), QuantGradMsg::kFrameBytes + packed);
    }
  }
}

TEST(QuantGrad, RoundTripsAcrossLevelCounts) {
  Rng rng(8);
  for (const std::uint8_t levels : {1, 3, 4, 127}) {
    std::vector<float> x(257);
    for (auto& v : x) v = rng.next_float() - 0.5f;
    Rng enc_rng(12);
    const auto enc = compress::qsgd_encode(x, levels, enc_rng);
    QuantGradMsg msg;
    msg.round = 9;
    msg.origin = 5;
    msg.norm = enc.norm;
    msg.levels = enc.levels;
    msg.quantized = enc.quantized;
    const auto bytes = msg.encode();
    EXPECT_EQ(peek_type(bytes), MsgType::kQuantGrad);
    const auto back = QuantGradMsg::decode(bytes);
    EXPECT_EQ(back.round, 9u);
    EXPECT_EQ(back.origin, 5u);
    EXPECT_EQ(back.norm, enc.norm);
    EXPECT_EQ(back.levels, levels);
    EXPECT_EQ(back.quantized, enc.quantized);
  }
}

TEST(FullModel, PeekRankMatchesDecodeWithoutPayload) {
  FullModelMsg msg;
  msg.rank = 29;
  msg.params.assign(64, 1.25f);
  const auto bytes = msg.encode();
  EXPECT_EQ(FullModelMsg::peek_rank(bytes), 29u);
  EXPECT_EQ(FullModelMsg::decode(bytes).rank, FullModelMsg::peek_rank(bytes));
  const auto round_end = RoundEndMsg{.round = 1, .rank = 2}.encode();
  EXPECT_THROW((void)FullModelMsg::peek_rank(round_end),
               std::invalid_argument);
  EXPECT_THROW((void)FullModelMsg::peek_rank({}), std::out_of_range);
}

TEST(SparseDelta, PeekOriginMatchesDecodeWithoutPayload) {
  SparseDeltaMsg msg;
  msg.round = 4;
  msg.origin = 17;
  msg.indices = {2, 5, 11};
  msg.values = {0.5f, -0.25f, 1.0f};
  const auto bytes = msg.encode();
  EXPECT_EQ(SparseDeltaMsg::peek_origin(bytes), 17u);
  EXPECT_EQ(SparseDeltaMsg::decode(bytes).origin,
            SparseDeltaMsg::peek_origin(bytes));
  EXPECT_THROW((void)SparseDeltaMsg::peek_origin(
                   RoundEndMsg{.round = 1, .rank = 2}.encode()),
               std::invalid_argument);
  EXPECT_THROW((void)SparseDeltaMsg::peek_origin({}), std::out_of_range);
}

TEST(QuantGrad, PeekOriginMatchesDecodeWithoutUnpacking) {
  QuantGradMsg msg;
  msg.round = 6;
  msg.origin = 23;
  msg.norm = 2.0f;
  msg.levels = 4;
  msg.quantized = {-4, 0, 3, 1};
  const auto bytes = msg.encode();
  EXPECT_EQ(QuantGradMsg::peek_origin(bytes), 23u);
  EXPECT_EQ(QuantGradMsg::decode(bytes).origin,
            QuantGradMsg::peek_origin(bytes));
  EXPECT_THROW((void)QuantGradMsg::peek_origin(
                   RoundEndMsg{.round = 1, .rank = 2}.encode()),
               std::invalid_argument);
  EXPECT_THROW((void)QuantGradMsg::peek_origin({}), std::out_of_range);
}

TEST(QuantGrad, RejectsZeroLevels) {
  QuantGradMsg msg;
  msg.levels = 0;
  msg.quantized.resize(4, 0);
  EXPECT_THROW(msg.encode(), std::invalid_argument);
}

// --- truncated-input decode tests for every message type --------------------

template <typename Msg>
void expect_truncation_rejected(const std::vector<std::uint8_t>& bytes) {
  // Every strict prefix must be rejected: either the reader runs out of
  // bytes (out_of_range) or a length invariant breaks (invalid_argument).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_ANY_THROW((void)Msg::decode(prefix))
        << "cut=" << cut << "/" << bytes.size();
  }
}

TEST(TruncatedDecode, Notify) {
  expect_truncation_rejected<NotifyMsg>(
      NotifyMsg{.round = 1, .mask_seed = 2, .peer = 3}.encode());
}

TEST(TruncatedDecode, RoundEnd) {
  expect_truncation_rejected<RoundEndMsg>(
      RoundEndMsg{.round = 1, .rank = 2}.encode());
}

TEST(TruncatedDecode, MaskedModel) {
  MaskedModelMsg msg;
  msg.mask_seed = 3;
  msg.round = 1;
  msg.values = {1.0f, 2.0f};  // 24-byte message
  const auto bytes = msg.encode();
  // Payload length is implied, so only prefixes that break 4-byte alignment
  // or cut the header are detectably truncated.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    if (cut >= 16 && (cut - 16) % 4 == 0) {
      // Aligned payload truncation is indistinguishable from a shorter
      // masked message by design (count is length-implied).
      const auto back = MaskedModelMsg::decode(prefix);
      EXPECT_EQ(back.values.size(), (cut - 16) / 4);
    } else {
      EXPECT_ANY_THROW((void)MaskedModelMsg::decode(prefix)) << "cut=" << cut;
    }
  }
}

TEST(TruncatedDecode, SparseDelta) {
  SparseDeltaMsg msg;
  msg.round = 1;
  msg.origin = 2;
  msg.indices = {1, 4, 9};
  msg.values = {0.1f, 0.2f, 0.3f};
  expect_truncation_rejected<SparseDeltaMsg>(msg.encode());
}

TEST(TruncatedDecode, FullModel) {
  FullModelMsg msg;
  msg.rank = 1;
  msg.params = {1.0f, 2.0f, 3.0f};
  expect_truncation_rejected<FullModelMsg>(msg.encode());
}

TEST(TruncatedDecode, QuantGrad) {
  QuantGradMsg msg;
  msg.round = 1;
  msg.origin = 2;
  msg.norm = 1.5f;
  msg.levels = 4;
  msg.quantized = {-4, -1, 0, 1, 2, 3, 4, -2, 2};
  expect_truncation_rejected<QuantGradMsg>(msg.encode());
}

TEST(TruncatedDecode, WrongTypeRejectedEvenWhenComplete) {
  const auto notify = NotifyMsg{.round = 1, .mask_seed = 2, .peer = 3}.encode();
  EXPECT_THROW((void)MaskedModelMsg::decode(notify), std::invalid_argument);
  EXPECT_THROW((void)QuantGradMsg::decode(notify), std::invalid_argument);
}

}  // namespace
}  // namespace saps::net
