#include "net/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "compress/quantize.hpp"

namespace saps::net {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  u32(bits);
}

void ByteWriter::f32_span(std::span<const float> values) {
  buf_.reserve(buf_.size() + 4 * values.size());
  for (const float v : values) f32(v);
}

void ByteWriter::u32_span(std::span<const std::uint32_t> values) {
  buf_.reserve(buf_.size() + 4 * values.size());
  for (const auto v : values) u32(v);
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) throw std::out_of_range("ByteReader: truncated message");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

void ByteReader::f32_span(std::span<float> out) {
  for (auto& v : out) v = f32();
}

void ByteReader::u32_span(std::span<std::uint32_t> out) {
  for (auto& v : out) v = u32();
}

MsgType peek_type(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) throw std::out_of_range("peek_type: empty message");
  return static_cast<MsgType>(bytes[0]);
}

namespace {
void expect_type(ByteReader& r, MsgType want) {
  const auto got = static_cast<MsgType>(r.u8());
  if (got != want) throw std::invalid_argument("wire: unexpected message type");
}

void pad(ByteWriter& w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w.u8(0);
}

void skip(ByteReader& r, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) (void)r.u8();
}

// A corrupted count field must not drive a resize(): validate the declared
// element count against the bytes actually present BEFORE allocating, so a
// garbage frame throws instead of attempting a multi-gigabyte allocation.
void check_count(const ByteReader& r, std::size_t count,
                 std::size_t bytes_per_element, const char* what) {
  if (bytes_per_element > 0 &&
      count > r.remaining() / bytes_per_element) {
    throw std::out_of_range(std::string(what) +
                            ": declared count exceeds payload");
  }
}
}  // namespace

std::vector<std::uint8_t> NotifyMsg::encode() const {
  // type + 3 pad + round + seed + peer + 4 reserved = 24 bytes.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kNotify));
  pad(w, 3);
  w.u32(round);
  w.u64(mask_seed);
  w.u32(peer);
  pad(w, 4);  // reserved
  return w.take();
}

NotifyMsg NotifyMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kNotify);
  skip(r, 3);
  NotifyMsg m;
  m.round = r.u32();
  m.mask_seed = r.u64();
  m.peer = r.u32();
  skip(r, 4);
  return m;
}

std::vector<std::uint8_t> RoundEndMsg::encode() const {
  // type + 3 pad + round + rank = 12 bytes.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRoundEnd));
  pad(w, 3);
  w.u32(round);
  w.u32(rank);
  return w.take();
}

RoundEndMsg RoundEndMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kRoundEnd);
  skip(r, 3);
  RoundEndMsg m;
  m.round = r.u32();
  m.rank = r.u32();
  return m;
}

std::vector<std::uint8_t> MaskedModelMsg::encode() const {
  // Header is exactly 16 bytes (type+count packed with round/seed) so the
  // encoded size equals wire_bytes() = 16 + 4·|values|.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMaskedModel));
  pad(w, 3);
  w.u32(round);
  w.u64(mask_seed);
  // Count is implied by the remaining length (receiver knows 4-byte floats).
  w.f32_span(values);
  return w.take();
}

MaskedModelMsg MaskedModelMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kMaskedModel);
  skip(r, 3);
  MaskedModelMsg m;
  m.round = r.u32();
  m.mask_seed = r.u64();
  if (r.remaining() % 4 != 0) {
    throw std::invalid_argument("MaskedModelMsg: bad payload length");
  }
  m.values.resize(r.remaining() / 4);
  r.f32_span(m.values);
  return m;
}

std::vector<std::uint8_t> SparseDeltaMsg::encode() const {
  if (indices.size() != values.size()) {
    throw std::invalid_argument("SparseDeltaMsg: index/value size mismatch");
  }
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kSparseDelta));
  pad(w, 3);
  w.u32(round);
  w.u32(origin);
  w.u32(static_cast<std::uint32_t>(indices.size()));
  w.u32_span(indices);
  w.f32_span(values);
  return w.take();
}

SparseDeltaMsg SparseDeltaMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kSparseDelta);
  skip(r, 3);
  SparseDeltaMsg m;
  m.round = r.u32();
  m.origin = r.u32();
  const std::uint32_t nnz = r.u32();
  check_count(r, nnz, 8, "SparseDeltaMsg");  // 4-byte index + 4-byte value
  m.indices.resize(nnz);
  r.u32_span(m.indices);
  m.values.resize(nnz);
  r.f32_span(m.values);
  return m;
}

std::uint32_t SparseDeltaMsg::peek_origin(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kSparseDelta);
  skip(r, 3);
  (void)r.u32();  // round
  return r.u32();
}

std::vector<std::uint8_t> FullModelMsg::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kFullModel));
  pad(w, 3);
  w.u32(rank);
  w.u32(static_cast<std::uint32_t>(params.size()));
  w.f32_span(params);
  return w.take();
}

FullModelMsg FullModelMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kFullModel);
  skip(r, 3);
  FullModelMsg m;
  m.rank = r.u32();
  const std::uint32_t count = r.u32();
  check_count(r, count, 4, "FullModelMsg");
  m.params.resize(count);
  r.f32_span(m.params);
  return m;
}

std::uint32_t FullModelMsg::peek_rank(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kFullModel);
  skip(r, 3);
  return r.u32();
}

double QuantGradMsg::wire_bytes() const noexcept {
  // 4-byte norm + 1-byte levels + level_bits(s) bits per coordinate.
  const auto bits = static_cast<double>(compress::level_bits(levels));
  return 5.0 + bits * static_cast<double>(quantized.size()) / 8.0;
}

std::vector<std::uint8_t> QuantGradMsg::encode() const {
  if (levels == 0) throw std::invalid_argument("QuantGradMsg: levels == 0");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kQuantGrad));
  w.u8(levels);
  pad(w, 2);
  w.u32(round);
  w.u32(origin);
  w.f32(norm);
  w.u32(static_cast<std::uint32_t>(quantized.size()));
  // Bit-pack offset codes (level + s ∈ [0, 2s]), LSB-first within each byte;
  // compress::pack_levels owns the stream (SIMD fast path, byte-identical).
  compress::pack_levels(quantized, levels, w.raw());
  return w.take();
}

QuantGradMsg QuantGradMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kQuantGrad);
  QuantGradMsg m;
  m.levels = r.u8();
  if (m.levels == 0) throw std::invalid_argument("QuantGradMsg: levels == 0");
  skip(r, 2);
  m.round = r.u32();
  m.origin = r.u32();
  m.norm = r.f32();
  const std::uint32_t count = r.u32();
  // Packed stream: count coords at level_bits(levels) bits each, whole bytes.
  if (count > 0 && compress::packed_bytes(count, m.levels) > r.remaining()) {
    throw std::out_of_range("QuantGradMsg: declared count exceeds payload");
  }
  m.quantized.resize(count);
  compress::unpack_levels(r.rest(), m.levels, m.quantized);
  return m;
}

std::uint32_t QuantGradMsg::peek_origin(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  expect_type(r, MsgType::kQuantGrad);
  const std::uint8_t levels = r.u8();
  if (levels == 0) throw std::invalid_argument("QuantGradMsg: levels == 0");
  skip(r, 2);
  (void)r.u32();  // round
  return r.u32();
}

}  // namespace saps::net
