// Byte-level wire format for every message class in the SAPS-PSGD protocol.
//
// Every inter-node exchange in the simulator flows through sim::Fabric as one
// of the typed messages below; the fabric charges traffic from each message's
// wire_bytes(), the one charge formula for its payload.  For the
// control-plane and sparsified messages (NotifyMsg, RoundEndMsg,
// MaskedModelMsg, SparseDeltaMsg) the charge IS encode().size() — the
// cross-check suite in tests/message_plane_test.cpp pins that equality and
// its closed form across dimensions, and the control messages at 24 and 12
// bytes.  Two message types charge less than their physical encoding,
// matching the paper's accounting: FullModelMsg charges payload floats only
// (Table I counts model parameters moved, not framing), and QuantGradMsg
// charges the information-theoretic sub-byte size of QSGD (the "32x
// compression" convention).  Both deltas are pinned by test so the charge
// can never drift from the encoding silently.
// All integers are little-endian; floats are IEEE-754 binary32.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace saps::net {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f32_span(std::span<const float> values);
  void u32_span(std::span<const std::uint32_t> values);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Mutable underlying buffer, for appenders that own their byte layout
  /// (compress::pack_levels).  Appending keeps all previously written bytes.
  [[nodiscard]] std::vector<std::uint8_t>& raw() noexcept { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder; throws std::out_of_range on
/// truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] float f32();
  void f32_span(std::span<float> out);
  void u32_span(std::span<std::uint32_t> out);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  /// The unread tail, for decoders that own their byte layout
  /// (compress::unpack_levels).  Does not advance the cursor.
  [[nodiscard]] std::span<const std::uint8_t> rest() const noexcept {
    return data_.subspan(pos_);
  }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- protocol messages ------------------------------------------------------

enum class MsgType : std::uint8_t {
  kNotify = 1,      // coordinator → worker: (W_t row, t, s)  [Alg. 1 line 6]
  kRoundEnd = 2,    // worker → coordinator                   [Alg. 2 line 11]
  kMaskedModel = 3, // worker ↔ worker: sparsified model x̃    [Alg. 2 line 9]
  kSparseDelta = 4, // DCD/TopK: (index, value) compressed payload
  kFullModel = 5,   // final model collection                 [Alg. 1 line 8]
  kQuantGrad = 6,   // QSGD: bit-packed signed quantization levels
};

/// (W_t, t, s) for one worker: its peer for the round plus the shared seed.
/// Encodes to exactly 24 bytes.
struct NotifyMsg {
  std::uint32_t round = 0;
  std::uint64_t mask_seed = 0;
  std::uint32_t peer = 0;  // == own rank when unmatched this round

  /// Charged wire size; equals encode().size().
  [[nodiscard]] double wire_bytes() const noexcept { return 24.0; }
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static NotifyMsg decode(std::span<const std::uint8_t> bytes);
};

/// ROUND_END from one worker.  Encodes to exactly 12 bytes.
struct RoundEndMsg {
  std::uint32_t round = 0;
  std::uint32_t rank = 0;

  /// Charged wire size; equals encode().size().
  [[nodiscard]] double wire_bytes() const noexcept { return 12.0; }
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static RoundEndMsg decode(std::span<const std::uint8_t> bytes);
};

/// The SAPS sparsified model: seed + round + surviving values, NO indices —
/// the receiver regenerates the mask from the seed.  Encoded size is exactly
/// 16 + 4·|values|.
struct MaskedModelMsg {
  std::uint64_t mask_seed = 0;
  std::uint32_t round = 0;
  std::vector<float> values;

  /// Charged wire size; equals encode().size().
  [[nodiscard]] double wire_bytes() const noexcept {
    return 16.0 + 4.0 * static_cast<double>(values.size());
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static MaskedModelMsg decode(std::span<const std::uint8_t> bytes);
};

/// (index, value) sparse payload: a 16-byte header plus a 4-byte index and a
/// 4-byte value per entry, so the encoded size is 16 + 8·nnz.
struct SparseDeltaMsg {
  std::uint32_t round = 0;
  std::uint32_t origin = 0;
  std::vector<std::uint32_t> indices;
  std::vector<float> values;

  /// Charged wire size; equals encode().size().
  [[nodiscard]] double wire_bytes() const noexcept {
    return 16.0 + 8.0 * static_cast<double>(indices.size());
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static SparseDeltaMsg decode(std::span<const std::uint8_t> bytes);
  /// Origin rank from the fixed-offset frame, without materializing the
  /// payload — for ring forwarders that only validate provenance.
  static std::uint32_t peek_origin(std::span<const std::uint8_t> bytes);
};

struct FullModelMsg {
  std::uint32_t rank = 0;
  std::vector<float> params;

  /// Charged wire size: payload floats only (the paper's Table I counts
  /// parameters moved; the 12-byte frame is excluded from accounting).
  /// encode().size() == wire_bytes() + kFrameBytes, pinned by test.
  static constexpr std::size_t kFrameBytes = 12;
  [[nodiscard]] double wire_bytes() const noexcept {
    return 4.0 * static_cast<double>(params.size());
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static FullModelMsg decode(std::span<const std::uint8_t> bytes);
  /// Sender rank from the fixed-offset frame, without materializing the
  /// payload — for receivers that only validate provenance.
  static std::uint32_t peek_rank(std::span<const std::uint8_t> bytes);
};

/// QSGD quantized gradient: ‖x‖₂ + s + one signed level per coordinate,
/// bit-packed at compress::level_bits(s) = ceil(log2(2s+1)) bits.  The
/// CHARGED size is the information-theoretic 5 + bits·n/8 (4-byte norm,
/// 1-byte levels, packed bits, fractional bytes allowed), matching how the
/// paper counts "32x compression"; the physical encoding byte-aligns the
/// bit stream and adds a frame, so encode().size() == 20 + ceil(bits·n/8) —
/// the delta is pinned by test.
struct QuantGradMsg {
  std::uint32_t round = 0;
  std::uint32_t origin = 0;
  float norm = 0.0f;
  std::uint8_t levels = 0;                 // s; must be >= 1 to encode
  std::vector<std::int8_t> quantized;      // signed level per coordinate

  // type + levels + 2 pad + round + origin + norm + count.
  static constexpr std::size_t kFrameBytes = 20;
  /// Charged wire size: 5 + level_bits(levels)·n/8 for n coordinates.
  [[nodiscard]] double wire_bytes() const noexcept;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static QuantGradMsg decode(std::span<const std::uint8_t> bytes);
  /// Origin rank from the fixed-offset frame, without unpacking the bit
  /// stream — for ring forwarders that only validate provenance.
  static std::uint32_t peek_origin(std::span<const std::uint8_t> bytes);
};

/// First byte of every encoded message.
[[nodiscard]] MsgType peek_type(std::span<const std::uint8_t> bytes);

}  // namespace saps::net
