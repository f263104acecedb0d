#include "sim/faulty_fabric.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace saps::sim {

namespace {

// Domain-separation salt for all fault-injection RNG streams (one entry in
// the repo-wide salt table, docs/ARCHITECTURE.md).
constexpr std::uint64_t kFaultSalt = 0xfa17;

// True when `round` (1-based fabric round) falls inside [from, to) with
// to == 0 meaning "forever".
bool window_open(std::size_t round, std::size_t from, std::size_t to) {
  return round >= from && (to == 0 || round < to);
}

// sqrt(mean(v^2)) — the signal scale the noise attack is proportional to.
float rms(std::span<const float> v) {
  if (v.empty()) return 0.0f;
  double sum = 0.0;
  for (const float x : v) sum += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(sum / static_cast<double>(v.size())));
}

void flip_sign(std::span<float> v) {
  for (auto& x : v) x = -x;
}

// Replaces v with seeded noise at 10x the original signal RMS — large
// enough to swamp an honest mean, which is what the robust-aggregation
// defense is benchmarked against.
void scaled_noise(std::span<float> v, Rng& rng) {
  const float sigma = 10.0f * rms(v);
  for (auto& x : v) {
    x = sigma * (2.0f * rng.next_float() - 1.0f);
  }
}

// Everything one adversarial rewrite needs beyond the payload itself.
struct AttackParams {
  ByzantineMode mode = ByzantineMode::kSignFlip;
  double boost = 1.0;  // kModelReplacement fan-in estimate m
  double adapt = 0.0;  // relative L2 budget, 0 = unconstrained
  std::uint64_t shared_seed = 0;  // kCollusion per-round direction stream
};

// Blends the attacked span back toward the honest values so the relative
// L2 perturbation ||v - honest|| / ||honest|| stays <= theta.
void attenuate(std::span<float> v, std::span<const float> honest,
               double theta) {
  double dd = 0.0;
  double hh = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double d = static_cast<double>(v[i]) - honest[i];
    dd += d * d;
    hh += static_cast<double>(honest[i]) * honest[i];
  }
  const double delta_norm = std::sqrt(dd);
  const double budget = theta * std::sqrt(hh);
  if (delta_norm <= budget || delta_norm == 0.0) return;
  const float lambda = static_cast<float>(budget / delta_norm);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = honest[i] + lambda * (v[i] - honest[i]);
  }
}

void attack_values(std::span<float> v, const AttackParams& p, Rng& rng) {
  std::vector<float> honest;
  if (p.adapt > 0.0) honest.assign(v.begin(), v.end());
  switch (p.mode) {
    case ByzantineMode::kSignFlip:
      flip_sign(v);
      break;
    case ByzantineMode::kScaledNoise:
      scaled_noise(v, rng);
      break;
    case ByzantineMode::kModelReplacement: {
      // Substitute m * (-v) for the honest contribution inside an m-way
      // mean: the wire update becomes v + m * (-v - v) = (1 - 2m) v.
      const float a = 1.0f - 2.0f * static_cast<float>(p.boost);
      for (auto& x : v) x *= a;
      break;
    }
    case ByzantineMode::kCollusion: {
      // Every colluder re-seeds the SAME per-round stream, so coordinate j
      // of every colluder's payload carries the same direction sample —
      // coordinated poison that a mean cannot cancel.  Magnitude follows
      // the sender's own signal RMS (size- and scale-preserving charge).
      Rng shared(p.shared_seed);
      const float sigma = 10.0f * rms(v);
      for (auto& x : v) x = sigma * (2.0f * shared.next_float() - 1.0f);
      break;
    }
    case ByzantineMode::kSilent:
      break;  // handled before any payload reaches the transform
  }
  if (p.adapt > 0.0) attenuate(v, honest, p.adapt);
}

// Quantized frames cannot be blended coordinate-wise, so the adaptive
// budget clamps the norm inflation factor instead.
float quant_norm_scale(double raw_scale, double adapt) {
  if (adapt > 0.0) raw_scale = std::min(raw_scale, 1.0 + adapt);
  return static_cast<float>(raw_scale);
}

// The one float-payload rewrite: decodes a masked-model, sparse-delta or
// full-model frame, runs `edit` over its floats, and re-encodes the frame
// when `edit` reports a change.  Any other frame is left as it is.
// Returns whether the frame changed.
template <typename Edit>
bool edit_floats(std::vector<std::uint8_t>& payload, const Edit& edit) {
  const auto rewrite = [&]<typename Msg>(std::vector<float> Msg::*field) {
    auto msg = Msg::decode(payload);
    if (!edit(std::span<float>(msg.*field))) return false;
    payload = msg.encode();
    return true;
  };
  switch (net::peek_type(payload)) {
    case net::MsgType::kMaskedModel:
      return rewrite(&net::MaskedModelMsg::values);
    case net::MsgType::kSparseDelta:
      return rewrite(&net::SparseDeltaMsg::values);
    case net::MsgType::kFullModel:
      return rewrite(&net::FullModelMsg::params);
    default:
      return false;
  }
}

// Size-preserving adversarial rewrite of one encoded data frame.  Frame
// types with no payload to attack are left untouched (control frames never
// reach here anyway).
void transform_payload(std::vector<std::uint8_t>& payload,
                       const AttackParams& p, Rng& rng) {
  if (net::peek_type(payload) != net::MsgType::kQuantGrad) {
    edit_floats(payload, [&](std::span<float> v) {
      attack_values(v, p, rng);
      return true;
    });
    return;
  }
  auto msg = net::QuantGradMsg::decode(payload);
  switch (p.mode) {
    case ByzantineMode::kSignFlip:
      for (auto& q : msg.quantized) q = static_cast<std::int8_t>(-q);
      break;
    case ByzantineMode::kModelReplacement:
      for (auto& q : msg.quantized) q = static_cast<std::int8_t>(-q);
      msg.norm *= quant_norm_scale(2.0 * p.boost - 1.0, p.adapt);
      break;
    default: {
      // Random levels at an inflated norm: same (levels, count) pair, so
      // the bit-packed size — and therefore the charge — is unchanged.
      // Collusion draws the levels from the shared stream.
      Rng shared(p.shared_seed);
      Rng& source = p.mode == ByzantineMode::kCollusion ? shared : rng;
      const auto span = 2u * msg.levels + 1u;
      for (auto& q : msg.quantized) {
        q = static_cast<std::int8_t>(
            static_cast<int>(source.next_below(span)) -
            static_cast<int>(msg.levels));
      }
      msg.norm *= quant_norm_scale(10.0, p.adapt);
      break;
    }
  }
  payload = msg.encode();
}

// L2 norm of the float payload carried by one encoded data frame, and the
// in-place rescale used by the clip-norm defense.  Both are deterministic
// (no RNG) and size-preserving.
double payload_l2(std::span<const float> v) {
  double sum = 0.0;
  for (const float x : v) sum += static_cast<double>(x) * x;
  return std::sqrt(sum);
}

bool clip_span(std::span<float> v, double clip) {
  const double norm = payload_l2(v);
  if (norm <= clip || norm == 0.0) return false;
  const float s = static_cast<float>(clip / norm);
  for (auto& x : v) x *= s;
  return true;
}

// Rescales a frame's float payload to the clip norm; returns whether it
// was clipped.
bool clip_payload(std::vector<std::uint8_t>& payload, double clip) {
  if (net::peek_type(payload) != net::MsgType::kQuantGrad) {
    return edit_floats(
        payload, [clip](std::span<float> v) { return clip_span(v, clip); });
  }
  auto msg = net::QuantGradMsg::decode(payload);
  // The carried norm IS the payload scale for quantized frames.
  if (msg.norm > clip) {
    msg.norm = static_cast<float>(clip);
    payload = msg.encode();
    return true;
  }
  return false;
}

}  // namespace

FaultyFabric::FaultyFabric(net::LinkModel link, FaultSpec spec,
                           std::size_t fanin,
                           std::function<std::size_t()> colluders_live)
    : Fabric(std::move(link)),
      spec_(std::move(spec)),
      fanin_(fanin),
      colluders_live_probe_(std::move(colluders_live)),
      sends_(nodes()),
      tallies_(nodes()) {
  partition_group_.reserve(spec_.partitions.size());
  for (const auto& event : spec_.partitions) {
    std::vector<std::uint32_t> groups(nodes(), kNoGroup);
    for (std::size_t g = 0; g < event.groups.size(); ++g) {
      for (const auto node : event.groups[g]) {
        if (node < nodes()) groups[node] = static_cast<std::uint32_t>(g);
      }
    }
    partition_group_.push_back(std::move(groups));
  }
}

void FaultyFabric::begin_round() {
  Fabric::begin_round();
  // Serial per-round snapshot: parallel post() calls all read one value, so
  // the collusion gate is a pure function of the round like every other
  // fault decision.
  colluders_live_ = colluders_live_probe_();
}

FaultyFabric::Tally FaultyFabric::tally() const {
  Tally total;
  for (const auto& t : tallies_) {
    total.dropped += t.dropped;
    total.duplicated += t.duplicated;
    total.delayed += t.delayed;
    total.transformed += t.transformed;
    total.silenced += t.silenced;
    total.partitioned += t.partitioned;
    total.clipped += t.clipped;
  }
  return total;
}

const ByzantineEvent* FaultyFabric::byzantine_event(std::size_t src,
                                                    std::size_t round) const {
  for (const auto& e : spec_.byzantine) {
    if (e.worker == src && window_open(round, e.from_round, e.to_round)) {
      return &e;
    }
  }
  return nullptr;
}

bool FaultyFabric::partition_cut(std::size_t src, std::size_t dst,
                                 std::size_t round) const {
  for (std::size_t i = 0; i < spec_.partitions.size(); ++i) {
    const auto& e = spec_.partitions[i];
    if (!window_open(round, e.from_round, e.to_round)) continue;
    const auto gs = partition_group_[i][src];
    const auto gd = partition_group_[i][dst];
    if (gs != kNoGroup && gd != kNoGroup && gs != gd) return true;
  }
  return false;
}

void FaultyFabric::post(std::size_t src, std::size_t dst, double charged,
                        std::vector<std::uint8_t> payload) {
  check_post(src, dst);
  // The open round, 1-based, is every fault window's clock: the link model
  // counts the rounds the fabric has closed.
  const std::size_t round = link().rounds() + 1;
  // The source's send index this round: a count kept from an older round
  // restarts at 0.
  auto& sends = sends_[src];
  if (sends.round != round) sends = {.round = round, .count = 0};
  const std::uint64_t k = sends.count++;

  const auto* byz = byzantine_event(src, round);
  if (byz != nullptr && byz->mode == ByzantineMode::kCollusion &&
      colluders_live_ < spec_.collude_min) {
    // The collusion gate is closed: too few group members are co-selected
    // this round, so the colluder lies low and behaves honestly.
    byz = nullptr;
  }
  if (byz != nullptr && byz->mode == ByzantineMode::kSilent) {
    // Silent straggler: the frame is never sent, so nothing is charged.
    ++tallies_[src].silenced;
    return;
  }

  // One decision stream per posted frame: a pure function of (fault_seed,
  // round, src, send-index, dst).  All three uniforms are always drawn, so
  // the drop schedule does not shift when the dup/delay knobs change.
  // derive_seed takes up to three tags, hence the chained derivation.
  Rng rng(derive_seed(derive_seed(spec_.fault_seed, kFaultSalt, src), round,
                      k, dst));
  const double u_drop = rng.next_double();
  const double u_dup = rng.next_double();
  const double u_delay = rng.next_double();
  double extra = 0.0;
  if (spec_.delay_seconds > 0.0 && u_delay < spec_.delay_prob) {
    extra = spec_.delay_seconds;
    ++tallies_[src].delayed;
  }

  if (partition_cut(src, dst, round)) {
    link().transfer(src, dst, charged, extra);
    ++tallies_[src].partitioned;
    return;
  }
  if (u_drop < spec_.drop_prob) {
    link().transfer(src, dst, charged, extra);
    ++tallies_[src].dropped;
    return;
  }

  if (byz != nullptr) {
    // Transform RNG is separate from the decision stream so that enabling a
    // byzantine window never shifts drop/dup/delay schedules.
    Rng noise(derive_seed(derive_seed(spec_.fault_seed, kFaultSalt + 1, src),
                          round, k, dst));
    AttackParams params;
    params.mode = byz->mode;
    params.boost = static_cast<double>(fanin_);
    params.adapt = spec_.adapt_attack;
    // The direction stream is shared by the whole group: no src/k/dst tags,
    // so every colluder's frame carries the same per-round direction.
    params.shared_seed =
        derive_seed(derive_seed(spec_.fault_seed, kFaultSalt + 2), round);
    transform_payload(payload, params, noise);
    ++tallies_[src].transformed;
  }

  if (spec_.clip_norm > 0.0) {
    // Receiver-side defense: applied after the adversarial rewrite, to
    // honest and byzantine frames alike, before any duplication.
    if (clip_payload(payload, spec_.clip_norm)) ++tallies_[src].clipped;
  }

  const bool duplicate = u_dup < spec_.dup_prob;
  link().transfer(src, dst, charged, extra);
  if (duplicate) {
    // Retransmission: charged and delivered a second time.
    link().transfer(src, dst, charged, extra);
    deliver(src, dst, payload);  // copies
    ++tallies_[src].duplicated;
  }
  deliver(src, dst, std::move(payload));
}

}  // namespace saps::sim
