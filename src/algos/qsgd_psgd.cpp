#include "algos/qsgd_psgd.hpp"

#include "algos/ring_allgather.hpp"
#include "compress/quantize.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

namespace saps::algos {

namespace {

/// Stochastically quantized chunks for run_ring_allgather.
struct QsgdCodec {
  using Msg = net::QuantGradMsg;

  // One RNG stream per worker (derived, uncorrelated), so the stochastic
  // quantization parallelizes across workers and stays deterministic for
  // every thread count.
  QsgdCodec(const sim::Engine& engine, std::uint8_t levels)
      : engine(engine), levels(levels), encs(engine.workers()) {
    rngs.reserve(engine.workers());
    for (std::size_t w = 0; w < engine.workers(); ++w) {
      rngs.emplace_back(derive_seed(engine.config().seed, 0x05d9, w));
    }
  }

  // The into-overload refills the worker's encoder output, whose level
  // buffer is then swapped into the message (the steady state allocates
  // nothing).
  void encode(std::size_t w, std::span<const float> gradient, Msg& msg) {
    compress::qsgd_encode(gradient, levels, rngs[w], encs[w]);
    msg.norm = encs[w].norm;
    msg.levels = encs[w].levels;
    msg.quantized.swap(encs[w].quantized);
  }

  // Decode-and-accumulate chunked over coordinates (QSGD decode is
  // elementwise: unit * quantized[j]); each coordinate still sums over
  // origins in fixed order, so the mean is thread-count invariant — and no
  // dense decoded copies are materialized.
  void mean(std::span<const Msg* const> chunks, std::span<float> avg) const {
    const float inv = 1.0f / static_cast<float>(chunks.size());
    engine.parallel_chunks(avg.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) avg[j] = 0.0f;
      for (const Msg* e : chunks) {
        const float unit = e->norm / static_cast<float>(e->levels);
        for (std::size_t j = begin; j < end; ++j) {
          avg[j] += inv * (unit * static_cast<float>(e->quantized[j]));
        }
      }
    });
  }

  static void densify(const Msg& e, std::span<float> dense) {
    const float unit = e.norm / static_cast<float>(e.levels);
    for (std::size_t j = 0; j < dense.size(); ++j) {
      dense[j] = unit * static_cast<float>(e.quantized[j]);
    }
  }

  const sim::Engine& engine;
  std::uint8_t levels;
  std::vector<Rng> rngs;
  std::vector<compress::QsgdEncoded> encs;
};

}  // namespace

sim::RunResult QsgdPsgd::run(sim::Engine& engine) const {
  QsgdCodec codec(engine, config_.levels);
  return run_ring_allgather(engine, name(), dyn_, codec);
}

}  // namespace saps::algos

namespace saps::scenario::detail {

void register_qsgd(Registry& r) {
  r.add_algorithm(
      {.key = "qsgd",
       .summary = "QSGD-PSGD: stochastically quantized gradient all-gather "
                  "(ablation baseline, not in the paper comparison)",
       .in_paper_comparison = false,
       .params = {{.name = "qsgd-levels",
                   .type = ParamType::kInt,
                   .default_value = "4",
                   .min_value = 1,
                   .max_value = 127,
                   .help = "QSGD quantization levels s (default 4)"}},
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         return std::make_unique<algos::QsgdPsgd>(
             algos::QsgdConfig{
                 .levels = static_cast<std::uint8_t>(p.get_int("qsgd-levels"))},
             std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
