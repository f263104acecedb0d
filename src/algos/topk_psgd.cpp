#include "algos/topk_psgd.hpp"

#include <algorithm>

#include "algos/ring_allgather.hpp"
#include "compress/topk.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"

namespace saps::algos {

namespace {

/// Error-feedback top-k chunks for run_ring_allgather.
struct TopkCodec {
  using Msg = net::SparseDeltaMsg;

  TopkCodec(std::size_t workers, std::size_t dim, double compression)
      : ef(workers, compress::ErrorFeedbackTopK(dim, compression)),
        out(workers) {}

  // compress_into refills the worker's output, whose buffers are then
  // swapped into the message (swap keeps both sides' capacity warm — the
  // steady state allocates nothing).
  void encode(std::size_t w, std::span<const float> gradient, Msg& msg) {
    ef[w].compress_into(gradient, out[w]);
    msg.indices.swap(out[w].indices);
    msg.values.swap(out[w].values);
  }

  // Serial, in fixed origin order, so the float sums are bit-identical for
  // every thread count.
  static void mean(std::span<const Msg* const> chunks, std::span<float> avg) {
    std::fill(avg.begin(), avg.end(), 0.0f);
    for (const Msg* chunk : chunks) {
      compress::add_sparse(avg, chunk->indices, chunk->values,
                           1.0f / static_cast<float>(chunks.size()));
    }
  }

  static void densify(const Msg& chunk, std::span<float> dense) {
    std::fill(dense.begin(), dense.end(), 0.0f);
    compress::add_sparse(dense, chunk.indices, chunk.values);
  }

  std::vector<compress::ErrorFeedbackTopK> ef;
  std::vector<compress::SparseVector> out;
};

}  // namespace

sim::RunResult TopkPsgd::run(sim::Engine& engine) const {
  TopkCodec codec(engine.workers(), engine.param_count(),
                  config_.compression);
  return run_ring_allgather(engine, name(), dyn_, codec);
}

}  // namespace saps::algos

namespace saps::scenario::detail {

void register_topk(Registry& r) {
  r.add_algorithm(
      {.key = "topk",
       .summary = "TopK-PSGD: error-feedback top-k gradient all-gather",
       .params = {{.name = "topk-c",
                   .type = ParamType::kDouble,
                   .default_value = "1000",
                   .min_value = 1,
                   .max_value = 1e12,
                   .help = "TopK-PSGD compression ratio c (paper 1000; fast "
                           "mode shrinks to 100)"}},
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         return std::make_unique<algos::TopkPsgd>(
             algos::TopkConfig{.compression = p.get_double("topk-c")},
             std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
