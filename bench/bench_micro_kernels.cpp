// google-benchmark micro-benchmarks for the kernels on the training and
// communication hot paths: mask generation, masked extraction/merge, top-k
// selection, GEMM, Conv2d passes, im2col/col2im, the 2×2 max-pool, one
// tiny-CNN training step, a train/eval batch-size cycle and a serial
// engine's round-robin local steps, blossom matching, and full
// gossip-matrix generation.
#include <benchmark/benchmark.h>

#include "compress/mask.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "data/synthetic.hpp"
#include "gossip/generator.hpp"
#include "graph/matching.hpp"
#include "net/bandwidth.hpp"
#include "nn/conv2d.hpp"
#include "nn/models.hpp"
#include "nn/pool.hpp"
#include "sim/engine.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

void BM_BernoulliMask(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(saps::compress::bernoulli_mask(seed++, n, 100.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BernoulliMask)->Arg(1 << 16)->Arg(1 << 20);

void BM_ExtractAndMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mask = saps::compress::bernoulli_mask(3, n, 100.0);
  std::vector<float> x(n, 1.0f);
  for (auto _ : state) {
    auto vals = saps::compress::extract_masked(x, mask);
    saps::compress::average_masked_inplace(x, mask, vals);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExtractAndMerge)->Arg(1 << 16)->Arg(1 << 20);

void BM_TopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(5);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.next_float() - 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(saps::compress::top_k(x, 100.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopK)->Arg(1 << 16)->Arg(1 << 20);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(7);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto _ : state) {
    saps::ops::gemm(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Set the per-iteration FLOP count for an (m,k,n) GEMM-shaped benchmark.
void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t k,
                       std::size_t n) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m) *
                          static_cast<std::int64_t>(k) *
                          static_cast<std::int64_t>(n));
}

// ResNet-20 / CIFAR-representative shapes (out = W(outC×k) · cols(k×HW)):
// the 3x3 stage-1 block (16×144×1024), a stride-2 stage-2 block
// (32×288×256) and a stage-3 block (64×576×64).
void conv_shape_args(benchmark::internal::Benchmark* b) {
  b->Args({16, 144, 1024})->Args({32, 288, 256})->Args({64, 576, 64});
}

void BM_GemmConvShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  saps::Rng rng(7);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto _ : state) {
    saps::ops::gemm(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_GemmConvShape)->Apply(conv_shape_args);

// Conv2d::backward input-gradient shape: dcols(k×HW) = Wᵀ(k×outC)·dout.
void BM_GemmAtB(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  saps::Rng rng(8);
  std::vector<float> a(k * m), b(k * n), c(m * n);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    saps::ops::gemm_at_b_acc(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_GemmAtB)->Args({144, 16, 1024})->Args({288, 32, 256});

// Conv2d::backward weight-gradient shape: dW(outC×k) += dout·colsᵀ.
void BM_GemmABt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  saps::Rng rng(9);
  std::vector<float> a(m * k), b(n * k), c(m * n, 0.0f);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto _ : state) {
    saps::ops::gemm_a_bt_acc(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_GemmABt)->Args({16, 1024, 144})->Args({32, 256, 288});

// Conv-forward with the fused per-channel bias + ReLU epilogue (one pass
// over C instead of three).
void BM_GemmFusedBiasRelu(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  saps::Rng rng(12);
  std::vector<float> a(m * k), b(k * n), c(m * n), bias(m);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto& v : bias) v = rng.next_float() - 0.5f;
  const saps::ops::GemmEpilogue ep{
      .bias = bias,
      .bias_axis = saps::ops::GemmEpilogue::BiasAxis::kRow,
      .relu = true};
  for (auto _ : state) {
    saps::ops::gemm_fused(a, b, c, m, k, n, ep);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_GemmFusedBiasRelu)->Apply(conv_shape_args);

// The portable (std::fma) micro-kernel on the headline shape, for comparing
// the runtime-dispatch backends on one machine.
void BM_GemmPortableBackend(benchmark::State& state) {
  const std::size_t m = 16, k = 144, n = 1024;
  saps::Rng rng(14);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kPortable);
  for (auto _ : state) {
    saps::ops::gemm(a, b, c, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kAuto);
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_GemmPortableBackend);

// One nn::Conv2d pass at batch 10 over the stride-1 shapes the models
// train: the tiny CNN's two 3×3 convs, CIFAR-CNN's two 5×5 convs and
// ResNet-20's three 3×3 stages.  Args are (in channels, out channels,
// height = width, kernel, bias); the padding keeps the plane size.  Items
// are FLOPs: two per tap, output pixel and output channel, per pass.
constexpr std::int64_t kConvShapes[][5] = {
    {3, 8, 16, 3, 1},   {8, 16, 8, 3, 1},   {3, 32, 32, 5, 1},
    {32, 64, 16, 5, 1}, {16, 16, 32, 3, 0}, {32, 32, 16, 3, 0},
    {64, 64, 8, 3, 0}};

// A bound Conv2d with random weights, input and output gradient.
struct ConvLayer {
  explicit ConvLayer(const benchmark::State& state)
      : in_channels(static_cast<std::size_t>(state.range(0))),
        kernel(static_cast<std::size_t>(state.range(3))),
        conv(in_channels, static_cast<std::size_t>(state.range(1)), kernel, 1,
             kernel / 2, state.range(4) != 0),
        in({10, in_channels, static_cast<std::size_t>(state.range(2)),
            static_cast<std::size_t>(state.range(2))}),
        out(conv.output_shape(in.shape())),
        dout(out.shape()),
        params(conv.param_count()),
        grads(conv.param_count()) {
    conv.bind(params, grads, {});
    saps::Rng rng(29);
    conv.init(rng);
    for (saps::Tensor* t : {&in, &dout}) {
      for (std::size_t i = 0; i < t->numel(); ++i) {
        (*t)[i] = rng.next_float() - 0.5f;
      }
    }
  }
  [[nodiscard]] std::int64_t flops_per_pass() const {
    return 2 * static_cast<std::int64_t>(out.numel() * in_channels * kernel *
                                         kernel);
  }

  std::size_t in_channels, kernel;
  saps::nn::Conv2d conv;
  saps::Tensor in, out, dout;
  std::vector<float> params, grads;
};

void BM_Conv2dForward(benchmark::State& state) {
  ConvLayer l(state);
  for (auto _ : state) {
    l.conv.forward(l.in, l.out, /*train=*/true);
    benchmark::DoNotOptimize(l.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          l.flops_per_pass());
}
BENCHMARK(BM_Conv2dForward)->Apply([](benchmark::internal::Benchmark* b) {
  for (const auto& s : kConvShapes) b->Args({s[0], s[1], s[2], s[3], s[4]});
});

// The weight and bias gradients, plus the input gradient when the sixth arg
// is 1 (a model's first conv skips it).
void BM_Conv2dBackward(benchmark::State& state) {
  ConvLayer l(state);
  const bool want_din = state.range(5) != 0;
  saps::Tensor din;
  if (want_din) din.resize(l.in.shape());
  for (auto _ : state) {
    l.conv.backward(l.in, l.dout, din);
    benchmark::DoNotOptimize(l.grads.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          l.flops_per_pass() * (want_din ? 2 : 1));
}
BENCHMARK(BM_Conv2dBackward)->Apply([](benchmark::internal::Benchmark* b) {
  for (const auto& s : kConvShapes) {
    for (const std::int64_t din : {0, 1}) {
      b->Args({s[0], s[1], s[2], s[3], s[4], din});
    }
  }
});

// The 3×3 stride-2 pad-1 shapes of ResNet-20's two downsampling convs, the
// convolutions that still run im2col + GEMM: they read a 16×32×32 and a
// 32×16×16 input.  Args are (channels, height = width).
void resnet_downsample_args(benchmark::internal::Benchmark* b) {
  b->Args({16, 32})->Args({32, 16});
}

// Taps × output pixels of a 3×3 stride-2 pad-1 conv over a hw × hw input.
std::size_t downsample_cols(std::size_t c, std::size_t hw) {
  return c * 9 * (hw / 2) * (hw / 2);
}

void BM_Im2col(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  saps::Rng rng(20);
  std::vector<float> img(c * hw * hw), cols(downsample_cols(c, hw));
  for (auto& v : img) v = rng.next_float() - 0.5f;
  for (auto _ : state) {
    saps::ops::im2col(img, c, hw, hw, 3, 3, 2, 1, cols);
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cols.size()));
}
BENCHMARK(BM_Im2col)->Apply(resnet_downsample_args);

void BM_Col2im(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  saps::Rng rng(21);
  std::vector<float> cols(downsample_cols(c, hw)), img(c * hw * hw, 0.0f);
  for (auto& v : cols) v = rng.next_float() - 0.5f;
  for (auto _ : state) {
    saps::ops::col2im(cols, c, hw, hw, 3, 3, 2, 1, img);
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cols.size()));
}
BENCHMARK(BM_Col2im)->Apply(resnet_downsample_args);

// One local SGD step's forward + backward on the tiny CNN the cifar
// workload trains (3×16×16 input, width 8, batch 10) — the per-step cost
// behind the end-to-end benchmark's local-step phase.
void BM_TinyCnnTrainBatch(benchmark::State& state) {
  constexpr std::size_t kBatch = 10;
  auto model = saps::nn::make_tiny_cnn(3, 16, 10, /*seed=*/22);
  saps::Rng rng(23);
  saps::Tensor x({kBatch, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.next_float() - 0.5f;
  std::vector<std::int32_t> labels(kBatch);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng() % 10);
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.train_batch(x, labels));
    benchmark::DoNotOptimize(model.gradients().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_TinyCnnTrainBatch);

// The tiny CNN's two 2×2 max-pool forwards at batch 10: conv1's 8×16×16
// output and conv2's 16×8×8 one.  Args are (channels, height = width).
void BM_MaxPool2x2(benchmark::State& state) {
  constexpr std::size_t kBatch = 10;
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  saps::nn::MaxPool2d pool(2);
  saps::Rng rng(24);
  saps::Tensor in({kBatch, c, hw, hw});
  for (std::size_t i = 0; i < in.numel(); ++i) in[i] = rng.next_float() - 0.5f;
  saps::Tensor out(pool.output_shape(in.shape()));
  for (auto _ : state) {
    pool.forward(in, out, /*train=*/true);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.numel()));
}
BENCHMARK(BM_MaxPool2x2)->Args({8, 16})->Args({16, 8});

// One tiny-CNN model alternating between a training step (batch 10) and an
// evaluation of 400 samples at eval batch 256 (256 + 144), then training
// again: the batch-size swings a model sees when it both trains and
// evaluates.  Counts the cost of re-sizing activations on top of the work.
void BM_TinyCnnEvalCycle(benchmark::State& state) {
  auto model = saps::nn::make_tiny_cnn(3, 16, 10, /*seed=*/25);
  saps::Rng rng(26);
  const auto batch = [&](std::size_t n) {
    saps::Tensor x({n, 3, 16, 16});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.next_float() - 0.5f;
    std::vector<std::int32_t> labels(n);
    for (auto& l : labels) l = static_cast<std::int32_t>(rng() % 10);
    return std::pair{std::move(x), std::move(labels)};
  };
  const auto [train_x, train_y] = batch(10);
  const auto [big_x, big_y] = batch(256);
  const auto [tail_x, tail_y] = batch(144);
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.train_batch(train_x, train_y));
    benchmark::DoNotOptimize(model.evaluate_batch(big_x, big_y).loss);
    benchmark::DoNotOptimize(model.evaluate_batch(tail_x, tail_y).loss);
    model.zero_grad();
    benchmark::DoNotOptimize(model.train_batch(train_x, train_y));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (10 + 256 + 144 + 10));
}
BENCHMARK(BM_TinyCnnEvalCycle);

// One local SGD step per worker of a serial engine, round-robin as the
// serial engine runs them: the tiny CNN at batch 10 on 3×16×16 images, with
// the worker count as the argument.  Every step runs on the same executor,
// so the per-step cost should not grow with the number of workers whose
// state it is bound to in turn.
void BM_SerialLocalSteps(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto train = saps::data::make_cifar_like(workers * 40, 27, 16);
  const auto test = saps::data::make_cifar_like(10, 27, 16);
  saps::sim::SimConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = 10;
  cfg.seed = 28;
  saps::sim::Engine engine(
      cfg, train, test, [] { return saps::nn::make_tiny_cnn(3, 16, 10, 28); },
      std::nullopt);
  for (auto _ : state) {
    for (std::size_t w = 0; w < workers; ++w) {
      benchmark::DoNotOptimize(engine.sgd_step(w, 0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workers));
}
BENCHMARK(BM_SerialLocalSteps)->Arg(2)->Arg(32);

// QSGD stochastic quantization (norm pass + draws + elementwise quantize).
void BM_QuantizeEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng data_rng(16);
  std::vector<float> x(n);
  for (auto& v : x) v = data_rng.next_float() - 0.5f;
  saps::Rng rng(17);
  saps::compress::QsgdEncoded enc;
  for (auto _ : state) {
    saps::compress::qsgd_encode(x, 8, rng, enc);
    benchmark::DoNotOptimize(enc.quantized.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeEncode)->Arg(1 << 16)->Arg(1 << 20);

// The scalar twin of BM_QuantizeEncode, for same-machine backend deltas.
void BM_QuantizeEncodePortable(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  saps::Rng data_rng(16);
  std::vector<float> x(n);
  for (auto& v : x) v = data_rng.next_float() - 0.5f;
  saps::Rng rng(17);
  saps::compress::QsgdEncoded enc;
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kPortable);
  for (auto _ : state) {
    saps::compress::qsgd_encode(x, 8, rng, enc);
    benchmark::DoNotOptimize(enc.quantized.data());
  }
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeEncodePortable);

void BM_QuantizeDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng data_rng(18);
  std::vector<float> x(n);
  for (auto& v : x) v = data_rng.next_float() - 0.5f;
  saps::Rng rng(19);
  const auto enc = saps::compress::qsgd_encode(x, 8, rng);
  std::vector<float> out;
  for (auto _ : state) {
    saps::compress::qsgd_decode(enc, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeDecode)->Arg(1 << 16)->Arg(1 << 20);

// Wire bit-packing of quantized levels (4 bits per coordinate at s=8).
void BM_QuantizePack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(20);
  std::vector<std::int8_t> q(n);
  for (auto& v : q) {
    v = static_cast<std::int8_t>(static_cast<int>(rng() % 17) - 8);
  }
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    saps::compress::pack_levels(q, 8, bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizePack)->Arg(1 << 16)->Arg(1 << 20);

void BM_QuantizeUnpack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(21);
  std::vector<std::int8_t> q(n);
  for (auto& v : q) {
    v = static_cast<std::int8_t>(static_cast<int>(rng() % 17) - 8);
  }
  std::vector<std::uint8_t> bytes;
  saps::compress::pack_levels(q, 8, bytes);
  std::vector<std::int8_t> out(n);
  for (auto _ : state) {
    saps::compress::unpack_levels(bytes, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeUnpack)->Arg(1 << 16)->Arg(1 << 20);

// The steady-state selection path (workspace overload, two-pass threshold
// strategy at these sizes).
void BM_TopKWarm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(22);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.next_float() - 0.5f;
  std::vector<saps::compress::TopKCandidate> scratch;
  saps::compress::SparseVector out;
  for (auto _ : state) {
    saps::compress::top_k(x, 100.0, scratch, out);
    benchmark::DoNotOptimize(out.indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKWarm)->Arg(1 << 16)->Arg(1 << 20);

// The scalar twin of BM_TopKWarm, for same-machine backend deltas.
void BM_TopKWarmPortable(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  saps::Rng rng(22);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.next_float() - 0.5f;
  std::vector<saps::compress::TopKCandidate> scratch;
  saps::compress::SparseVector out;
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kPortable);
  for (auto _ : state) {
    saps::compress::top_k(x, 100.0, scratch, out);
    benchmark::DoNotOptimize(out.indices.data());
  }
  saps::ops::set_gemm_backend(saps::ops::GemmBackend::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKWarmPortable);

// The full compression path of TopK-PSGD: residual add, top-k selection,
// residual update.  136714 is the parameter count of perfbench's
// topk-mlp16 MLP.
void BM_ErrorFeedbackCompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::Rng rng(10);
  std::vector<float> grad(n);
  for (auto& v : grad) v = rng.next_float() - 0.5f;
  saps::compress::ErrorFeedbackTopK ef(n, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ef.compress(grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ErrorFeedbackCompress)->Arg(1 << 16)->Arg(136714)->Arg(1 << 20);

void BM_BlossomCompleteGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  saps::graph::AdjMatrix g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) g.set(i, j);
  }
  saps::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(saps::graph::randomly_max_matching(g, rng));
  }
}
BENCHMARK(BM_BlossomCompleteGraph)->Arg(14)->Arg(32)->Arg(64);

void BM_GossipGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bw = saps::net::random_uniform_bandwidth(n, 9);
  saps::gossip::GossipGenerator gen(bw, {.t_thres = 10, .seed = 3});
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(t++));
  }
}
BENCHMARK(BM_GossipGenerate)->Arg(14)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
