// Allocation-count tests for the training/compression hot paths: the
// per-round kernels must be allocation-free at steady state (persistent
// scratch, buffer swaps) apart from buffers whose ownership is handed to the
// caller, a model that alternates between training and evaluation batch
// sizes must make no large allocation, and neither must an engine's first
// steps on workers that have not trained before, nor its construction copy
// the training set, a fabric allocates no mailbox until its first
// delivery, the coordinator's plan is sized by the live workers, and a
// reputation monitor's fold allocates nothing once warm.
// Global operator new/new[] are replaced with counting versions for this
// binary (counting all allocations, separately the large ones, and the
// bytes requested); each test warms its path up, then measures a tight
// window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/coordinator.hpp"
#include "core/reputation.hpp"
#include "data/synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/models.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {
// Allocations of at least this many bytes also count as large: buffers of
// that size are activations and scratch, not shape vectors or strings.
constexpr std::size_t kLargeAlloc = 4096;
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<std::size_t> g_large_alloc_count{0};
std::atomic<std::size_t> g_alloc_bytes{0};

void* counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= kLargeAlloc) {
    g_large_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_malloc(size);
}

void* operator new[](std::size_t size) {
  return counted_malloc(size);
}

// The nothrow forms (std::stable_sort's temporary buffer) are replaced too:
// a sanitizer runtime supplies its own, whose blocks the free() below would
// then release with a mismatched deallocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

// Kept out of line: once GCC inlines a delete next to a call of the
// (out-of-line) replaced new, -Wmismatched-new-delete sees free() on a
// pointer from operator new and warns.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace saps {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float() - 0.5f;
  return v;
}

std::size_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::size_t large_allocations() {
  return g_large_alloc_count.load(std::memory_order_relaxed);
}

std::size_t allocated_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

TEST(ErrorFeedbackTopK, CompressAllocatesOnlyTheReturnedVectors) {
  const std::size_t n = 4096;
  compress::ErrorFeedbackTopK ef(n, 100.0);
  const auto grad = random_vec(n, 5);
  for (int warm = 0; warm < 3; ++warm) (void)ef.compress(grad);

  for (int i = 0; i < 5; ++i) {
    const std::size_t before = allocations();
    const auto sent = ef.compress(grad);
    const std::size_t per_call = allocations() - before;
    // The returned SparseVector's two buffers leave the compressor, so they
    // are the irreducible floor; the selection scratch and the residual
    // swap must add nothing.
    EXPECT_LE(per_call, 2u) << "call " << i;
    EXPECT_GT(sent.nnz(), 0u);
  }
}

TEST(ErrorFeedbackTopK, SwapResidualMatchesSeedSemantics) {
  // residual after compress == (residual + gradient) with sent coords zeroed.
  const std::size_t n = 257;
  compress::ErrorFeedbackTopK ef(n, 10.0);
  const auto g1 = random_vec(n, 7);
  const auto g2 = random_vec(n, 9);
  std::vector<float> expect(n, 0.0f);
  for (const auto& g : {g1, g2}) {
    for (std::size_t i = 0; i < n; ++i) expect[i] += g[i];
    const auto sent = ef.compress(g);
    for (std::size_t i = 0; i < sent.nnz(); ++i) {
      EXPECT_EQ(sent.values[i], expect[sent.indices[i]]);
      expect[sent.indices[i]] = 0.0f;
    }
    const auto res = ef.residual();
    ASSERT_EQ(res.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res[i], expect[i]) << i;
  }
}

TEST(TopK, WorkspaceOverloadIsAllocationFreeAndEquivalent) {
  const std::size_t n = 2048;
  const auto x = random_vec(n, 11);
  const auto want = compress::top_k(x, 50.0);

  std::vector<compress::TopKCandidate> order;
  compress::SparseVector out;
  compress::top_k(x, 50.0, order, out);  // warm the buffers
  const std::size_t before = allocations();
  compress::top_k(x, 50.0, order, out);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(out.indices, want.indices);
  EXPECT_EQ(out.values, want.values);
}

TEST(ErrorFeedbackTopK, CompressIntoIsAllocationFreeAfterWarmup) {
  const std::size_t n = 65536;  // threshold-pass selection path
  compress::ErrorFeedbackTopK ef(n, 100.0);
  const auto grad = random_vec(n, 31);
  compress::SparseVector out;
  for (int warm = 0; warm < 3; ++warm) ef.compress_into(grad, out);

  const std::size_t before = allocations();
  for (int i = 0; i < 5; ++i) ef.compress_into(grad, out);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(out.nnz(), 0u);
}

TEST(TopK, ThresholdPathIsAllocationFreeAndMatchesSortReference) {
  // n=8192 engages the radix threshold-pass selection; the reference is a
  // full stable selection sort by (|x| desc, index asc) — the documented
  // ordering contract shared by both strategies.
  const std::size_t n = 8192;
  const auto x = random_vec(n, 37);
  std::vector<std::uint32_t> ref(n);
  std::iota(ref.begin(), ref.end(), 0u);
  std::sort(ref.begin(), ref.end(), [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(x[a]), fb = std::fabs(x[b]);
    return fa > fb || (fa == fb && a < b);
  });
  const std::size_t k = n / 64;
  ref.resize(k);
  std::sort(ref.begin(), ref.end());

  std::vector<compress::TopKCandidate> scratch;
  compress::SparseVector out;
  compress::top_k(x, 64.0, scratch, out);  // warm the buffers
  const std::size_t before = allocations();
  compress::top_k(x, 64.0, scratch, out);
  EXPECT_EQ(allocations() - before, 0u);
  ASSERT_EQ(out.indices, ref);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(out.values[i], x[out.indices[i]]);
  }
}

TEST(TopK, CandidateListGrowsToAllOfNWithoutAllocating) {
  // The threshold path's candidates are the members of the bucket holding
  // the k-th key and of the buckets above it: a few percent of n for
  // uniform input, all of n when every value is equal.  The scratch
  // reserves n entries on first use, so growing into the dense list
  // allocates nothing.
  const std::size_t n = 65536;
  const auto sparse = random_vec(n, 53);
  const std::vector<float> dense(n, 0.75f);
  std::vector<compress::TopKCandidate> scratch;
  compress::SparseVector out;
  compress::top_k(sparse, 100.0, scratch, out);  // warm the buffers
  const std::size_t before = allocations();
  compress::top_k(dense, 100.0, scratch, out);
  const std::size_t k = out.nnz();
  compress::top_k(sparse, 100.0, scratch, out);
  EXPECT_EQ(allocations() - before, 0u);
  // All keys tie, so the lowest k indices win.
  compress::top_k(dense, 100.0, scratch, out);
  ASSERT_EQ(k, (n + 99) / 100);
  for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(out.indices[i], i);
}

TEST(ErrorFeedbackTopK, DenseCandidateListIsAllocationFree) {
  // A gradient of equal values far above the residual makes every
  // accumulated key equal: the fused select then gathers all of n.
  const std::size_t n = 65536;
  compress::ErrorFeedbackTopK ef(n, 100.0);
  const auto grad = random_vec(n, 59);
  const std::vector<float> flat(n, 1e30f);
  compress::SparseVector out;
  for (int warm = 0; warm < 3; ++warm) ef.compress_into(grad, out);

  const std::size_t before = allocations();
  ef.compress_into(flat, out);
  ef.compress_into(grad, out);
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Qsgd, IntoOverloadsAreAllocationFreeAfterWarmup) {
  const std::size_t n = 16384;
  const auto x = random_vec(n, 41);
  Rng rng(43);
  compress::QsgdEncoded enc;
  std::vector<float> dec;
  for (int warm = 0; warm < 3; ++warm) {
    compress::qsgd_encode(x, 8, rng, enc);
    compress::qsgd_decode(enc, dec);
  }
  const std::size_t before = allocations();
  for (int i = 0; i < 5; ++i) {
    compress::qsgd_encode(x, 8, rng, enc);
    compress::qsgd_decode(enc, dec);
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(PackedLevels, PackIntoWarmBufferIsAllocationFree) {
  const std::size_t n = 16384;
  Rng rng(47);
  std::vector<std::int8_t> q(n);
  for (auto& v : q) {
    v = static_cast<std::int8_t>(static_cast<int>(rng() % 9) - 4);
  }
  std::vector<std::uint8_t> bytes;
  std::vector<std::int8_t> back(n);
  compress::pack_levels(q, 4, bytes);  // warm the byte buffer
  const std::size_t before = allocations();
  bytes.clear();
  compress::pack_levels(q, 4, bytes);
  compress::unpack_levels(bytes, 4, back);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(back, q);
}

TEST(Conv2d, BackwardReusesColumnScratchAfterWarmup) {
  nn::Conv2d conv(3, 8, 3, 1, 1);
  std::vector<float> params(conv.param_count()), grads(conv.param_count());
  conv.bind(params, grads, {});
  Rng rng(13);
  conv.init(rng);

  const std::vector<std::size_t> in_shape{2, 3, 8, 8};
  Tensor in(in_shape), din(in_shape);
  Tensor out(conv.output_shape(in_shape)), dout(conv.output_shape(in_shape));
  auto src = random_vec(in.numel(), 17);
  std::copy(src.begin(), src.end(), in.data());
  auto dsrc = random_vec(dout.numel(), 19);
  std::copy(dsrc.begin(), dsrc.end(), dout.data());

  conv.forward(in, out, true);
  conv.backward(in, dout, din);  // warm cols_/dcols_ and the pack scratch
  const std::size_t before = allocations();
  conv.forward(in, out, true);
  conv.backward(in, dout, din);
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Conv2d, BackwardWithoutInputGradientNeverSizesColumnGradient) {
  // Model::train_batch hands its first conv an empty din: that layer's
  // backward must skip the column-gradient scratch entirely and allocate
  // nothing once warm.
  const std::vector<std::size_t> in_shape{2, 3, 8, 8};
  Tensor in(in_shape), din(in_shape);
  auto src = random_vec(in.numel(), 53);
  std::copy(src.begin(), src.end(), in.data());

  const auto make_conv = [](std::vector<float>& params,
                            std::vector<float>& grads) {
    nn::Conv2d conv(3, 8, 3, 1, 1);
    params.assign(conv.param_count(), 0.0f);
    grads.assign(conv.param_count(), 0.0f);
    conv.bind(params, grads, {});
    Rng rng(59);
    conv.init(rng);
    return conv;
  };
  std::vector<float> params, grads, twin_params, twin_grads;
  nn::Conv2d conv = make_conv(params, grads);
  Tensor out(conv.output_shape(in_shape)), dout(conv.output_shape(in_shape));
  auto dsrc = random_vec(dout.numel(), 61);
  std::copy(dsrc.begin(), dsrc.end(), dout.data());

  // A full backward on a same-shaped twin warms the thread-local GEMM pack
  // buffers, so only the layer's own scratch is left to count.
  nn::Conv2d twin = make_conv(twin_params, twin_grads);
  twin.forward(in, out, true);
  twin.backward(in, dout, din);

  Tensor unwanted;
  conv.forward(in, out, true);
  conv.backward(in, dout, unwanted);  // warm cols_
  std::size_t before = allocations();
  conv.forward(in, out, true);
  conv.backward(in, dout, unwanted);
  EXPECT_EQ(allocations() - before, 0u);

  // The first backward that does want din sizes the column-gradient
  // scratch: exactly one allocation, so no earlier call had sized it.
  before = allocations();
  conv.backward(in, dout, din);
  EXPECT_EQ(allocations() - before, 1u);
}

// Random inputs and labels for a (batch, 3, 16, 16) model input.
struct Batch {
  Tensor x;
  std::vector<std::int32_t> y;
};

Batch random_batch(std::size_t batch, std::uint64_t seed) {
  const auto v = random_vec(batch * 3 * 16 * 16, seed);
  Batch b{Tensor({batch, 3, 16, 16}, v), std::vector<std::int32_t>(batch)};
  for (std::size_t i = 0; i < batch; ++i) {
    b.y[i] = static_cast<std::int32_t>((seed + i) % 10);
  }
  return b;
}

// A model that trains at batch 10 and evaluates at 256 and then 144 (a
// 400-sample test set) keeps its activation storage across the swings:
// once warm, the cycle makes no allocation of kLargeAlloc bytes or more.
void expect_cycle_without_large_allocations(nn::Model& model) {
  const auto train = random_batch(10, 71);
  const auto full = random_batch(256, 73);
  const auto tail = random_batch(144, 79);
  const auto cycle = [&] {
    model.zero_grad();
    (void)model.train_batch(train.x, train.y);
    (void)model.evaluate_batch(full.x, full.y);
    (void)model.evaluate_batch(tail.x, tail.y);
    model.zero_grad();
    (void)model.train_batch(train.x, train.y);
  };
  cycle();  // warm the activations, scratch and GEMM pack buffers
  const std::size_t before = large_allocations();
  cycle();
  cycle();
  EXPECT_EQ(large_allocations() - before, 0u);
}

TEST(Model, TinyCnnTrainEvalCycleMakesNoLargeAllocation) {
  auto model = nn::make_tiny_cnn(3, 16, 10, /*seed=*/67);
  expect_cycle_without_large_allocations(model);
}

TEST(Model, TinyResnetTrainEvalCycleMakesNoLargeAllocation) {
  // Covers ResidualBlock's persistent forward and backward scratch.
  auto model = nn::make_tiny_resnet(3, 16, 10, /*seed=*/83);
  expect_cycle_without_large_allocations(model);
}

TEST(Model, EvaluationNeverSizesGradientTensors) {
  // An evaluation at a new batch size grows the activations only, so the
  // first training step at that size still has its gradient tensors to
  // size.  A twin that already trained at that size has warmed the
  // thread-local GEMM pack buffers, so only the model's own tensors are
  // left to count.
  const auto train = random_batch(10, 97);
  const auto full = random_batch(256, 101);
  auto twin = nn::make_tiny_cnn(3, 16, 10, /*seed=*/89);
  (void)twin.train_batch(full.x, full.y);

  auto model = nn::make_tiny_cnn(3, 16, 10, /*seed=*/89);
  (void)model.train_batch(train.x, train.y);
  (void)model.evaluate_batch(full.x, full.y);
  const std::size_t before = large_allocations();
  (void)model.train_batch(full.x, full.y);
  EXPECT_GT(large_allocations() - before, 0u);
}

TEST(Model, BuffersAreAViewThatAllocatesNothing) {
  auto model = nn::make_tiny_resnet(3, 16, 10, /*seed=*/103);
  const std::size_t before = allocations();
  const auto buffers = model.buffers();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(buffers.size(), model.buffer_count());
  EXPECT_GT(buffers.size(), 0u);
}

TEST(Engine, FirstStepsOfFreshWorkersMakeNoLargeAllocation) {
  // A serial engine runs every local step on one executor and every eval
  // block on another, whichever worker's state they are bound to.  Once
  // worker 0's first step and the first eval point (batches of 256 and 144)
  // have warmed them, the first steps of the other 31 workers and a second
  // eval point make no allocation of kLargeAlloc bytes or more: no worker
  // sizes activations of its own.
  constexpr std::size_t kWorkers = 32;
  const auto train = data::make_cifar_like(kWorkers * 20, 107, 16);
  const auto test = data::make_cifar_like(400, 107, 16);
  sim::SimConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_size = 10;
  cfg.seed = 109;
  sim::Engine engine(
      cfg, train, test, [] { return nn::make_tiny_cnn(3, 16, 10, 109); },
      std::nullopt);
  (void)engine.sgd_step(0, 0);
  (void)engine.eval_point(0, 0.0);
  const std::size_t before = large_allocations();
  for (std::size_t w = 1; w < kWorkers; ++w) (void)engine.sgd_step(w, 0);
  (void)engine.eval_point(1, 1.0);
  EXPECT_EQ(large_allocations() - before, 0u);
}

TEST(Engine, ConstructionCopiesNoTrainingSample) {
  // An engine borrows its training set: each shard is the partitioner's
  // index list into it.  Building one over the cifar stand-in (150 samples
  // per worker) allocates the index lists, the replica slots and the
  // fabric, all told fewer bytes than the set's features — a per-shard
  // copy of the samples alone would allocate as many.
  constexpr std::size_t kWorkers = 8;
  const auto train = data::make_cifar_like(kWorkers * 150, 113, 16);
  const auto test = data::make_cifar_like(100, 113, 16);
  sim::SimConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_size = 10;
  cfg.seed = 127;
  const std::size_t before = allocated_bytes();
  const sim::Engine engine(
      cfg, train, test, [] { return nn::make_tiny_cnn(3, 16, 10, 127); },
      std::nullopt);
  const std::size_t bytes = allocated_bytes() - before;
  EXPECT_LT(bytes, train.size() * train.sample(0).size() * sizeof(float));
}

TEST(Fabric, ConstructionAllocatesAtMost64BytesPerNode) {
  // A population-scale fabric has a node per client, but only the cohort
  // exchanges frames.  Building one allocates the link counters, staging
  // lanes and mailbox slots, 64 bytes a node; a mailbox (about 700 bytes)
  // waits for its node's first delivery, and popping a never-touched node
  // allocates nothing.
  for (const std::size_t nodes : {std::size_t{1000}, std::size_t{100000}}) {
    const std::size_t before = allocated_bytes();
    sim::Fabric fabric{net::LinkModel(nodes)};
    const std::size_t built = allocated_bytes();
    EXPECT_LE(built - before, 64 * nodes) << nodes << " nodes";
    EXPECT_FALSE(fabric.recv(nodes - 1).has_value());
    EXPECT_EQ(allocated_bytes(), built) << nodes << " nodes";
  }
}

TEST(Coordinator, ReputationPlanAllocatesByTheLiveWorkers) {
  // A cohort run at population scale hands the coordinator a handful of
  // live workers.  Without a bandwidth matrix the reputation strategy
  // matches over them: its graph and weight table are cohort-sized, and
  // only the plan itself (a peer per worker) is population-sized.
  constexpr std::size_t kPopulation = 4000;
  core::CoordinatorConfig cfg;
  cfg.strategy = core::SelectionStrategy::kAdaptiveReputation;
  core::Coordinator coord(kPopulation, std::nullopt, cfg);
  coord.set_trust_provider([](std::size_t) { return 1.0; });
  const std::vector<std::size_t> live = {3,    17,   250,  999,
                                         1000, 2048, 3500, 3999};
  coord.set_active(live);
  (void)coord.begin_round();  // warm-up
  const std::size_t before = allocated_bytes();
  const auto plan = coord.begin_round();
  EXPECT_LE(allocated_bytes() - before, 64 * kPopulation);
  EXPECT_NE(plan.gossip.peer(3), 3u);
}

TEST(ReputationMonitor, EndRoundAllocatesNothingOnceWarm) {
  // A cohort run stages a few observations a round into a monitor over the
  // whole population.  Once its scratch has held a round's observations,
  // the fold allocates nothing, whatever the population.
  constexpr std::size_t kPopulation = 100000;
  constexpr std::size_t kObservations = 8;
  core::ReputationMonitor monitor(kPopulation);
  const auto received = random_vec(64, 31);
  const auto reference = random_vec(64, 37);
  const auto stage = [&](std::size_t round) {
    for (std::size_t i = 0; i < kObservations; ++i) {
      const std::size_t observer = (round * 7919 + i * 12553) % kPopulation;
      monitor.observe(observer, (i % 3) * 33331, received, reference);
    }
  };
  stage(0);
  monitor.end_round();  // warm-up
  stage(1);
  const std::size_t before = allocations();
  monitor.end_round();
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Gemm, PackScratchIsReusedAcrossCalls) {
  const std::size_t m = 16, k = 144, n = 64;
  const auto a = random_vec(m * k, 23);
  const auto b = random_vec(k * n, 29);
  std::vector<float> c(m * n);
  ops::gemm(a, b, c, m, k, n);  // warm the thread-local packing buffers
  const std::size_t before = allocations();
  for (int i = 0; i < 3; ++i) ops::gemm(a, b, c, m, k, n);
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace saps
