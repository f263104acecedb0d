// Built-in workload registrations: the paper's three Table II workloads
// (scaled by the shared context, --full restores paper scale), the blobs
// workload the test suites train on, and the real-MNIST workload (IDX files
// with the documented synthetic fallback, docs/ARCHITECTURE.md "Synthetic
// stand-ins").
#include "data/cifar_loader.hpp"
#include "data/mnist_loader.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

namespace saps::scenario::detail {

namespace {

// Paper workloads differ only in dataset generator, Table II learning rate
// and model family; one helper covers all three.
Workload make_paper_workload(const std::string& which,
                             const WorkloadContext& ctx) {
  Workload w;
  const std::size_t train_n = ctx.samples_per_worker * ctx.workers;
  const std::size_t test_n = ctx.test_samples;
  const std::uint64_t seed = ctx.seed;

  if (which == "mnist") {
    w.display_name = "MNIST-CNN";
    w.default_lr = 0.05;  // Table II
    const std::size_t img = ctx.full_scale ? 28 : 12;
    w.train = data::make_mnist_like(train_n, derive_seed(seed, 1), img);
    w.test = data::make_mnist_like(test_n, derive_seed(seed, 1), img);
    if (ctx.full_scale) {
      w.factory = [seed] { return nn::make_mnist_cnn(seed); };
    } else {
      w.factory = [seed, img] { return nn::make_tiny_cnn(1, img, 10, seed); };
    }
  } else if (which == "cifar") {
    w.display_name = "CIFAR10-CNN";
    w.default_lr = 0.04;  // Table II
    const std::size_t img = ctx.full_scale ? 32 : 16;
    w.train = data::make_cifar_like(train_n, derive_seed(seed, 2), img);
    w.test = data::make_cifar_like(test_n, derive_seed(seed, 2), img);
    if (ctx.full_scale) {
      w.factory = [seed] { return nn::make_cifar_cnn(seed); };
    } else {
      w.factory = [seed, img] { return nn::make_tiny_cnn(3, img, 10, seed); };
    }
  } else {  // "resnet"
    w.display_name = "ResNet-20";
    w.default_lr = 0.1;  // Table II
    const std::size_t img = ctx.full_scale ? 32 : 16;
    w.train = data::make_cifar_like(train_n, derive_seed(seed, 3), img);
    w.test = data::make_cifar_like(test_n, derive_seed(seed, 3), img);
    if (ctx.full_scale) {
      w.factory = [seed] { return nn::make_resnet20(seed); };
    } else {
      w.factory = [seed, img] {
        return nn::make_tiny_resnet(3, img, 10, seed);
      };
    }
  }
  return w;
}

}  // namespace

void register_workloads(Registry& r) {
  r.add_workload(
      {.key = "mnist",
       .summary = "MNIST-CNN (synthetic stand-in; 28px CNN under --full)",
       .make = [](const ParamSet&, const WorkloadContext& ctx) {
         return make_paper_workload("mnist", ctx);
       }});
  r.add_workload(
      {.key = "cifar",
       .summary = "CIFAR10-CNN (synthetic stand-in; 32px CNN under --full)",
       .make = [](const ParamSet&, const WorkloadContext& ctx) {
         return make_paper_workload("cifar", ctx);
       }});
  r.add_workload(
      {.key = "resnet",
       .summary = "ResNet-20 (synthetic stand-in; full model under --full)",
       .make = [](const ParamSet&, const WorkloadContext& ctx) {
         return make_paper_workload("resnet", ctx);
       }});

  // The test suites' Gaussian-blobs MLP workload; absolute sample counts
  // (not per-worker), so the fast-mode sample heuristics do not apply.
  r.add_workload(
      {.key = "blob",
       .summary = "Gaussian blobs + MLP (the test suites' workload)",
       .in_paper_set = false,
       .scales_with_samples = false,
       .params =
           {{.name = "blob-train",
             .type = ParamType::kInt,
             .default_value = "640",
             .min_value = 1,
             .max_value = 1e9,
             .help = "blob workload: total training samples (default 640)"},
            {.name = "blob-test",
             .type = ParamType::kInt,
             .default_value = "160",
             .min_value = 1,
             .max_value = 1e9,
             .help = "blob workload: test samples (default 160)"},
            {.name = "blob-features",
             .type = ParamType::kInt,
             .default_value = "8",
             .min_value = 1,
             .max_value = 1e6,
             .help = "blob workload: feature dimension (default 8)"},
            {.name = "blob-classes",
             .type = ParamType::kInt,
             .default_value = "4",
             .min_value = 2,
             .max_value = 1e4,
             .help = "blob workload: class count (default 4)"},
            {.name = "blob-noise",
             .type = ParamType::kDouble,
             .default_value = "0.3",
             .min_value = 0,
             .max_value = 1e3,
             .help = "blob workload: cluster noise (default 0.3)"},
            {.name = "blob-data-seed",
             .type = ParamType::kUint,
             .default_value = "300",
             .help = "blob workload: dataset RNG seed (default 300)"},
            {.name = "blob-hidden",
             .type = ParamType::kInt,
             .default_value = "16",
             .min_value = 1,
             .max_value = 1e6,
             .help = "blob workload: MLP hidden width (default 16)"}},
       .make = [](const ParamSet& p, const WorkloadContext& ctx) {
         Workload w;
         w.display_name = "Blob-MLP";
         w.default_lr = 0.05;
         const auto features =
             static_cast<std::size_t>(p.get_int("blob-features"));
         const auto classes =
             static_cast<std::size_t>(p.get_int("blob-classes"));
         const auto hidden =
             static_cast<std::size_t>(p.get_int("blob-hidden"));
         const auto data_seed = p.get_uint("blob-data-seed");
         const double noise = p.get_double("blob-noise");
         w.train = data::make_blobs(
             static_cast<std::size_t>(p.get_int("blob-train")), features,
             classes, noise, data_seed);
         w.test = data::make_blobs(
             static_cast<std::size_t>(p.get_int("blob-test")), features,
             classes, noise, data_seed);
         const auto seed = ctx.seed;
         w.factory = [features, hidden, classes, seed] {
           return nn::make_mlp({features}, {hidden}, classes, seed);
         };
         return w;
       }});

  // Real MNIST from IDX files, with the exact synthetic substitution
  // documented in docs/ARCHITECTURE.md ("Synthetic stand-ins") when the files
  // are absent.
  r.add_workload(
      {.key = "real-mnist",
       .summary = "real MNIST from IDX files (synthetic stand-in fallback)",
       .in_paper_set = false,
       .params = {{.name = "mnist-dir",
                   .type = ParamType::kString,
                   .default_value = "data/mnist",
                   .help = "directory with the MNIST idx files (real-mnist "
                           "workload)"}},
       .make = [](const ParamSet& p, const WorkloadContext& ctx) {
         Workload w;
         const auto& dir = p.get_string("mnist-dir");
         auto train = data::load_mnist_train(dir);
         auto test = data::load_mnist_test(dir);
         const auto seed = ctx.seed;
         if (train.has_value() && test.has_value()) {
           w.display_name = "MNIST-CNN(real)";
           w.train = std::move(*train);
           w.test = std::move(*test);
           w.factory = [seed] { return nn::make_mnist_cnn(seed); };
           w.preferred_batch = 50;  // paper's Table II batch for MNIST
         } else {
           w.display_name = "MNIST-CNN(synthetic)";
           w.note = "MNIST IDX files not found under '" + dir +
                    "' - using the synthetic stand-in (docs/ARCHITECTURE.md)";
           const std::size_t img = 12;
           w.train = data::make_mnist_like(
               ctx.samples_per_worker * ctx.workers, seed, img);
           w.test = data::make_mnist_like(ctx.test_samples, seed, img);
           w.factory = [seed, img] {
             return nn::make_tiny_cnn(1, img, 10, seed);
           };
         }
         w.default_lr = 0.05;
         return w;
       }});

  // Real CIFAR-10 from the binary batches, with the same graceful synthetic
  // substitution contract as real-mnist — this is the Table II CIFAR row on
  // actual data once the files are present.
  r.add_workload(
      {.key = "real-cifar",
       .summary = "real CIFAR-10 from binary batches (synthetic fallback)",
       .in_paper_set = false,
       .params = {{.name = "cifar-dir",
                   .type = ParamType::kString,
                   .default_value = "data/cifar",
                   .help = "directory with the CIFAR-10 binary batches "
                           "(real-cifar workload)"}},
       .make = [](const ParamSet& p, const WorkloadContext& ctx) {
         Workload w;
         const auto& dir = p.get_string("cifar-dir");
         auto train = data::load_cifar10_train(dir);
         auto test = data::load_cifar10_test(dir);
         const auto seed = ctx.seed;
         if (train.has_value() && test.has_value()) {
           w.display_name = "CIFAR10-CNN(real)";
           w.train = std::move(*train);
           w.test = std::move(*test);
           w.factory = [seed] { return nn::make_cifar_cnn(seed); };
           w.preferred_batch = 50;  // paper's Table II batch for CIFAR-10
         } else {
           w.display_name = "CIFAR10-CNN(synthetic)";
           w.note = "CIFAR-10 binary batches not found under '" + dir +
                    "' - using the synthetic stand-in (docs/ARCHITECTURE.md)";
           const std::size_t img = 16;
           w.train = data::make_cifar_like(
               ctx.samples_per_worker * ctx.workers, seed, img);
           w.test = data::make_cifar_like(ctx.test_samples, seed, img);
           w.factory = [seed, img] {
             return nn::make_tiny_cnn(3, img, 10, seed);
           };
         }
         w.default_lr = 0.04;  // Table II
         return w;
       }});
}

}  // namespace saps::scenario::detail
