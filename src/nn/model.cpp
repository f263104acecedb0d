#include "nn/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"

namespace saps::nn {

void Model::add(std::unique_ptr<Layer> layer) {
  if (built_) throw std::logic_error("Model::add after build");
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  layers_.push_back(std::move(layer));
}

void Model::build(std::vector<std::size_t> input_shape, std::uint64_t seed) {
  if (built_) throw std::logic_error("Model::build called twice");
  if (layers_.empty()) throw std::logic_error("Model::build: no layers");
  input_shape_ = std::move(input_shape);

  std::size_t total = 0, total_buffers = 0;
  for (const auto& layer : layers_) {
    total += layer->param_count();
    total_buffers += layer->buffer_count();
  }
  own_params_.assign(total, 0.0f);
  own_grads_.assign(total, 0.0f);
  own_buffers_.assign(total_buffers, 0.0f);
  bind_layers(own_params_, own_grads_, own_buffers_);

  Rng rng(seed);
  for (const auto& layer : layers_) layer->init(rng);
  first_trainable_ = 0;
  while (first_trainable_ < layers_.size() &&
         layers_[first_trainable_]->param_count() == 0) {
    ++first_trainable_;
  }

  // Validate that shapes chain correctly (throws early on a bad stack).
  std::vector<std::size_t> shape = input_shape_;
  shape.insert(shape.begin(), 1);  // batch=1 probe
  for (const auto& layer : layers_) shape = layer->output_shape(shape);
  if (shape.size() != 2) {
    throw std::logic_error("Model: final layer must produce (B, classes)");
  }
  built_ = true;
}

void Model::bind_layers(std::span<float> params, std::span<float> grads,
                        std::span<float> buffers) {
  std::size_t off = 0, buf_off = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count(), nb = layer->buffer_count();
    layer->bind(params.subspan(off, n), grads.subspan(off, n),
                buffers.subspan(buf_off, nb));
    off += n;
    buf_off += nb;
  }
  params_ = params;
  grads_ = grads;
  buffers_ = buffers;
}

void Model::bind(std::span<float> params, std::span<float> grads,
                 std::span<float> buffers) {
  if (!built_) throw std::logic_error("Model::bind before build");
  if (params.size() != params_.size() || grads.size() != params_.size() ||
      buffers.size() != buffers_.size()) {
    throw std::invalid_argument("Model::bind: span size mismatch");
  }
  bind_layers(params, grads, buffers);
}

void Model::zero_grad() noexcept {
  for (auto& g : grads_) g = 0.0f;
}

void Model::ensure_activations(
    const std::vector<std::size_t>& batch_input_shape) {
  // forward() has checked the per-sample shape, so the batch size alone
  // keys the cache.  resize keeps each tensor's storage: a model that
  // alternates between batch sizes reallocates nothing once it has seen the
  // largest.
  const std::size_t batch = batch_input_shape[0];
  if (cached_batch_ == batch) return;
  acts_.resize(layers_.size());
  std::vector<std::size_t> shape = batch_input_shape;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    shape = layers_[i]->output_shape(shape);
    acts_[i].resize(shape);
  }
  cached_batch_ = batch;
}

void Model::ensure_gradients() {
  // Backward writes the input gradient of every layer after the first
  // trainable one: dacts_[i] for i in [first_trainable_, size - 1).  The
  // logits' gradient is dlogits_.
  dacts_.resize(layers_.size());
  for (std::size_t i = first_trainable_; i + 1 < layers_.size(); ++i) {
    dacts_[i].resize(acts_[i].shape());
  }
  dlogits_.resize(acts_.back().shape());
}

const Tensor& Model::forward(const Tensor& x, bool train) {
  if (!built_) throw std::logic_error("Model::forward before build");
  const auto& shape = x.shape();
  if (shape.size() != input_shape_.size() + 1 ||
      !std::equal(input_shape_.begin(), input_shape_.end(),
                  shape.begin() + 1)) {
    throw std::invalid_argument("Model::forward: input " + x.shape_str() +
                                " does not match the built sample shape");
  }
  ensure_activations(shape);
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*cur, acts_[i], train);
    cur = &acts_[i];
  }
  return acts_.back();
}

double Model::train_batch(const Tensor& x,
                          std::span<const std::int32_t> labels) {
  const Tensor& logits = forward(x, /*train=*/true);
  ensure_gradients();
  const double loss = softmax_cross_entropy(logits, labels, dlogits_);

  // Backward through the stack.  Layer i reads its input: acts_[i-1] (or x),
  // and writes its input gradient into dacts_[i-1].  Nothing reads the
  // input gradient of the first layer with parameters, and the layers in
  // front of it have no gradients to accumulate, so the pass stops there
  // and hands that layer an empty din (Layer::backward: not wanted).
  const Tensor* dout = &dlogits_;
  for (std::size_t i = layers_.size(); i-- > first_trainable_;) {
    const Tensor& in = (i == 0) ? x : acts_[i - 1];
    if (i == first_trainable_) {
      Tensor unwanted;
      layers_[i]->backward(in, *dout, unwanted);
      break;
    }
    Tensor& din_prev = dacts_[i - 1];
    layers_[i]->backward(in, *dout, din_prev);
    dout = &din_prev;
  }
  return loss;
}

Model::EvalResult Model::evaluate_batch(const Tensor& x,
                                        std::span<const std::int32_t> labels) {
  const Tensor& logits = forward(x, /*train=*/false);
  return {softmax_cross_entropy_loss(logits, labels),
          correct_count(logits, labels)};
}

void Model::set_buffers(std::span<const float> state) {
  if (state.size() != buffers_.size()) {
    throw std::invalid_argument("Model::set_buffers: state size mismatch");
  }
  std::copy(state.begin(), state.end(), buffers_.begin());
}

}  // namespace saps::nn
