#include "core/worker.hpp"

#include <stdexcept>

#include "algos/algorithm.hpp"

namespace saps::core {

SapsWorker::SapsWorker(sim::Engine& engine, std::size_t rank,
                       double compression)
    : engine_(&engine), rank_(rank), peer_(rank) {
  if (rank >= engine.workers()) throw std::out_of_range("SapsWorker: rank");
  if (compression < 1.0) {
    throw std::invalid_argument("SapsWorker: compression < 1");
  }
}

double SapsWorker::local_train(std::size_t epoch) {
  return engine_->sgd_step(rank_, epoch);
}

void SapsWorker::begin_round(sim::Fabric& fabric, std::uint32_t round) {
  // Stale notifications can be queued from rounds this worker sat out
  // (dropout); the coordinator broadcasts to everyone each round, so drain
  // until this round's NotifyMsg surfaces.
  while (auto env = fabric.recv(rank_)) {
    const auto note = net::NotifyMsg::decode(env->payload);
    if (note.round == round) {
      round_ = note.round;
      mask_seed_ = note.mask_seed;
      peer_ = note.peer;
      return;
    }
    if (note.round > round) {
      throw std::logic_error("SapsWorker: notification from the future");
    }
  }
  throw std::logic_error("SapsWorker: missing round notification");
}

void SapsWorker::send_model(sim::Fabric& fabric,
                            std::span<const std::uint8_t> mask) {
  if (peer_ == rank_) return;  // unmatched this round
  net::MaskedModelMsg msg;
  msg.mask_seed = mask_seed_;
  msg.round = round_;
  msg.values = sparsified_model(mask);
  fabric.send(rank_, peer_, msg);
}

void SapsWorker::receive_and_merge(sim::Fabric& fabric,
                                   std::span<const std::uint8_t> mask) {
  if (peer_ == rank_) return;
  // Under faults the peer's frame may be dropped (the masked coordinates
  // then skip this round's average) or duplicated (the first one merges).
  const std::size_t peer[] = {peer_};
  algos::receive_expected(
      fabric, rank_, peer, "SapsWorker",
      [&](std::size_t, const sim::Envelope& env) {
        const auto msg = net::MaskedModelMsg::decode(env.payload);
        if (msg.mask_seed != mask_seed_ || msg.round != round_) return false;
        if (reputation_ != nullptr) {
          reputation_->observe(rank_, peer_, msg.values,
                               sparsified_model(mask));
        }
        merge_peer(mask, msg.values);
        return true;
      });
}

std::vector<float> SapsWorker::sparsified_model(
    std::span<const std::uint8_t> mask) const {
  return compress::extract_masked(engine_->params(rank_), mask);
}

void SapsWorker::merge_peer(std::span<const std::uint8_t> mask,
                            std::span<const float> peer_values) {
  compress::average_masked_inplace(engine_->params(rank_), mask, peer_values);
}

}  // namespace saps::core
