#include "sim/fabric.hpp"

#include <stdexcept>

namespace saps::sim {

Fabric::Fabric(net::LinkModel link)
    : link_(std::move(link)),
      mailboxes_(link_.workers()),
      lanes_(link_.workers()),
      compute_staged_(link_.workers(), 0.0) {}

Fabric::~Fabric() {
  for (auto& box : mailboxes_) delete box.load(std::memory_order_relaxed);
}

void Fabric::begin_round() {
  if (in_round_) throw std::logic_error("Fabric: round already open");
  in_round_ = true;
  link_.start_round();
  for (auto& lane : lanes_) lane.clear();
  std::fill(compute_staged_.begin(), compute_staged_.end(), 0.0);
}

void Fabric::compute(std::size_t node) {
  if (!in_round_) throw std::logic_error("Fabric: compute outside round");
  if (node >= nodes()) throw std::out_of_range("Fabric::compute");
  // Stage (don't apply): parallel callers own disjoint nodes, and the
  // staged values are applied in node order at end_round.
  compute_staged_[node] += link_.modeled_compute(node);
}

void Fabric::check_post(std::size_t src, std::size_t dst) const {
  if (!in_round_) throw std::logic_error("Fabric: send outside round");
  if (src >= nodes() || dst >= nodes() || src == dst) {
    throw std::invalid_argument("Fabric: bad endpoints");
  }
}

void Fabric::post(std::size_t src, std::size_t dst, double charged,
                  std::vector<std::uint8_t> payload) {
  check_post(src, dst);
  stage_charge(src, dst, charged);
  deliver(src, dst, std::move(payload));
}

void Fabric::post_control(std::size_t src, std::size_t dst, double charged,
                          std::vector<std::uint8_t> payload) {
  if (src >= nodes() || dst >= nodes() || src == dst) {
    throw std::invalid_argument("Fabric: bad endpoints");
  }
  control_bytes_ += charged;
  deliver(src, dst, std::move(payload));
}

void Fabric::deliver(std::size_t src, std::size_t dst,
                     std::vector<std::uint8_t> payload) {
  auto& slot = mailboxes_[dst];
  Mailbox* box = slot.load(std::memory_order_acquire);
  if (box == nullptr) {
    // First touch, checked again under the lock: concurrent first senders
    // to one node (say, uploads to the server) must publish one mailbox.
    std::lock_guard lock(alloc_mutex_);
    box = slot.load(std::memory_order_relaxed);
    if (box == nullptr) {
      box = new Mailbox();
      slot.store(box, std::memory_order_release);
    }
  }
  std::lock_guard lock(box->mutex);
  box->queue.push(Envelope{src, std::move(payload)});
}

std::optional<Envelope> Fabric::recv(std::size_t node) {
  if (node >= nodes()) throw std::out_of_range("Fabric::recv");
  // A never-touched mailbox holds no mail; popping it allocates nothing.
  Mailbox* box = mailboxes_[node].load(std::memory_order_acquire);
  if (box == nullptr) return std::nullopt;
  std::lock_guard lock(box->mutex);
  if (box->queue.empty()) return std::nullopt;
  Envelope env = std::move(box->queue.front());
  box->queue.pop();
  return env;
}

double Fabric::end_round() {
  if (!in_round_) throw std::logic_error("Fabric: no open round");
  in_round_ = false;
  // Fixed application order — node-ascending, then per-source send order —
  // regardless of which pool thread staged what, so the float accumulations
  // inside the link model are thread-count invariant.
  for (std::size_t node = 0; node < nodes(); ++node) {
    if (compute_staged_[node] > 0.0) link_.compute(node, compute_staged_[node]);
  }
  for (std::size_t src = 0; src < nodes(); ++src) {
    for (const auto& staged : lanes_[src]) {
      link_.transfer(src, staged.dst, staged.bytes, staged.extra_seconds);
    }
  }
  return link_.finish_round();
}

}  // namespace saps::sim
