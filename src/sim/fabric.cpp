#include "sim/fabric.hpp"

#include <stdexcept>

namespace saps::sim {

Fabric::Fabric(net::LinkModel link)
    : link_(std::move(link)), mailboxes_(link_.workers()) {}

Fabric::~Fabric() {
  for (auto& box : mailboxes_) delete box.load(std::memory_order_relaxed);
}

void Fabric::check_post(std::size_t src, std::size_t dst) const {
  if (!link_.in_round()) throw std::logic_error("Fabric: send outside round");
  if (src >= nodes() || dst >= nodes() || src == dst) {
    throw std::invalid_argument("Fabric: bad endpoints");
  }
}

void Fabric::post(std::size_t src, std::size_t dst, double charged,
                  std::vector<std::uint8_t> payload) {
  check_post(src, dst);
  link_.transfer(src, dst, charged);
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

}  // namespace saps::sim
