#include "sim/transport.hpp"

#include <stdexcept>

namespace saps::sim {

Transport::Transport(std::size_t endpoints) : slots_(endpoints) {
  if (endpoints < 2) throw std::invalid_argument("Transport: endpoints < 2");
}

Transport::~Transport() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
}

Transport::Mailbox& Transport::box(std::size_t id) {
  if (id >= slots_.size()) throw std::out_of_range("Transport: endpoint id");
  if (auto* mb = slots_[id].load(std::memory_order_acquire)) return *mb;
  std::lock_guard lock(alloc_mutex_);
  auto* mb = slots_[id].load(std::memory_order_relaxed);
  if (mb == nullptr) {
    mb = new Mailbox();
    slots_[id].store(mb, std::memory_order_release);
  }
  return *mb;
}

Transport::Mailbox* Transport::peek(std::size_t id) const {
  if (id >= slots_.size()) throw std::out_of_range("Transport: endpoint id");
  return slots_[id].load(std::memory_order_acquire);
}

std::size_t Transport::allocated_mailboxes() const noexcept {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

void Transport::send(std::size_t from, std::size_t to,
                     std::vector<std::uint8_t> payload) {
  if (from >= slots_.size()) throw std::out_of_range("Transport: sender id");
  if (down_.load(std::memory_order_acquire)) {
    throw std::logic_error("Transport: send after shutdown");
  }
  auto& mailbox = box(to);
  {
    std::lock_guard stats_lock(stats_mutex_);
    total_bytes_ += static_cast<double>(payload.size());
  }
  {
    std::lock_guard lock(mailbox.mutex);
    mailbox.queue.push(Envelope{from, std::move(payload)});
  }
  mailbox.cv.notify_one();
}

std::optional<Envelope> Transport::recv(std::size_t to) {
  // Blocking receive must materialize the box: the caller parks on its cv.
  auto& mailbox = box(to);
  std::unique_lock lock(mailbox.mutex);
  mailbox.cv.wait(lock, [&] {
    return !mailbox.queue.empty() || down_.load(std::memory_order_acquire);
  });
  if (mailbox.queue.empty()) return std::nullopt;
  Envelope env = std::move(mailbox.queue.front());
  mailbox.queue.pop();
  return env;
}

std::optional<Envelope> Transport::try_recv(std::size_t to) {
  // A never-touched mailbox cannot hold mail; stay allocation-free.
  auto* mailbox = peek(to);
  if (mailbox == nullptr) return std::nullopt;
  std::lock_guard lock(mailbox->mutex);
  if (mailbox->queue.empty()) return std::nullopt;
  Envelope env = std::move(mailbox->queue.front());
  mailbox->queue.pop();
  return env;
}

void Transport::shutdown() {
  down_.store(true, std::memory_order_release);
  // Only materialized boxes can have waiters; never allocate here.  The
  // alloc mutex orders this scan against concurrent materialization: a box
  // allocated before the scan gets notified, one allocated after observes
  // down_ (published by the mutex hand-off) in its wait predicate.
  std::lock_guard lock(alloc_mutex_);
  for (auto& slot : slots_) {
    auto* mb = slot.load(std::memory_order_acquire);
    if (mb == nullptr) continue;
    // Passing through the box mutex closes the lost-wakeup window: a
    // receiver that read down_ == false in its predicate holds this mutex
    // until it parks, so by the time we acquire it the receiver is either
    // parked (and woken below) or has yet to test the predicate (and will
    // see down_).
    {
      std::lock_guard box_lock(mb->mutex);
    }
    mb->cv.notify_all();
  }
}

double Transport::total_bytes() const {
  std::lock_guard lock(stats_mutex_);
  return total_bytes_;
}

}  // namespace saps::sim
