// The message plane: a router through which every inter-worker and
// worker↔coordinator exchange flows as an ENCODED wire message
// (net/wire.hpp), with traffic charged from the message's own wire_bytes()
// instead of hand-computed byte constants at call sites.
//
// The fabric owns two things:
//  - DELIVERY: one FIFO mailbox per node.  send() serializes the message and
//    pushes the bytes into the destination's mailbox; recv() pops without
//    blocking and the receiver decodes with the matching MsgType.
//  - the CONTROL LEDGER (control_bytes()), and no other: every data-plane
//    and compute charge goes straight to the net::LinkModel, the round's
//    only ledger, which folds its per-node lanes in fixed (source, then
//    send order) order at end_round(), so traffic sums and the event-
//    timeline round time are bit-identical for every thread count.
//
// Concurrency contract (mirrors docs/ARCHITECTURE.md "Threading model"):
// data-plane send()/recv() and compute() may be called from engine parallel
// sections as long as each task owns a DISJOINT set of source nodes (and of
// receiving mailboxes) — e.g. one task per gossip pair or per worker.  Each
// mailbox is guarded by its own mutex; the link model's per-node lanes are
// race-free exactly under that ownership discipline.  The control plane
// (send_control) is serial coordinator-side code; control bytes are counted
// separately and never enter worker traffic or round time, matching the
// paper's accounting (control traffic is reported only to show it is
// negligible).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "net/link_model.hpp"

namespace saps::sim {

/// One delivered frame: the sending node and the encoded bytes.
struct Envelope {
  std::size_t from = 0;
  std::vector<std::uint8_t> payload;
};

/// A message encoded once for repeated sending: the byte frame plus the
/// traffic charge captured from wire_bytes() at encode time.  Ring
/// all-gathers forward the same chunk n−1 times; pre-encoding stops them
/// from re-serializing (and re-charging computation, not bytes) at every
/// hop.  Byte accounting is unchanged by construction: send_frame() charges
/// exactly what send() would have charged for the same message.
struct EncodedFrame {
  double charged = 0.0;
  std::vector<std::uint8_t> bytes;
};

/// Encodes `msg` into a reusable frame.
template <typename Msg>
[[nodiscard]] EncodedFrame pre_encode(const Msg& msg) {
  return {msg.wire_bytes(), msg.encode()};
}

class Fabric {
 public:
  explicit Fabric(net::LinkModel link);
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::size_t nodes() const noexcept { return link_.workers(); }
  [[nodiscard]] net::LinkModel& link() noexcept { return link_; }
  [[nodiscard]] const net::LinkModel& link() const noexcept { return link_; }

  /// True when every data frame is delivered exactly once, unmodified, with
  /// its exact charge — i.e. the plain fabric, or a fault wrapper whose
  /// knobs are all zero.  Algorithms use this to keep their strict
  /// exactly-one-message receive validation on the default path and switch
  /// to loss-tolerant draining only when faults can actually fire.
  [[nodiscard]] virtual bool transparent() const noexcept { return true; }

  /// Opens a communication round on the link model.
  virtual void begin_round() { link_.start_round(); }

  /// Charges node's modeled local-compute time (LinkOptions) to the current
  /// round; adds nothing when the compute model is disabled.  Callable from
  /// parallel sections under the per-node ownership discipline.
  void compute(std::size_t node) {
    link_.compute(node, link_.modeled_compute(node));
  }

  /// Data plane: encodes, delivers to dst's mailbox, and charges
  /// msg.wire_bytes() to src's lane of the link model.
  template <typename Msg>
  void send(std::size_t src, std::size_t dst, const Msg& msg) {
    post(src, dst, msg.wire_bytes(), msg.encode());
  }

  /// As send() to every destination in `dsts`: encodes ONCE and reuses the
  /// bytes (each mailbox still gets its own copy); the per-recipient charge
  /// is unchanged.  Use when one payload fans out — ring neighbors, server
  /// broadcasts.
  template <typename Msg>
  void multicast(std::size_t src, std::span<const std::size_t> dsts,
                 const Msg& msg) {
    if (dsts.empty()) return;
    const double charged = msg.wire_bytes();
    auto bytes = msg.encode();
    for (std::size_t k = 0; k + 1 < dsts.size(); ++k) {
      post(src, dsts[k], charged, bytes);  // copies
    }
    post(src, dsts.back(), charged, std::move(bytes));
  }

  /// Data plane: delivers a pre-encoded frame (copying its bytes into dst's
  /// mailbox) and charges what was captured at encode time — byte-for-byte
  /// and charge-for-charge identical to send() of the original message.
  void send_frame(std::size_t src, std::size_t dst, const EncodedFrame& frame) {
    post(src, dst, frame.charged, frame.bytes);
  }

  /// Control plane: encodes and delivers like send(), but charges
  /// msg.wire_bytes() to the control-byte counter only — control messages
  /// never enter worker traffic statistics or round time.  Serial only.
  template <typename Msg>
  void send_control(std::size_t src, std::size_t dst, const Msg& msg) {
    post_control(src, dst, msg.wire_bytes(), msg.encode());
  }

  /// Non-blocking pop of `node`'s oldest frame; nullopt when its mailbox is
  /// empty or was never touched.  Throws std::out_of_range on a bad node.
  [[nodiscard]] std::optional<Envelope> recv(std::size_t node);

  /// Closes the round: the link model folds its lanes in fixed (node, then
  /// per-source send order) order and returns the round's event-timeline
  /// seconds.
  double end_round() { return link_.finish_round(); }

  /// Cumulative control-plane bytes (both directions).
  [[nodiscard]] double control_bytes() const noexcept { return control_bytes_; }

 protected:
  /// The single data-plane choke point every send()/multicast()/send_frame()
  /// funnels through.  Derived fabrics (sim::FaultyFabric) override it to
  /// drop, duplicate, delay, or rewrite frames; the base implementation is
  /// validate + link().transfer + deliver.  The control plane (post_control)
  /// deliberately does NOT route through here: coordinator control traffic
  /// models a reliable side channel and is never faulted.
  virtual void post(std::size_t src, std::size_t dst, double charged,
                    std::vector<std::uint8_t> payload);

  /// Validates endpoints and the open-round invariant; throws otherwise.
  void check_post(std::size_t src, std::size_t dst) const;

  /// Pushes payload bytes into dst's mailbox (thread-safe).
  void deliver(std::size_t src, std::size_t dst,
               std::vector<std::uint8_t> payload);

 private:
  struct Mailbox {
    std::mutex mutex;
    std::queue<Envelope> queue;
  };

  void post_control(std::size_t src, std::size_t dst, double charged,
                    std::vector<std::uint8_t> payload);

  net::LinkModel link_;
  // One mailbox per node, allocated on its first delivery: a population-
  // scale fabric has a node per client, but only the cohort exchanges
  // frames.  A published mailbox lives until ~Fabric.
  std::vector<std::atomic<Mailbox*>> mailboxes_;
  std::mutex alloc_mutex_;  // serializes first deliveries
  double control_bytes_ = 0.0;
};

}  // namespace saps::sim
