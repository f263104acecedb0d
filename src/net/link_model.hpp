// Event-driven link model: per-round traffic, latency-aware transfer timing
// and a per-worker compute-time (straggler) model on top of the bandwidth
// matrix.  Replaces the old synchronous-round NetworkSim.
//
// Two of the paper's network-level quantities come from this accounting
// layer:
//  - Fig. 4 / Table IV "traffic": cumulative bytes sent+received per worker;
//  - Fig. 6 / Table IV "communication time": the round's elapsed time.
// Fig. 5's per-round bottleneck bandwidth is not measured here: it is the
// slowest link of the round's matching or ring, from
// gossip::selected_bandwidth (which core::Coordinator::bottleneck_bandwidth
// forwards to) and gossip::RingTopology::bottleneck_bandwidth.
//
// Round time is the critical path over a small event timeline.  Within one
// start_round()/finish_round() window each node first finishes its local
// compute (compute() events raise its ready time), then its outgoing
// transfers start; a transfer src → dst completes at
//
//   ready(src) + latency(src,dst) + bytes / bandwidth(src,dst)
//
// and the receiver's merge fires on arrival (merges are zero-cost events —
// they mark the end of the path).  The round's elapsed time is the maximum
// over all transfer completions and all compute finishes.  With zero latency
// and no compute events this degenerates EXACTLY to the old model (max over
// concurrent transfers of bytes/bandwidth), which is the backward-compatible
// default: zero-latency, uniform-compute runs are bit-identical to the
// pre-event-model accounting (pinned by tests/regression_metrics_test.cpp).
//
// This is the round's only ledger.  Each node has one lane holding its
// compute seconds and its outgoing transfers for the open round; compute()
// and transfer() write only the lane of the node they name, so tasks that
// own disjoint nodes may call them concurrently (sim/fabric.hpp states
// that contract).  finish_round() folds the lanes in ascending source
// order, then call order, and clears each as it goes: traffic sums add up
// in that fixed order whatever thread staged what, so they and the round
// time are bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/bandwidth.hpp"

namespace saps::net {

/// Timing knobs of the event timeline.  All-zero (the default) reproduces
/// the legacy zero-latency synchronous-round accounting bit-for-bit.
struct LinkOptions {
  /// One-way propagation latency added to every transfer, seconds.
  double latency_seconds = 0.0;
  /// Optional per-link one-way latency (row-major src*n+dst seconds, n² =
  /// size) OVERRIDING the scalar for links whose endpoints are both < n.
  /// Nodes beyond the matrix — the virtual parameter server appended by the
  /// engine — fall back to latency_seconds.  Empty (the default) keeps the
  /// uniform-scalar accounting bit-identical to the pre-matrix model.
  std::vector<double> latency_matrix;
  /// Deterministic per-round local-compute cost of every worker, seconds.
  double compute_base_seconds = 0.0;
  /// Straggler jitter: worker w's compute in round r is
  /// compute_base + compute_jitter · u01(compute_seed, r, w).
  double compute_jitter_seconds = 0.0;
  std::uint64_t compute_seed = 0x57a6;
};

class LinkModel {
 public:
  /// Without a bandwidth matrix only traffic (and, when configured, latency
  /// and compute time) is tracked; bandwidth queries throw.
  explicit LinkModel(std::size_t workers, LinkOptions options = {});
  explicit LinkModel(BandwidthMatrix bandwidth, LinkOptions options = {});

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] bool has_bandwidth() const noexcept {
    return bandwidth_.has_value();
  }

  /// Restricts the per-worker statistic (mean worker bytes) to the
  /// first `count` nodes — used when the node set includes a virtual
  /// parameter server whose traffic must not pollute worker-side numbers.
  void set_stat_worker_count(std::size_t count);
  [[nodiscard]] const BandwidthMatrix& bandwidth() const;

  /// Begins a communication round; transfers recorded until finish_round()
  /// are considered concurrent.  Touches no per-node state.
  void start_round();

  /// True between start_round() and finish_round().
  [[nodiscard]] bool in_round() const noexcept { return in_round_; }

  /// Raises node's ready time by `seconds` of local compute; its transfers
  /// in this round start no earlier than its ready time.  Writes only
  /// node's lane.
  void compute(std::size_t node, double seconds);

  /// The compute model's cost for `node` in the CURRENT round (base +
  /// jitter·u01); 0 when the model is disabled.  Deterministic in
  /// (compute_seed, rounds(), node).
  [[nodiscard]] double modeled_compute(std::size_t node) const;

  /// Stages a directional transfer src → dst of `bytes` on src's lane.
  /// src == dst is invalid, and so is a nonzero transfer over a
  /// zero-bandwidth link; both throw here, at the call.  `extra_seconds`
  /// adds fixed in-flight time to this one transfer's completion
  /// (fault-injected frame delay).
  void transfer(std::size_t src, std::size_t dst, double bytes,
                double extra_seconds = 0.0);

  /// Ends the round: folds every lane into the traffic sums and the round
  /// time, and clears it.  Returns the round's elapsed seconds: the event-
  /// timeline critical path (0 when the round has no compute, latency,
  /// delay, or transfer over a bandwidth matrix).  Throws only when no
  /// round is open.
  double finish_round();

  // --- cumulative statistics -----------------------------------------------
  [[nodiscard]] double up_bytes(std::size_t worker) const;
  [[nodiscard]] double down_bytes(std::size_t worker) const;
  /// sent + received for one worker.
  [[nodiscard]] double worker_bytes(std::size_t worker) const;
  [[nodiscard]] double mean_worker_bytes() const;
  [[nodiscard]] double total_seconds() const noexcept { return total_seconds_; }
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }

  /// One-way latency of src → dst under the options (matrix entry when both
  /// endpoints are covered, the uniform scalar otherwise).
  [[nodiscard]] double link_latency(std::size_t src, std::size_t dst) const;

 private:
  struct Transfer {
    std::size_t dst;
    double bytes;
    double extra;  // injected per-frame delay, seconds
    double drain;  // bytes / bandwidth, seconds; 0 without a matrix
  };

  // One node's share of the open round, written only by the node's owner.
  struct Lane {
    double compute = 0.0;       // ready time: compute seconds, call order
    std::vector<Transfer> out;  // outgoing transfers, call order
  };

  std::size_t workers_;
  std::size_t stat_workers_ = 0;  // 0 = all
  LinkOptions options_;
  std::size_t matrix_side_ = 0;  // 0 = no latency matrix
  std::optional<BandwidthMatrix> bandwidth_;
  std::vector<double> up_, down_;
  std::vector<Lane> lanes_;  // one per node; empty outside a round
  bool in_round_ = false;
  double total_seconds_ = 0.0;
  std::size_t rounds_ = 0;
};

/// Index of the node with the highest mean link bandwidth to all others —
/// the paper's server choice for FedAvg/S-FedAvg in the Fig. 6 comparison
/// ("choosing the server that has the maximum bandwidth").
[[nodiscard]] std::size_t best_server_node(const BandwidthMatrix& bw);

/// Extends an n-worker bandwidth matrix to n+1 nodes where node n is a
/// virtual parameter server whose links mirror the best-connected worker's
/// links (paper's FedAvg server placement for the Fig. 6 comparison).
[[nodiscard]] BandwidthMatrix with_virtual_server(const BandwidthMatrix& bw);

}  // namespace saps::net
