#include "net/link_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace saps::net {

namespace {

// Side length of the optional per-link latency matrix; throws on a
// non-square size, a matrix wider than the node set, or a negative entry.
std::size_t checked_matrix_side(const LinkOptions& options,
                                std::size_t workers) {
  const auto& m = options.latency_matrix;
  if (m.empty()) return 0;
  std::size_t side = 1;
  while (side * side < m.size()) ++side;
  if (side * side != m.size() || side > workers) {
    throw std::invalid_argument(
        "LinkModel: latency_matrix must be n*n with n <= node count");
  }
  for (const double v : m) {
    if (v < 0.0) {
      throw std::invalid_argument("LinkModel: negative latency_matrix entry");
    }
  }
  return side;
}

}  // namespace

LinkModel::LinkModel(std::size_t workers, LinkOptions options)
    : workers_(workers),
      options_(std::move(options)),
      matrix_side_(checked_matrix_side(options_, workers_)),
      up_(workers, 0.0),
      down_(workers, 0.0),
      lanes_(workers) {
  if (workers < 2) throw std::invalid_argument("LinkModel: need >= 2 workers");
}

LinkModel::LinkModel(BandwidthMatrix bandwidth, LinkOptions options)
    : workers_(bandwidth.size()),
      options_(std::move(options)),
      matrix_side_(checked_matrix_side(options_, workers_)),
      bandwidth_(std::move(bandwidth)),
      up_(workers_, 0.0),
      down_(workers_, 0.0),
      lanes_(workers_) {}

double LinkModel::link_latency(std::size_t src, std::size_t dst) const {
  if (matrix_side_ == 0 || src >= matrix_side_ || dst >= matrix_side_) {
    return options_.latency_seconds;
  }
  return options_.latency_matrix[src * matrix_side_ + dst];
}

const BandwidthMatrix& LinkModel::bandwidth() const {
  if (!bandwidth_) throw std::logic_error("LinkModel: no bandwidth matrix");
  return *bandwidth_;
}

void LinkModel::start_round() {
  if (in_round_) throw std::logic_error("LinkModel: round already open");
  in_round_ = true;
}

void LinkModel::compute(std::size_t node, double seconds) {
  if (!in_round_) throw std::logic_error("LinkModel: compute outside round");
  if (node >= workers_) throw std::out_of_range("LinkModel::compute");
  if (seconds < 0.0) throw std::invalid_argument("LinkModel: negative compute");
  lanes_[node].compute += seconds;
}

double LinkModel::modeled_compute(std::size_t node) const {
  if (node >= workers_) throw std::out_of_range("LinkModel::modeled_compute");
  if (options_.compute_base_seconds <= 0.0 &&
      options_.compute_jitter_seconds <= 0.0) {
    return 0.0;
  }
  double t = options_.compute_base_seconds;
  if (options_.compute_jitter_seconds > 0.0) {
    Rng rng(derive_seed(options_.compute_seed, rounds_, node));
    t += options_.compute_jitter_seconds * rng.next_double();
  }
  return t;
}

void LinkModel::transfer(std::size_t src, std::size_t dst, double bytes,
                         double extra_seconds) {
  if (!in_round_) throw std::logic_error("LinkModel: transfer outside round");
  if (src >= workers_ || dst >= workers_ || src == dst) {
    throw std::invalid_argument("LinkModel: bad endpoints");
  }
  if (bytes < 0.0) throw std::invalid_argument("LinkModel: negative bytes");
  if (extra_seconds < 0.0) {
    throw std::invalid_argument("LinkModel: negative transfer delay");
  }
  if (bytes == 0.0) return;
  double drain = 0.0;
  if (bandwidth_) {
    const double bw = bandwidth_->get(src, dst);  // MB/s
    if (bw <= 0.0) {
      throw std::logic_error("LinkModel: transfer over a zero-bandwidth link");
    }
    drain = bytes / (bw * 1e6);
  }
  lanes_[src].out.push_back({dst, bytes, extra_seconds, drain});
}

double LinkModel::finish_round() {
  if (!in_round_) throw std::logic_error("LinkModel: no open round");
  in_round_ = false;
  ++rounds_;

  // The round's one pass over the nodes.  Every charge was checked when it
  // was staged, so nothing below throws and no lane is left half-folded.
  double round_seconds = 0.0;
  for (std::size_t src = 0; src < workers_; ++src) {
    Lane& lane = lanes_[src];
    // Compute-only critical path: a straggler that sends nothing still
    // holds the synchronous round open.
    round_seconds = std::max(round_seconds, lane.compute);
    for (const auto& tr : lane.out) {
      up_[src] += tr.bytes;
      down_[tr.dst] += tr.bytes;
      // Event chain: serialize-and-send starts once src's compute is done,
      // the wire adds propagation latency, then bytes drain at link
      // bandwidth; the merge event at dst fires on arrival.
      const double seconds =
          lane.compute + link_latency(src, tr.dst) + tr.extra + tr.drain;
      round_seconds = std::max(round_seconds, seconds);
    }
    lane.compute = 0.0;
    lane.out.clear();
  }
  total_seconds_ += round_seconds;
  return round_seconds;
}

double LinkModel::up_bytes(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("LinkModel::up_bytes");
  return up_[worker];
}

double LinkModel::down_bytes(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("LinkModel::down_bytes");
  return down_[worker];
}

double LinkModel::worker_bytes(std::size_t worker) const {
  return up_bytes(worker) + down_bytes(worker);
}

void LinkModel::set_stat_worker_count(std::size_t count) {
  if (count == 0 || count > workers_) {
    throw std::invalid_argument("LinkModel::set_stat_worker_count");
  }
  stat_workers_ = count;
}

double LinkModel::mean_worker_bytes() const {
  const std::size_t k = stat_workers_ == 0 ? workers_ : stat_workers_;
  double sum = 0.0;
  for (std::size_t w = 0; w < k; ++w) sum += worker_bytes(w);
  return sum / static_cast<double>(k);
}

BandwidthMatrix with_virtual_server(const BandwidthMatrix& bw) {
  const std::size_t n = bw.size();
  const std::size_t best = best_server_node(bw);
  BandwidthMatrix out(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      out.set(i, j, bw.get(i, j));
      out.set(j, i, bw.get(j, i));
    }
  }
  double best_link = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == best) continue;
    best_link = std::max(best_link, bw.get(best, j));
    out.set(n, j, bw.get(best, j));
    out.set(j, n, bw.get(best, j));
  }
  // The best worker itself talks to the co-located server at its fastest
  // external link speed.
  out.set(n, best, best_link);
  out.set(best, n, best_link);
  return out;
}

std::size_t best_server_node(const BandwidthMatrix& bw) {
  const std::size_t n = bw.size();
  std::size_t best = 0;
  double best_mean = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sum += bw.get(i, j);
    }
    const double mean = sum / static_cast<double>(n - 1);
    if (mean > best_mean) {
      best_mean = mean;
      best = i;
    }
  }
  return best;
}

}  // namespace saps::net
