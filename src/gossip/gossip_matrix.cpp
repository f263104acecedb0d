#include "gossip/gossip_matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/spectral.hpp"

namespace saps::gossip {

GossipMatrix::GossipMatrix(std::size_t n) : peer_(n) {
  if (n == 0) throw std::invalid_argument("GossipMatrix: n == 0");
  for (std::size_t v = 0; v < n; ++v) peer_[v] = v;
}

GossipMatrix::GossipMatrix(const graph::Matching& matching)
    : peer_(matching.partner.size()) {
  const std::size_t n = peer_.size();
  if (n == 0) throw std::invalid_argument("GossipMatrix: empty matching");
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t u = matching.partner[v];
    if (u == graph::Matching::kUnmatched) {
      peer_[v] = v;
    } else {
      if (u >= n || u == v || matching.partner[u] != v) {
        throw std::invalid_argument("GossipMatrix: malformed matching");
      }
      peer_[v] = u;
    }
  }
}

std::size_t GossipMatrix::peer(std::size_t v) const {
  if (v >= peer_.size()) throw std::out_of_range("GossipMatrix::peer");
  return peer_[v];
}

std::vector<std::pair<std::size_t, std::size_t>> GossipMatrix::pairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t v = 0; v < peer_.size(); ++v) {
    if (peer_[v] > v) out.emplace_back(v, peer_[v]);
  }
  return out;
}

std::vector<double> GossipMatrix::dense() const {
  const std::size_t n = peer_.size();
  std::vector<double> w(n * n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (peer_[v] == v) {
      w[v * n + v] = 1.0;
    } else {
      w[v * n + v] = 0.5;
      w[v * n + peer_[v]] = 0.5;
    }
  }
  return w;
}

bool GossipMatrix::is_doubly_stochastic(double tol) const {
  const std::size_t n = peer_.size();
  const auto w = dense();
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0, col = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (w[i * n + j] < -tol) return false;
      row += w[i * n + j];
      col += w[j * n + i];
    }
    if (std::abs(row - 1.0) > tol || std::abs(col - 1.0) > tol) return false;
  }
  return true;
}

void GossipMatrix::apply(const GossipMatrix& w,
                         std::vector<std::vector<float>>& models) {
  const std::size_t n = w.size();
  if (models.size() != n) {
    throw std::invalid_argument("GossipMatrix::apply: model count mismatch");
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t u = w.peer(v);
    if (u <= v) continue;  // handle each pair once
    auto& a = models[v];
    auto& b = models[u];
    if (a.size() != b.size()) {
      throw std::invalid_argument("GossipMatrix::apply: dim mismatch");
    }
    for (std::size_t j = 0; j < a.size(); ++j) {
      const float avg = 0.5f * (a[j] + b[j]);
      a[j] = avg;
      b[j] = avg;
    }
  }
}

double estimate_rho(const std::function<GossipMatrix(std::size_t)>& draw,
                    std::size_t n, std::size_t samples) {
  std::vector<double> ewtw(n * n, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto w = draw(s).dense();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += w[k * n + i] * w[k * n + j];
        ewtw[i * n + j] += acc;
      }
    }
  }
  for (auto& v : ewtw) v /= static_cast<double>(samples);
  return graph::second_largest_eigenvalue(ewtw, n);
}

}  // namespace saps::gossip
