#include "scenario/sweep.hpp"

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace saps::scenario {

namespace {

// Runaway-grid backstop: the product of a few typo'd axes can silently
// request years of compute; fail fast with the count instead.
constexpr std::size_t kMaxGridPoints = 4096;

constexpr std::string_view kSweepPrefix = "sweep.";

[[noreturn]] void fail(std::size_t lineno, const std::string& msg) {
  throw std::invalid_argument("sweep spec line " + std::to_string(lineno) +
                              ": " + msg);
}

/// canonical_scenario_value with its error tagged by the line.
std::string canonical_at(std::size_t lineno, const ParamDesc& desc,
                         const std::string& value) {
  try {
    return canonical_scenario_value(desc, value);
  } catch (const std::exception& e) {
    fail(lineno, e.what());
  }
}

}  // namespace

std::size_t SweepSpec::point_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::pair<std::string, std::string>> SweepSpec::coordinates(
    std::size_t index) const {
  if (index >= point_count()) {
    throw std::out_of_range("SweepSpec: point " + std::to_string(index) +
                            " of " + std::to_string(point_count()));
  }
  // Row-major odometer: the LAST axis varies fastest.
  std::vector<std::pair<std::string, std::string>> out(axes.size());
  std::size_t rem = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    const auto& axis = axes[a];
    out[a] = {axis.key, axis.values[rem % axis.values.size()]};
    rem /= axis.values.size();
  }
  return out;
}

std::string SweepSpec::point_text(std::size_t index) const {
  std::ostringstream oss;
  for (const auto& [k, v] : base) oss << k << "=" << v << "\n";
  for (const auto& [k, v] : coordinates(index)) oss << k << "=" << v << "\n";
  return oss.str();
}

ScenarioSpec SweepSpec::point(std::size_t index) const {
  return parse_spec_text(point_text(index));
}

std::string SweepSpec::point_label(std::size_t index) const {
  const auto coords = coordinates(index);
  if (coords.empty()) return "base";
  std::string out;
  for (const auto& [k, v] : coords) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

SweepSpec parse_sweep_text(const std::string& text) {
  SweepSpec sweep;
  std::map<std::string, std::size_t> base_line;  // key -> first lineno
  std::map<std::string, std::size_t> axis_line;

  for (auto line : scan_spec_lines(text, "sweep spec")) {
    const bool is_axis = line.key.starts_with(kSweepPrefix);
    if (is_axis) line.key = trim(line.key.substr(kSweepPrefix.size()));
    const auto& key = line.key;
    const auto* desc = find_param(key);
    if (desc == nullptr) {
      fail(line.lineno, std::string("unknown ") + (is_axis ? "sweep " : "") +
                            "key '" + key + "'");
    }
    if (!is_axis) {
      const auto [it, inserted] = base_line.emplace(key, line.lineno);
      if (!inserted) {
        fail(line.lineno, "duplicate key '" + key + "' (first set on line " +
                              std::to_string(it->second) + ")");
      }
      auto canonical = canonical_at(line.lineno, *desc, line.value);
      sweep.base.emplace_back(key, std::move(canonical));
      continue;
    }

    // Axis lines.  `full` is a scale preset that rewrites OTHER defaults
    // before values apply — as an axis it would silently change the meaning
    // of every base line; `threads` cannot change results by the
    // thread-count-invariance contract.
    if (key == "full") {
      fail(line.lineno,
           "'full' is a scale preset, not a sweepable knob; write two sweep "
           "files");
    }
    if (key == "threads") {
      fail(line.lineno,
           "'threads' never changes results (thread-count invariance); "
           "not sweepable");
    }
    const auto [it, inserted] = axis_line.emplace(key, line.lineno);
    if (!inserted) {
      fail(line.lineno, "duplicate sweep axis 'sweep." + key +
                            "' (first set on line " +
                            std::to_string(it->second) + ")");
    }
    SweepAxis axis{.key = key, .lineno = line.lineno};
    std::set<std::string> seen;
    for (const auto& v : split(line.value, ',')) {
      if (v.empty()) fail(line.lineno, "sweep." + key + " has an empty value");
      auto canonical = canonical_at(line.lineno, *desc, v);
      if (!seen.insert(canonical).second) {
        fail(line.lineno,
             "sweep." + key + " lists value '" + canonical + "' twice");
      }
      axis.values.push_back(std::move(canonical));
    }
    sweep.axes.push_back(std::move(axis));
  }

  // Cross-line checks: an axis key must not also be a base line, and
  // sweeping `seed` with an explicitly pinned derived seed would freeze that
  // derivation across every point — almost certainly not what the grid
  // means.
  for (const auto& axis : sweep.axes) {
    if (const auto it = base_line.find(axis.key); it != base_line.end()) {
      fail(axis.lineno, "'" + axis.key + "' is both swept and set on line " +
                            std::to_string(it->second));
    }
    if (axis.key == "seed") {
      for (const char* derived :
           {"sample-seed", "bandwidth-seed", "fault-seed"}) {
        if (const auto it = base_line.find(derived); it != base_line.end()) {
          fail(axis.lineno,
               std::string("sweeping 'seed' with explicit '") + derived +
                   "' (line " + std::to_string(it->second) +
                   ") would freeze the derived seed across every point; "
                   "drop one");
        }
      }
    }
  }

  const std::size_t points = sweep.point_count();
  if (points > kMaxGridPoints) {
    throw std::invalid_argument(
        "sweep grid has " + std::to_string(points) + " points; the cap is " +
        std::to_string(kMaxGridPoints));
  }
  // Validate every grid point through the full spec pipeline now, so a bad
  // axis combination (say workers x latency-matrix) fails before any engine
  // is built — with the point named.
  for (std::size_t i = 0; i < points; ++i) {
    try {
      (void)sweep.point(i);
    } catch (const std::exception& e) {
      throw std::invalid_argument("sweep point " + std::to_string(i) + " (" +
                                  sweep.point_label(i) + "): " + e.what());
    }
  }
  return sweep;
}

std::string to_sweep_text(const SweepSpec& sweep) {
  std::ostringstream oss;
  for (const auto& [k, v] : sweep.base) oss << k << "=" << v << "\n";
  for (const auto& axis : sweep.axes) {
    oss << kSweepPrefix << axis.key << "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i != 0) oss << ",";
      oss << axis.values[i];
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace saps::scenario
