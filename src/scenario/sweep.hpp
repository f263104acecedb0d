// Declarative sweep suites: `sweep.<key>=v1,v2,...` product grammar on top
// of the ScenarioSpec spec-file format.
//
// A sweep file is an ordinary spec file plus any number of `sweep.`-prefixed
// lines; each one turns a spec key into a grid AXIS and the suite is the
// cartesian product of all axes applied over the shared base lines:
//
//   workload=mnist
//   algorithm=saps
//   sweep.saps-c=4,10,100,1000     # axis 1
//   sweep.seed=1,2,3               # axis 2 -> 12 grid points
//
// Expansion semantics are "as if each point were its own spec file": the
// base lines are kept RAW (canonicalized values, file order, explicitly
// provided keys only) and every grid point is materialized by re-parsing
// base + its axis assignments through parse_spec_text.  Derived values
// (bandwidth-seed / sample-seed / fault-seed, fedavg-steps, population)
// therefore re-derive PER POINT — sweeping `seed` sweeps the derived seeds
// with it — and every point passes the full finalize_spec validation.
//
// Grid order is deterministic: axes in file order, the LAST axis varies
// fastest (row-major odometer), so point i is reproducible from the file
// alone.  to_sweep_text is lossless: parse(print(s)) re-expands to the same
// points in the same order.
//
// A sweep file reads through the spec file's line scanner and key lookup
// (scan_spec_lines, find_param, canonical_scenario_value in spec.hpp), and
// validation mirrors the spec-file contract (friendly, line-numbered
// std::invalid_argument): unknown keys, duplicate base keys, duplicate axes,
// duplicate values inside an axis, an axis whose key is also a base line,
// non-sweepable knobs (`full`, `threads`), and sweeping `seed` while a
// derived seed is pinned explicitly are all rejected up front.  A key set
// twice through the `partition=dirichlet:ALPHA` shorthand (say a
// dirichlet-alpha axis over a shorthand base line) fails the per-point
// validation, like a duplicate line in a spec file.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.hpp"

namespace saps::scenario {

/// One `sweep.<key>=v1,v2,...` line: a grid axis over canonical values.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;  // canonical, in file order
  std::size_t lineno = 0;           // 1-based source line (error messages)
};

/// A parsed sweep file: shared base assignments + grid axes.
struct SweepSpec {
  // Base `key=value` lines in file order (values canonical).  Kept raw —
  // NOT a finalized ScenarioSpec — so derivations re-run per grid point.
  std::vector<std::pair<std::string, std::string>> base;
  std::vector<SweepAxis> axes;

  /// Product over the axes (1 when there are none: a plain spec file is a
  /// one-point suite).
  [[nodiscard]] std::size_t point_count() const;

  /// The axis coordinates of grid point `index` (odometer order: last axis
  /// fastest), as (key, canonical value) pairs in axis order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> coordinates(
      std::size_t index) const;

  /// Spec-file text of one grid point (base lines + its axis assignments);
  /// parse_spec_text(point_text(i)) is how point(i) is defined.
  [[nodiscard]] std::string point_text(std::size_t index) const;

  /// The finalized ScenarioSpec of grid point `index`.
  [[nodiscard]] ScenarioSpec point(std::size_t index) const;

  /// Human label of a point: its axis assignments, space-joined
  /// ("saps-c=100 seed=2"); "base" when there are no axes.
  [[nodiscard]] std::string point_label(std::size_t index) const;
};

/// Parses and validates a sweep file (see the header comment for the
/// rejection list).  Every grid point is finalize-validated before this
/// returns, so a bad combination fails here, not mid-suite.  Throws
/// std::invalid_argument with a line-numbered message.
[[nodiscard]] SweepSpec parse_sweep_text(const std::string& text);

/// Lossless print: base lines then `sweep.` lines, one per axis.
/// parse_sweep_text(to_sweep_text(s)) expands to the same grid.
[[nodiscard]] std::string to_sweep_text(const SweepSpec& sweep);

}  // namespace saps::scenario
