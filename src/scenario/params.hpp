// Typed, self-describing scenario parameters.
//
// Every knob of the Scenario API — an algorithm's compression ratio, a
// workload's sample count, a link-model timing constant — is described once
// by a ParamDesc (name, type, default, range, help) next to the code that
// consumes it.  Everything else is generated from the descriptors: --help
// tables, CLI parsing, spec-file validation, and the friendly exit-2
// messages benches print on out-of-range values.  Values are stored in
// CANONICAL string form (std::to_chars shortest round-trip for doubles), so
// a ScenarioSpec prints back losslessly and parse(print(s)) == s.
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace saps {
class Flags;
}

namespace saps::scenario {

enum class ParamType { kInt, kUint, kDouble, kBool, kString };

struct ParamDesc {
  std::string name;  // flag / spec-file key, e.g. "saps-c"
  ParamType type = ParamType::kDouble;
  std::string default_value;  // canonical string form
  // Inclusive numeric range (kInt/kDouble only).
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  std::string help;
  std::vector<std::string> choices;  // kString: allowed values (empty = any)
};

// Canonical string formatting (shortest text that parses back bit-exactly).
[[nodiscard]] std::string format_double(double v);
[[nodiscard]] std::string format_int(std::int64_t v);
[[nodiscard]] std::string format_bool(bool v);
[[nodiscard]] double parse_double(const std::string& key,
                                  const std::string& text);
[[nodiscard]] std::int64_t parse_int(const std::string& key,
                                     const std::string& text);
// Full-range unsigned parse (RNG seeds exceed int64).
[[nodiscard]] std::uint64_t parse_uint(const std::string& key,
                                       const std::string& text);
[[nodiscard]] bool parse_bool(const std::string& key, const std::string& text);

/// Parses `text` as desc.type, validates range/choices, and returns the
/// canonical form.  Throws std::invalid_argument with a friendly
/// "--name must be ..." message on violation (the message the benches
/// forward before exiting 2).
[[nodiscard]] std::string canonical_value(const ParamDesc& desc,
                                          const std::string& text);

/// An ordered bag of resolved parameter values in canonical string form.
class ParamSet {
 public:
  void set(std::string name, std::string canonical);
  [[nodiscard]] bool has(const std::string& name) const;
  /// Canonical value; throws std::out_of_range when absent.
  [[nodiscard]] const std::string& raw(const std::string& name) const;

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  /// Key-sorted (deterministic) view.
  [[nodiscard]] const std::map<std::string, std::string>& items() const {
    return values_;
  }
  [[nodiscard]] bool operator==(const ParamSet&) const = default;

 private:
  std::map<std::string, std::string> values_;
};

/// `text` without leading and trailing spaces, tabs, CRs and LFs.
[[nodiscard]] std::string trim(const std::string& text);

/// The pieces of `text` between each `sep`, trimmed (one piece per
/// separator plus one, empty pieces kept).
[[nodiscard]] std::vector<std::string> split(const std::string& text,
                                             char sep);

/// Registers one --help line per descriptor on `flags` (registration order).
void describe_params(Flags& flags, const std::vector<ParamDesc>& descs);

/// Prints `error`'s message to stderr and exits(2): the util/flags
/// strict-mode contract for a bad value from the command line.
[[noreturn]] void exit_two(const std::exception& error);

/// `parse()`, or exit_two with what it throws.  Every `_or_exit` reader of
/// the command line goes through this one catch.
template <class Parse>
auto or_exit(Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::exception& e) {
    exit_two(e);
  }
}

/// Defaults ∪ command line for a self-contained descriptor table (the
/// non-training benches' flag sets and every bench-only number), with the
/// exit-2 contract of or_exit on a type/range violation.
[[nodiscard]] ParamSet resolve_params_or_exit(
    const Flags& flags, const std::vector<ParamDesc>& descs);

}  // namespace saps::scenario
