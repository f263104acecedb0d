// Tiny --key=value command-line parser shared by benches and examples.
//
// We deliberately avoid a dependency: benches need ~5 flags each, all of the
// form --name=value.  Flags holds the raw text; every typed value is parsed
// and range-checked by its descriptor (scenario/params.hpp), so a bad one
// exits 2.  Binaries register their flags with describe() so --help prints a
// usage table and check_unknown() can reject typos (strict mode);
// exit_on_help_or_unknown() bundles both.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace saps {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on a malformed token.
  /// Accepts "--key=value" and bare "--key" (stored as "true").
  Flags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;

  /// Registers `key` as a known flag with a one-line description (shown by
  /// help(), accepted by check_unknown()).  Returns *this for chaining.
  Flags& describe(std::string key, std::string help_line);

  /// True when --help was passed.
  [[nodiscard]] bool help_requested() const { return has("help"); }

  /// Usage text: one aligned line per described flag, in registration order.
  [[nodiscard]] std::string help(std::string_view program) const;

  /// Strict mode: throws std::invalid_argument naming the first parsed flag
  /// that was never described (--help is implicitly known).
  void check_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> described_;
};

/// Standard main() preamble once all flags are described: prints help and
/// exits(0) under --help; otherwise enforces strict mode, printing the
/// offending flag plus a --help hint to stderr and exiting(2).
void exit_on_help_or_unknown(const Flags& flags, std::string_view program);

}  // namespace saps
