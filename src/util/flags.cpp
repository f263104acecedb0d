#include "util/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace saps {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view token(argv[i]);
    if (!token.starts_with("--")) {
      throw std::invalid_argument("Flags: expected --key[=value], got '" +
                                  std::string(token) + "'");
    }
    token.remove_prefix(2);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(token)] = "true";
    } else {
      values_[std::string(token.substr(0, eq))] =
          std::string(token.substr(eq + 1));
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.contains(key); }

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

Flags& Flags::describe(std::string key, std::string help_line) {
  described_.emplace_back(std::move(key), std::move(help_line));
  return *this;
}

std::string Flags::help(std::string_view program) const {
  std::ostringstream oss;
  oss << "Usage: " << program << " [--flag[=value] ...]\n";
  std::size_t width = 6;  // "--help"
  for (const auto& [key, _] : described_) {
    width = std::max(width, key.size() + 2);
  }
  for (const auto& [key, line] : described_) {
    oss << "  --" << key << std::string(width - key.size() - 2 + 2, ' ')
        << line << "\n";
  }
  oss << "  --help" << std::string(width - 6 + 2, ' ')
      << "print this message and exit\n";
  return oss.str();
}

void Flags::check_unknown() const {
  for (const auto& [key, _] : values_) {
    if (key == "help") continue;
    const bool known =
        std::any_of(described_.begin(), described_.end(),
                    [&](const auto& d) { return d.first == key; });
    if (!known) {
      throw std::invalid_argument("Flags: unknown flag '--" + key + "'");
    }
  }
}

void exit_on_help_or_unknown(const Flags& flags, std::string_view program) {
  if (flags.help_requested()) {
    std::cout << flags.help(program);
    std::exit(0);
  }
  try {
    flags.check_unknown();
  } catch (const std::exception& e) {
    std::cerr << e.what() << " (see " << program << " --help)\n";
    std::exit(2);
  }
}

}  // namespace saps
