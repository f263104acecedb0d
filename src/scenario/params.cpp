#include "scenario/params.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "util/flags.hpp"

namespace saps::scenario {

namespace {

[[noreturn]] void fail(const std::string& key, const std::string& detail) {
  throw std::invalid_argument("--" + key + " " + detail);
}

std::string joined_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) out += "|";
    out += c;
  }
  return out;
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string format_int(std::int64_t v) { return std::to_string(v); }

std::string format_bool(bool v) { return v ? "true" : "false"; }

double parse_double(const std::string& key, const std::string& text) {
  double v = 0.0;
  const auto r = std::from_chars(text.data(), text.data() + text.size(), v);
  if (r.ec != std::errc{} || r.ptr != text.data() + text.size() ||
      !std::isfinite(v)) {
    fail(key, "expects a finite number, got '" + text + "'");
  }
  return v;
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  std::int64_t v = 0;
  const auto r = std::from_chars(text.data(), text.data() + text.size(), v);
  if (r.ec != std::errc{} || r.ptr != text.data() + text.size()) {
    fail(key, "expects an integer, got '" + text + "'");
  }
  return v;
}

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  std::uint64_t v = 0;
  const auto r = std::from_chars(text.data(), text.data() + text.size(), v);
  if (r.ec != std::errc{} || r.ptr != text.data() + text.size()) {
    fail(key, "expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  fail(key, "expects true|false, got '" + text + "'");
}

std::string canonical_value(const ParamDesc& desc, const std::string& text) {
  switch (desc.type) {
    case ParamType::kInt: {
      const auto v = parse_int(desc.name, text);
      const double d = static_cast<double>(v);
      if (d < desc.min_value || d > desc.max_value) {
        fail(desc.name,
             "must be in [" + format_double(desc.min_value) + ", " +
                 format_double(desc.max_value) + "], got " + text);
      }
      return format_int(v);
    }
    case ParamType::kUint: {
      // RNG seeds: full uint64 range, no numeric-range clamp (min/max are
      // ignored — the type itself is the constraint).
      return std::to_string(parse_uint(desc.name, text));
    }
    case ParamType::kDouble: {
      const auto v = parse_double(desc.name, text);
      if (v < desc.min_value || v > desc.max_value) {
        fail(desc.name,
             "must be in [" + format_double(desc.min_value) + ", " +
                 format_double(desc.max_value) + "], got " + text);
      }
      return format_double(v);
    }
    case ParamType::kBool:
      return format_bool(parse_bool(desc.name, text));
    case ParamType::kString: {
      if (!desc.choices.empty()) {
        for (const auto& c : desc.choices) {
          if (c == text) return text;
        }
        fail(desc.name,
             "must be one of " + joined_choices(desc.choices) + ", got '" +
                 text + "'");
      }
      return text;
    }
  }
  fail(desc.name, "has an unknown type");
}

void ParamSet::set(std::string name, std::string canonical) {
  values_[std::move(name)] = std::move(canonical);
}

bool ParamSet::has(const std::string& name) const {
  return values_.contains(name);
}

const std::string& ParamSet::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::out_of_range("ParamSet: missing parameter '" + name + "'");
  }
  return it->second;
}

std::int64_t ParamSet::get_int(const std::string& name) const {
  return parse_int(name, raw(name));
}

std::uint64_t ParamSet::get_uint(const std::string& name) const {
  return parse_uint(name, raw(name));
}

double ParamSet::get_double(const std::string& name) const {
  return parse_double(name, raw(name));
}

bool ParamSet::get_bool(const std::string& name) const {
  return parse_bool(name, raw(name));
}

const std::string& ParamSet::get_string(const std::string& name) const {
  return raw(name);
}

std::string trim(const std::string& text) {
  constexpr const char* kSpace = " \t\r\n";
  const auto first = text.find_first_not_of(kSpace);
  if (first == std::string::npos) return "";
  return text.substr(first, text.find_last_not_of(kSpace) - first + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    out.push_back(trim(text.substr(start, pos - start)));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

void describe_params(Flags& flags, const std::vector<ParamDesc>& descs) {
  for (const auto& d : descs) flags.describe(d.name, d.help);
}

void exit_two(const std::exception& error) {
  std::cerr << error.what() << "\n";
  std::exit(2);
}

ParamSet resolve_params_or_exit(const Flags& flags,
                                const std::vector<ParamDesc>& descs) {
  return or_exit([&] {
    ParamSet out;
    for (const auto& d : descs) {
      out.set(d.name,
              canonical_value(d, flags.get_string(d.name, d.default_value)));
    }
    return out;
  });
}

}  // namespace saps::scenario
