#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace bvc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_.push_back(Flag{std::string(body.substr(0, eq)),
                            std::string(body.substr(eq + 1))});
      continue;
    }
    // `--name value` form: consume the next token as a value unless it looks
    // like another flag.
    if (i + 1 < argc) {
      const std::string_view next = argv[i + 1];
      if (next.substr(0, 2) != "--") {
        flags_.push_back(Flag{std::string(body), std::string(next)});
        ++i;
        continue;
      }
    }
    flags_.push_back(Flag{std::string(body), std::nullopt});
  }
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& flag : flags_) {
    names.push_back(flag.name);
  }
  return names;
}

bool CliArgs::has(std::string_view name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) {
      return true;
    }
  }
  return false;
}

std::optional<std::string> CliArgs::value(std::string_view name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) {
      return flag.value;
    }
  }
  return std::nullopt;
}

std::string CliArgs::get_string(std::string_view name,
                                std::string fallback) const {
  auto v = value(name);
  return v ? std::move(*v) : std::move(fallback);
}

double CliArgs::get_double(std::string_view name, double fallback) const {
  const auto v = value(name);
  if (!v) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  const bool in_range = errno != ERANGE;
  BVC_REQUIRE(!v->empty() && end != nullptr && *end == '\0',
              "flag value is not a valid number");
  BVC_REQUIRE(in_range, "flag value is out of range");
  return parsed;
}

long CliArgs::get_long(std::string_view name, long fallback) const {
  const auto v = value(name);
  if (!v) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  const bool in_range = errno != ERANGE;
  BVC_REQUIRE(!v->empty() && end != nullptr && *end == '\0',
              "flag value is not a valid integer");
  BVC_REQUIRE(in_range, "flag value is out of range");
  return parsed;
}

bool CliArgs::get_bool(std::string_view name, bool fallback) const {
  if (!has(name)) {
    return fallback;
  }
  const auto v = value(name);
  if (!v) {
    return true;  // bare switch
  }
  const std::string& text = *v;
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument("boolean flag value must be true/false");
}

}  // namespace bvc
