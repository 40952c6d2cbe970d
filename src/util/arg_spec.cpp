#include "util/arg_spec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bvc::util {
namespace {

/// Plain Levenshtein distance; the candidate sets are a dozen short names,
/// so the quadratic table is microscopic.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    prev[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

const char* type_placeholder(const ArgSpec& spec) {
  if (!spec.value_name.empty()) {
    return spec.value_name.c_str();
  }
  switch (spec.type) {
    case ArgType::kFlag:
      return "";
    case ArgType::kLong:
      return "N";
    case ArgType::kDouble:
      return "X";
    case ArgType::kString:
      return "VALUE";
  }
  return "VALUE";
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

ArgParser& ArgParser::add(ArgSpec spec) {
  if (find(spec.name) == nullptr) {
    specs_.push_back(std::move(spec));
  }
  return *this;
}

ArgParser& ArgParser::add(std::initializer_list<ArgSpec> specs) {
  for (const ArgSpec& spec : specs) {
    add(spec);
  }
  return *this;
}

ArgParser& ArgParser::allow_prefix(std::string prefix) {
  pass_prefixes_.push_back(std::move(prefix));
  return *this;
}

const ArgSpec* ArgParser::find(std::string_view name) const {
  for (const ArgSpec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::string ArgParser::suggestion(std::string_view unknown) const {
  std::string best;
  std::size_t best_distance = 0;
  for (const ArgSpec& spec : specs_) {
    const std::size_t distance = edit_distance(unknown, spec.name);
    if (best.empty() || distance < best_distance) {
      best = spec.name;
      best_distance = distance;
    }
  }
  // "--thread" -> "--threads" (distance 1) should suggest; "--frobnicate"
  // should not claim to resemble anything. Allow more slack for longer
  // names, never less than 2.
  const std::size_t budget = std::max<std::size_t>(2, unknown.size() / 3);
  if (best.empty() || best_distance > budget) {
    return "";
  }
  return best;
}

void ArgParser::print_help(std::ostream& out) const {
  out << "usage: " << program_ << " [flags]\n  " << summary_ << "\n\nflags:\n";
  for (const ArgSpec& spec : specs_) {
    std::string left = "  --" + spec.name;
    const char* placeholder = type_placeholder(spec);
    if (placeholder[0] != '\0') {
      left += ' ';
      left += placeholder;
    }
    if (left.size() < 26) {
      left.resize(26, ' ');
    } else {
      left += ' ';
    }
    out << left << spec.help;
    if (!spec.default_text.empty()) {
      out << " (default: " << spec.default_text << ")";
    }
    out << "\n";
  }
  out << "  --help                  show this message and exit\n";
}

CliArgs ArgParser::parse(int argc, const char* const* argv) const {
  const CliArgs args(argc, argv);

  if (args.has("help")) {
    std::string page;
    {
      // print_help targets ostream for testability; --help goes to stdout.
      std::ostringstream text;
      print_help(text);
      page = text.str();
    }
    std::fputs(page.c_str(), stdout);
    std::exit(0);
  }

  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::fprintf(stderr, "run `%s --help` for the flag list\n",
                 program_.c_str());
    std::exit(2);
  };

  for (const std::string& name : args.flag_names()) {
    bool passed_through = false;
    for (const std::string& prefix : pass_prefixes_) {
      if (name.size() >= prefix.size() &&
          name.compare(0, prefix.size(), prefix) == 0) {
        passed_through = true;
        break;
      }
    }
    if (passed_through) {
      continue;
    }
    const ArgSpec* spec = find(name);
    if (spec == nullptr) {
      std::string message = "unknown flag --" + name;
      const std::string guess = suggestion(name);
      if (!guess.empty()) {
        message += " (did you mean --" + guess + "?)";
      }
      fail(message);
    }
    // Eager type validation: reuse the CliArgs accessors, which throw
    // std::invalid_argument on malformed values.
    try {
      switch (spec->type) {
        case ArgType::kFlag:
          (void)args.get_bool(name, false);
          break;
        case ArgType::kLong:
          if (!args.value(name).has_value()) {
            fail("flag --" + name + " requires an integer value");
          }
          // Every integer flag is a count, duration, port, cursor or seed.
          if (args.get_long(name, 0) < 0) {
            fail("invalid value for --" + name + ": must not be negative");
          }
          break;
        case ArgType::kDouble:
          if (!args.value(name).has_value()) {
            fail("flag --" + name + " requires a numeric value");
          }
          (void)args.get_double(name, 0.0);
          break;
        case ArgType::kString:
          if (!args.value(name).has_value()) {
            fail("flag --" + name + " requires a value");
          }
          break;
      }
    } catch (const std::exception& error) {
      fail("invalid value for --" + name + ": " + error.what());
    }
  }
  return args;
}

}  // namespace bvc::util
