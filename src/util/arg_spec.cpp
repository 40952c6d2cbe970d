#include "util/arg_spec.hpp"

#include <algorithm>
#include <cerrno>
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

// The typed value readers behind the getters and parse()'s eager check.
// Each throws std::invalid_argument saying what is wrong with `text`.

double to_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    throw std::invalid_argument("not a number");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("out of range");
  }
  return parsed;
}

long to_long(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    throw std::invalid_argument("not an integer");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("out of range");
  }
  return parsed;
}

bool to_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument("not true or false");
}

}  // namespace

// -------------------------------------------------------------- ParsedArgs

const ParsedArgs::Flag* ParsedArgs::find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool ParsedArgs::has(std::string_view name) const {
  return find(name) != nullptr;
}

std::optional<std::string> ParsedArgs::value(std::string_view name) const {
  const Flag* flag = find(name);
  return flag != nullptr ? flag->value : std::nullopt;
}

std::string ParsedArgs::get_string(std::string_view name,
                                   std::string fallback) const {
  auto v = value(name);
  return v ? std::move(*v) : std::move(fallback);
}

double ParsedArgs::get_double(std::string_view name, double fallback) const {
  const auto v = value(name);
  return v ? to_double(*v) : fallback;
}

long ParsedArgs::get_long(std::string_view name, long fallback) const {
  const auto v = value(name);
  return v ? to_long(*v) : fallback;
}

bool ParsedArgs::get_bool(std::string_view name, bool fallback) const {
  const Flag* flag = find(name);
  if (flag == nullptr) {
    return fallback;
  }
  return flag->value ? to_bool(*flag->value) : true;  // bare switch
}

// --------------------------------------------------------------- ArgParser

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

ArgParser& ArgParser::allow_positionals(std::size_t count) {
  max_positionals_ = count;
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

ParsedArgs ArgParser::parse(int argc, const char* const* argv) const {
  ParsedArgs args;
  args.argv_.assign(argv, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      args.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    ParsedArgs::Flag flag{std::string(body.substr(0, eq)), std::nullopt};
    if (eq != std::string_view::npos) {
      flag.value = std::string(body.substr(eq + 1));
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      // `--name value` form: the next token is the value unless it looks
      // like another flag.
      flag.value = argv[++i];
    }
    args.flags_.push_back(std::move(flag));
  }

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

  for (auto flag = args.flags_.begin(); flag != args.flags_.end(); ++flag) {
    const std::string& name = flag->name;
    const std::optional<std::string>& value = flag->value;
    const ArgSpec* spec = find(name);
    if (spec == nullptr) {
      std::string message = "unknown flag --" + name;
      const std::string guess = suggestion(name);
      if (!guess.empty()) {
        message += " (did you mean --" + guess + "?)";
      }
      fail(message);
    }
    const auto same_name = [&](const ParsedArgs::Flag& other) {
      return other.name == name;
    };
    if (std::any_of(args.flags_.begin(), flag, same_name)) {
      fail("flag --" + name + " given more than once");
    }
    try {
      switch (spec->type) {
        case ArgType::kFlag:
          if (value) {
            (void)to_bool(*value);
          }
          break;
        case ArgType::kLong:
          if (!value) {
            fail("flag --" + name + " requires an integer value");
          }
          // Every integer flag is a count, duration, port, cursor or seed.
          if (to_long(*value) < 0) {
            fail("invalid value for --" + name + ": must not be negative");
          }
          break;
        case ArgType::kDouble:
          if (!value) {
            fail("flag --" + name + " requires a numeric value");
          }
          (void)to_double(*value);
          break;
        case ArgType::kString:
          if (!value) {
            fail("flag --" + name + " requires a value");
          }
          break;
      }
    } catch (const std::invalid_argument& error) {
      fail("invalid value for --" + name + ": " + error.what());
    }
  }
  if (args.positional_.size() > max_positionals_) {
    fail("unexpected argument '" + args.positional_[max_positionals_] + "'");
  }
  return args;
}

}  // namespace bvc::util
