#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "util/arg_spec.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

// ---------------------------------------------------------------- check ---

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(BVC_REQUIRE(false, "nope"), std::invalid_argument);
  EXPECT_NO_THROW(BVC_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsInternalError) {
  EXPECT_THROW(BVC_ENSURE(false, "bug"), InternalError);
  EXPECT_NO_THROW(BVC_ENSURE(true, "fine"));
}

TEST(Check, MessagesCarryContext) {
  try {
    BVC_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Check, RequireMessageCarriesFileAndLine) {
  int thrown_line = 0;
  try {
    thrown_line = __LINE__ + 1;
    BVC_REQUIRE(false, "where am I");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(thrown_line)), std::string::npos)
        << what;
    EXPECT_NE(what.find("where am I"), std::string::npos) << what;
    EXPECT_NE(what.find("false"), std::string::npos) << what;
  }
}

TEST(Check, EnsureMessageCarriesFileAndLine) {
  int thrown_line = 0;
  try {
    thrown_line = __LINE__ + 1;
    BVC_ENSURE(2 + 2 == 5, "internal bug marker");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(thrown_line)), std::string::npos)
        << what;
    EXPECT_NE(what.find("internal bug marker"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
  }
}

TEST(Check, InternalErrorIsLogicError) {
  // Callers catching std::logic_error (but not std::invalid_argument
  // handlers for caller mistakes) must see library bugs.
  EXPECT_THROW(BVC_ENSURE(false, "bug"), std::logic_error);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanIsHalf) {
  Rng rng(11);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    sum += rng.next_double();
  }
  EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(9);
  std::array<int, 5> counts{};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.next_below(5)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.02);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    hits += rng.next_bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(8);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    sum += rng.next_exponential(2.0);
  }
  EXPECT_NEAR(sum / draws, 0.5, 0.02);
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(10);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.next_categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(12);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.next_categorical(weights), 1u);
  }
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(13);
  const std::vector<double> empty;
  EXPECT_THROW((void)rng.next_categorical(empty), std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW((void)rng.next_categorical(zeros), std::invalid_argument);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW((void)rng.next_categorical(negative), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(CategoricalSampler, MatchesWeights) {
  Rng rng(14);
  CategoricalSampler sampler(std::vector<double>{2.0, 2.0, 6.0});
  std::array<int, 3> counts{};
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    ++counts[sampler.sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.01);
}

TEST(CategoricalSampler, RejectsAllZero) {
  EXPECT_THROW(CategoricalSampler(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "0.25"});
  table.add_row({"beta-gamma", "1"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("-+-"), std::string::npos);
  // Each line has the same length (aligned columns).
  std::istringstream in(text);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    if (expected == 0) {
      expected = line.size();
    }
    EXPECT_EQ(line.size(), expected);
  }
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableFormat, FixedAndPercent) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_percent(0.2529), "25.29%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

// ------------------------------------------------------------------ csv ---

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b,c"});
  writer.write_row({"1", "2"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n1,2\n");
}

// ------------------------------------------------------------------ cli ---

/// Declares the Cli tests' flags as plain strings (and the switches as
/// flags), so parse() passes every value through and what these tests
/// exercise is the getters' own conversion. One positional is allowed.
util::ParsedArgs parse_cli(int argc, const char* const* argv) {
  util::ArgParser parser("prog", "getter tests");
  parser.allow_positionals(1);
  for (const char* name :
       {"alpha", "setting", "name", "count", "rate", "huge", "overflow"}) {
    parser.add({name, util::ArgType::kString, "", "", ""});
  }
  for (const char* name : {"verbose", "quiet", "on", "off"}) {
    parser.add({name, util::ArgType::kFlag, "", "", ""});
  }
  return parser.parse(argc, argv);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--alpha", "0.25", "--setting=2", "input.txt",
                        "--verbose"};
  const util::ParsedArgs args = parse_cli(6, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.25);
  EXPECT_EQ(args.get_long("setting", 0), 2);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const util::ParsedArgs args = parse_cli(1, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.125), 0.125);
  EXPECT_EQ(args.get_string("name", "default"), "default");
}

TEST(Cli, BooleanValueForms) {
  const char* argv[] = {"prog", "--on=true", "--off=false"};
  const util::ParsedArgs args = parse_cli(3, argv);
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_FALSE(args.get_bool("off", true));
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--alpha", "abc"};
  const util::ParsedArgs args = parse_cli(3, argv);
  EXPECT_THROW((void)args.get_double("alpha", 0.0), std::invalid_argument);
}

TEST(Cli, RejectsEmptyAndOutOfRangeNumbers) {
  const char* argv[] = {"prog", "--count=", "--rate=", "--huge",
                        "99999999999999999999", "--overflow=1e999"};
  const util::ParsedArgs args = parse_cli(6, argv);
  EXPECT_THROW((void)args.get_long("count", 1), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("rate", 1.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_long("huge", 1), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("overflow", 1.0), std::invalid_argument);
}

// ------------------------------------------------------------ ArgParser ---

util::ArgParser numeric_parser() {
  util::ArgParser parser("prog", "numeric flags");
  parser.add({{"count", util::ArgType::kLong, "N", "a count", ""},
              {"rate", util::ArgType::kDouble, "X", "a rate", ""}});
  return parser;
}

TEST(ArgParser, AcceptsWellFormedNumbers) {
  const char* argv[] = {"prog", "--count", "0", "--rate=-0.5"};
  const util::ParsedArgs args = numeric_parser().parse(4, argv);
  EXPECT_EQ(args.get_long("count", 7), 0);
  EXPECT_EQ(args.get_double("rate", 0.0), -0.5);
}

TEST(ArgParser, KeepsPositionalsAndTheWholeCommandLine) {
  const char* argv[] = {"prog", "input.txt", "--count", "3", "output.txt"};
  const util::ParsedArgs args =
      numeric_parser().allow_positionals(2).parse(5, argv);
  EXPECT_EQ(args.get_long("count", 0), 3);
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
  EXPECT_EQ(args.argv(), std::vector<std::string>(argv, argv + 5));
}

// Each malformed value exits 2 with the parser's diagnostic on stderr. The
// threadsafe style re-runs the test binary instead of forking it, which
// the sanitizer builds' runtime threads tolerate.
void expect_rejected(std::vector<const char*> flags, const char* message) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  flags.insert(flags.begin(), "prog");
  EXPECT_EXIT((void)numeric_parser().parse(static_cast<int>(flags.size()),
                                           flags.data()),
              testing::ExitedWithCode(2), message)
      << flags[1];
}

TEST(ArgParserDeathTest, RejectsEmptyInteger) {
  expect_rejected({"--count="}, "invalid value for --count");
}

TEST(ArgParserDeathTest, RejectsOutOfRangeInteger) {
  expect_rejected({"--count=99999999999999999999"},
                  "invalid value for --count");
}

TEST(ArgParserDeathTest, RejectsNegativeInteger) {
  expect_rejected({"--count=-1"}, "--count: must not be negative");
}

TEST(ArgParserDeathTest, RejectsEmptyDouble) {
  expect_rejected({"--rate="}, "invalid value for --rate");
}

TEST(ArgParserDeathTest, RejectsOutOfRangeDouble) {
  expect_rejected({"--rate=1e999"}, "invalid value for --rate");
}

TEST(ArgParserDeathTest, NamesWhatIsWrongWithAValue) {
  expect_rejected({"--rate=abc"}, "invalid value for --rate: not a number\n");
  expect_rejected({"--count=1.5"},
                  "invalid value for --count: not an integer\n");
  expect_rejected({"--count=99999999999999999999"},
                  "invalid value for --count: out of range\n");
}

TEST(ArgParserDeathTest, RejectsUndeclaredPositional) {
  // A binary reads no positional unless it declares one: a stray `2` after
  // a flag's value is an error, not silently dropped.
  expect_rejected({"--count", "4", "2"}, "unexpected argument '2'");
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* argv[] = {"prog", "in", "out", "extra"};
  EXPECT_EXIT((void)numeric_parser().allow_positionals(2).parse(4, argv),
              testing::ExitedWithCode(2), "unexpected argument 'extra'");
}

TEST(ArgParserDeathTest, RejectsRepeatedFlag) {
  // The getters read the first occurrence: a second one, valid or not,
  // would otherwise be silently ignored.
  expect_rejected({"--rate", "0.25", "--rate=abc"},
                  "flag --rate given more than once");
  expect_rejected({"--count=1", "--count=2"},
                  "flag --count given more than once");
}

}  // namespace
