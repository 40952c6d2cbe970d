// Exact ratio policy iteration (renewal-cycle evaluation): against RVI on
// random models and on the paper's attack model, on hand-made chains whose
// cycle accrues no denominator, against the committed Table 2-4 reference
// values on all 130 paper cells (every bu cell with an empty cut), the
// selfish-mining baseline (a non-empty cut) against tight RVI, and the
// 435,580-state setting-2 AD-12 model within this binary's ctest timeout.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;
using namespace bvc::mdp;

Model random_model(Rng& rng, StateId states, std::size_t actions) {
  ModelBuilder builder(states);
  for (StateId s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<ActionLabel>(a));
      std::vector<double> probs(states);
      double total = 0.0;
      for (double& p : probs) {
        p = 0.05 + rng.next_double();
        total += p;
      }
      for (StateId next = 0; next < states; ++next) {
        builder.add_outcome(next, probs[next] / total,
                            rng.next_double() * 4.0 - 1.0, 0.0);
      }
    }
  }
  return builder.build();
}

/// The model's reward stream over a unit denominator: the average reward.
PolicyIterationResult exact_gain(const CompiledModel& model) {
  const std::vector<double> unit(model.num_state_actions(), 1.0);
  return policy_iteration(
      model, {model.expected_reward(), model.num_state_actions()}, unit);
}

/// The ratio of the model's reward and weight streams.
PolicyIterationResult exact_ratio(const CompiledModel& model) {
  const std::size_t actions = model.num_state_actions();
  return policy_iteration(model, {model.expected_reward(), actions},
                          {model.expected_weight(), actions});
}

TEST(PolicyIteration, ExactEvaluationOnTwoStateChain) {
  // Alternator with rewards 1 and 3: the cycle from state 0 earns 4 in 2
  // steps, so g = 2, and h(1) = 3 - g * 1 = 1.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 3.0, 0.0);
  const PolicyIterationResult result =
      exact_gain(CompiledModel::compile(builder.build()));
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.value, 2.0);
  EXPECT_EQ(result.bias[0], 0.0);
  EXPECT_EQ(result.bias[1], 1.0);
}

TEST(PolicyIteration, AgreesWithRviOnRandomModels) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const StateId states = 2 + static_cast<StateId>(rng.next_below(8));
    const std::size_t actions = 1 + rng.next_below(4);
    const Model model = random_model(rng, states, actions);

    const CompiledModel compiled = CompiledModel::compile(model);
    const PolicyIterationResult exact = exact_gain(compiled);
    const GainResult iterative = maximize_average_reward(compiled);
    EXPECT_TRUE(exact.converged());
    EXPECT_NEAR(exact.value, iterative.gain, 1e-6) << "trial " << trial;
  }
}

TEST(PolicyIteration, ConvergesInFewImprovements) {
  Rng rng(7);
  const PolicyIterationResult result =
      exact_gain(CompiledModel::compile(random_model(rng, 10, 3)));
  EXPECT_TRUE(result.converged());
  EXPECT_LE(result.improvements(), 20);
}

TEST(PolicyIteration, SolvesTheSetting1AttackModelExactly) {
  // The paper's setting-1 model at AD 6: the exact ratio agrees with RVI
  // solved to 1e-9, and the model has no cycle once base is removed.
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  params.ad = 6;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const PolicyIterationResult exact = exact_ratio(*attack.compiled);
  bu::AnalysisOptions tight;
  tight.tolerance = 1e-9;
  tight.inner.tolerance = 1e-11;
  const bu::AnalysisResult iterative = bu::analyze(attack, tight);
  EXPECT_TRUE(exact.converged());
  EXPECT_EQ(exact.cut_states, 0u);
  EXPECT_NEAR(exact.value, iterative.utility_value, 1e-8);
  EXPECT_NEAR(exact.value, 0.2624, 1e-3);
}

TEST(PolicyIteration, ZeroDenominatorCycleIsNotDivided) {
  // State 0's first action idles with nothing on either stream, as a
  // Table 4 miner who always waits; its second earns 1 per 2 of
  // denominator through state 1. The first policy's cycle has D = 0.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 0.0, 0.0);
  builder.begin_action(0, 1);
  builder.add_outcome(1, 1.0, 0.25, 0.5);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 0.75, 1.5);
  const PolicyIterationResult result =
      exact_ratio(CompiledModel::compile(builder.build()));
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.value, 0.5);
  EXPECT_EQ(result.policy.action[0], 1u);
}

TEST(PolicyIteration, NumeratorWithoutDenominatorIsDegenerate) {
  // A cycle that accrues numerator but no denominator: the ratio is
  // unbounded.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 1.0, 0.0);
  const PolicyIterationResult result =
      exact_ratio(CompiledModel::compile(builder.build()));
  EXPECT_EQ(result.status, robust::RunStatus::kDegenerateModel);
}

TEST(PolicyIteration, RejectsOversizedModels) {
  // A path where each state steps forward or back: the search cuts every
  // state it backs into, one more than the dense solve may take.
  const StateId states = static_cast<StateId>(kMaxCutStates) + 3;
  ModelBuilder builder(states);
  for (StateId s = 0; s < states; ++s) {
    builder.begin_action(s, 0);
    builder.add_outcome((s + 1) % states, 0.5, 1.0, 1.0);
    builder.add_outcome(s == 0 ? 0 : s - 1, 0.5, 0.0, 1.0);
  }
  EXPECT_THROW((void)exact_gain(CompiledModel::compile(builder.build())),
               std::invalid_argument);
}

TEST(PolicyIteration, RejectsMismatchedStreams) {
  Rng rng(4);
  const CompiledModel model =
      CompiledModel::compile(random_model(rng, 4, 2));
  const std::vector<double> full(model.num_state_actions(), 1.0);
  const std::vector<double> short_stream(2, 1.0);
  EXPECT_THROW((void)policy_iteration(model, short_stream, full),
               std::invalid_argument);
  EXPECT_THROW((void)policy_iteration(model, full, short_stream),
               std::invalid_argument);
}

// ---- the paper's cells ----------------------------------------------------

using Row = std::map<std::string, std::string>;

/// A committed bench CSV, one map per row keyed by the header's names.
std::vector<Row> read_reference(const std::string& name) {
  std::ifstream in(std::string(BVC_SOURCE_DIR) + "/perfbench/reference/" +
                   name);
  EXPECT_TRUE(in.good()) << name;
  const auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::stringstream stream(line);
    std::string field;
    while (std::getline(stream, field, ',')) {
      fields.push_back(field);
    }
    if (!line.empty() && line.back() == ',') {
      fields.emplace_back();
    }
    return fields;
  };
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> header = split(line);
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    const std::vector<std::string> fields = split(line);
    EXPECT_EQ(fields.size(), header.size()) << line;
    Row row;
    for (std::size_t i = 0; i < header.size() && i < fields.size(); ++i) {
      row[header[i]] = fields[i];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The bench cell behind a reference row: the smallest b:g split whose
/// bu::grid_cell prints the row's beta and gamma, as the benches build it.
bu::AttackParams reference_cell(const Row& row, const std::string& setting) {
  const double alpha = std::stod(row.at("alpha"));
  for (int b = 1; b <= 9; ++b) {
    for (int g = 1; g <= 9; ++g) {
      bu::AttackParams params = bu::grid_cell(alpha, b, g);
      if (format_fixed(params.beta, 4) == row.at("beta") &&
          format_fixed(params.gamma, 4) == row.at("gamma")) {
        params.setting = setting == "2" ? bu::Setting::kStickyGate
                                        : bu::Setting::kNoStickyGate;
        return params;
      }
    }
  }
  ADD_FAILURE() << "no b:g split prints beta " << row.at("beta")
                << " and gamma " << row.at("gamma");
  return {};
}

/// The exact value of a reference cell must be within 2e-5 of the value
/// the bench printed at 6 decimals; a cell outside is reported with its
/// RVI value at tolerance 1e-9.
void expect_bu_cell(const Row& row, const std::string& setting,
                    const std::string& column, bu::Utility utility) {
  const bu::AttackParams params = reference_cell(row, setting);
  SCOPED_TRACE(bu::attack_model_cache_key(params, utility));
  const PolicyIterationResult exact =
      exact_ratio(*bu::attack_model_compiled(params, utility));
  EXPECT_TRUE(exact.converged());
  EXPECT_EQ(exact.cut_states, 0u);
  const double reference = std::stod(row.at(column));
  if (std::abs(exact.value - reference) > 2e-5) {
    bu::AnalysisOptions tight;
    tight.tolerance = 1e-9;
    tight.inner.tolerance = 1e-11;
    ADD_FAILURE() << "exact " << format_fixed(exact.value, 9)
                  << " against reference " << row.at(column) << " and RVI "
                  << format_fixed(bu::analyze(params, utility, tight)
                                      .utility_value,
                                  9);
  }
}

TEST(PolicyIteration, PaperCellsMatchTheReferenceTables) {
  std::size_t cells = 0;
  for (const Row& row : read_reference("table2.txt")) {
    expect_bu_cell(row, row.at("setting"), "u1",
                   bu::Utility::kRelativeRevenue);
    ++cells;
  }
  for (const Row& row : read_reference("table4.txt")) {
    expect_bu_cell(row, row.at("setting"), "u3", bu::Utility::kOrphaning);
    ++cells;
  }
  for (const Row& row : read_reference("table3.txt")) {
    ++cells;
    if (row.at("protocol") == "bu") {
      expect_bu_cell(row, row.at("setting_or_tiewin"), "u2",
                     bu::Utility::kAbsoluteReward);
      continue;
    }
    // The Bitcoin selfish-mining + double-spending baseline.
    btc::SmParams params;
    params.alpha = std::stod(row.at("alpha"));
    params.gamma_tie = std::stod(row.at("setting_or_tiewin"));
    SCOPED_TRACE(btc::sm_model_cache_key(params,
                                         bu::Utility::kAbsoluteReward));
    const PolicyIterationResult exact = exact_ratio(
        *btc::sm_model_compiled(params, bu::Utility::kAbsoluteReward));
    EXPECT_TRUE(exact.converged());
    EXPECT_GT(exact.cut_states, 0u);
    EXPECT_NEAR(exact.value, std::stod(row.at("u2")), 2e-5);
  }
  EXPECT_EQ(cells, 130u);
}

TEST(PolicyIteration, SelfishMiningBaselineAgreesWithRvi) {
  // Its cyclic core needs a cut: the dense half of the solver runs here.
  for (const double gamma_tie : {0.5, 1.0}) {
    btc::SmParams params;
    params.alpha = 0.25;
    params.gamma_tie = gamma_tie;
    const std::shared_ptr<const CompiledModel> model =
        btc::sm_model_compiled(params, bu::Utility::kAbsoluteReward);
    const PolicyIterationResult exact = exact_ratio(*model);
    RatioKnobs tight;
    tight.tolerance = 1e-9;
    tight.inner.tolerance = 1e-11;
    tight.upper_bound = 1.0 + params.rds;
    const RatioResult iterative = maximize_ratio(*model, tight);
    EXPECT_TRUE(exact.converged());
    EXPECT_TRUE(iterative.converged());
    EXPECT_GT(exact.cut_states, 0u);
    EXPECT_NEAR(exact.value, iterative.ratio, 1e-8) << gamma_tie;
  }
}

TEST(PolicyIteration, SolvesTheSetting2Ad12ModelWithinTheTimeout) {
  // 435,580 states, where RVI takes minutes; the binary's ctest TIMEOUT is
  // the bound, template build included.
  bu::AttackParams params = bu::grid_cell(0.20, 1, 1);
  params.setting = bu::Setting::kStickyGate;
  params.ad = 12;
  const std::shared_ptr<const CompiledModel> model =
      bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  ASSERT_EQ(model->num_states(), 435'580u);
  const PolicyIterationResult exact = exact_ratio(*model);
  EXPECT_TRUE(exact.converged());
  EXPECT_EQ(exact.cut_states, 0u);
  EXPECT_GT(exact.value, params.alpha);
  EXPECT_LT(exact.value, 1.0);
}

}  // namespace
