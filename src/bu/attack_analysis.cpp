#include "bu/attack_analysis.hpp"

#include <sstream>
#include <utility>

#include "mdp/average_reward.hpp"
#include "mdp/model_cache.hpp"
#include "util/check.hpp"

namespace bvc::bu {

namespace {

/// A safe upper bound on the utility value, needed by the ratio solver's
/// bisection fallback.
double utility_upper_bound(const AttackParams& params, Utility utility) {
  switch (utility) {
    case Utility::kRelativeRevenue:
      return 1.0;
    case Utility::kAbsoluteReward:
      // Per step at most one block reward plus (loosely) one settled
      // double-spend per orphaned block of a chain shorter than AD.
      return 1.0 + params.rds * static_cast<double>(params.max_ad());
    case Utility::kOrphaning:
      // Each fork orphans fewer than AD blocks of the losing chain.
      return 3.0 * static_cast<double>(params.max_ad());
  }
  return 1.0;
}

/// The ratio solve behind both analyze() overloads.
AnalysisResult solve(const mdp::CompiledModel& compiled,
                     const AttackParams& params, Utility utility,
                     const AnalysisOptions& options) {
  mdp::RatioKnobs ratio_options;
  ratio_options.inner = options.inner;
  ratio_options.tolerance = options.tolerance;
  ratio_options.lower_bound = 0.0;
  ratio_options.upper_bound = utility_upper_bound(params, utility);
  ratio_options.control = options.control;

  mdp::RatioResult ratio =
      mdp::maximize_ratio_with_retry(compiled, ratio_options);

  AnalysisResult result;
  result.utility_value = ratio.ratio;
  result.policy = ratio.policy;
  result.reward_rate = ratio.reward_rate;
  result.weight_rate = ratio.weight_rate;
  result.status = ratio.status;
  result.iterations = ratio.iterations;
  result.wall_clock_ns = ratio.wall_clock_ns;
  result.diagnostics = ratio.diagnostics;
  result.honest_baseline = utility == Utility::kOrphaning ? 0.0 : params.alpha;
  result.attack_beats_honest =
      result.utility_value >
      result.honest_baseline + 10.0 * options.tolerance;
  return result;
}

}  // namespace

AnalysisResult analyze(const AttackModel& model,
                       const AnalysisOptions& options) {
  BVC_REQUIRE(model.compiled != nullptr,
              "analyze needs the AttackModel's compiled model");
  return solve(*model.compiled, model.params, model.utility, options);
}

AnalysisResult analyze(const AttackParams& params, Utility utility,
                       const AnalysisOptions& options) {
  return solve(*attack_model_compiled(params, utility), params, utility,
               options);
}

std::string analysis_job_key(const AnalysisJob& job,
                             const AnalysisOptions& options) {
  // The model key covers (params, utility); the solver knobs below are the
  // remaining inputs that shape the reported numbers. RunControl budgets are
  // deliberately NOT part of the key: a cell that converged under one budget
  // is the same result under any other.
  std::string key = attack_model_cache_key(job.params, job.utility);
  mdp::append_key(key, "tol", options.tolerance);
  mdp::append_key(key, "itol", options.inner.tolerance);
  mdp::append_key(key, "isweeps",
                  static_cast<std::int64_t>(options.inner.max_sweeps));
  mdp::append_key(key, "itau", options.inner.aperiodicity_tau);
  return key;
}

robust::CheckpointRecord analysis_record(const std::string& key,
                                         const AnalysisResult& result,
                                         bool persist_policy) {
  robust::CheckpointRecord record;
  record.key = key;
  record.status = result.status;
  record.values = {
      {"utility_value", result.utility_value},
      {"honest_baseline", result.honest_baseline},
      {"beats_honest", result.attack_beats_honest ? 1.0 : 0.0},
      {"reward_rate", result.reward_rate},
      {"weight_rate", result.weight_rate},
      {"iterations", static_cast<double>(result.iterations)},
      {"wall_clock_ns", static_cast<double>(result.wall_clock_ns)},
  };
  if (persist_policy) {
    record.policy.assign(result.policy.action.begin(),
                         result.policy.action.end());
  }
  return record;
}

bool analysis_restore(const robust::CheckpointRecord& record,
                      AnalysisResult& result) {
  if (!record.has_value("utility_value") ||
      !record.has_value("honest_baseline")) {
    return false;
  }
  result = AnalysisResult{};
  result.status = record.status;
  result.utility_value = record.value_or("utility_value", 0.0);
  result.honest_baseline = record.value_or("honest_baseline", 0.0);
  result.attack_beats_honest = record.value_or("beats_honest", 0.0) != 0.0;
  result.reward_rate = record.value_or("reward_rate", 0.0);
  result.weight_rate = record.value_or("weight_rate", 0.0);
  result.iterations = static_cast<int>(record.value_or("iterations", 0.0));
  result.wall_clock_ns =
      static_cast<std::int64_t>(record.value_or("wall_clock_ns", 0.0));
  result.policy.action.assign(record.policy.begin(), record.policy.end());
  return true;
}

std::vector<AnalysisResult> analyze_batch(std::span<const AnalysisJob> jobs,
                                          const AnalysisOptions& options,
                                          const mdp::BatchConfig& batch,
                                          robust::CheckpointJournal* journal,
                                          mdp::BatchReport* report) {
  mdp::CellBatch<AnalysisResult> out = mdp::run_cells<AnalysisResult>(
      jobs.size(), batch, journal,
      [&](std::size_t i, const robust::RunControl& control) {
        AnalysisOptions item_options = options;
        item_options.control = control;
        return analyze(jobs[i].params, jobs[i].utility, item_options);
      },
      {.key = [&](std::size_t i) { return analysis_job_key(jobs[i], options); },
       .record =
           [&](const std::string& key, const AnalysisResult& result) {
             return analysis_record(key, result, options.persist_policy);
           },
       .restore = analysis_restore});
  if (report != nullptr) {
    *report = out.report;
  }
  return std::move(out.results);
}

namespace {
AttackParams make_params(double alpha, double beta, double gamma,
                         Setting setting, unsigned ad) {
  AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = setting;
  params.ad = ad;
  return params;
}
}  // namespace

double max_relative_revenue(double alpha, double beta, double gamma,
                            Setting setting, unsigned ad) {
  return analyze(make_params(alpha, beta, gamma, setting, ad),
                 Utility::kRelativeRevenue)
      .utility_value;
}

double max_absolute_reward(double alpha, double beta, double gamma,
                           Setting setting, unsigned ad) {
  return analyze(make_params(alpha, beta, gamma, setting, ad),
                 Utility::kAbsoluteReward)
      .utility_value;
}

double max_orphaning(double alpha, double beta, double gamma, Setting setting,
                     unsigned ad) {
  return analyze(make_params(alpha, beta, gamma, setting, ad),
                 Utility::kOrphaning)
      .utility_value;
}

Action policy_action(const AttackModel& model, const mdp::Policy& policy,
                     const AttackState& state) {
  const mdp::StateId id = model.space.index(state);
  BVC_REQUIRE(id < policy.action.size(),
              "policy does not cover this state space");
  const std::uint32_t local = policy.action[id];
  return static_cast<Action>(model.model.action_label(id, local));
}

std::string describe_policy(const AttackModel& model,
                            const mdp::Policy& policy) {
  std::ostringstream out;
  const AttackState base{};
  out << "base " << to_string(base) << " -> "
      << to_string(policy_action(model, policy, base)) << '\n';
  for (std::uint16_t l2 = 1; l2 + 1u <= model.params.max_ad(); ++l2) {
    for (std::uint16_t l1 = 0; l1 <= l2; ++l1) {
      for (std::uint16_t a1 = 0; a1 <= l1; ++a1) {
        for (std::uint16_t a2 = 1; a2 <= l2; ++a2) {
          const AttackState state{l1, l2, a1, a2, 0};
          out << to_string(state) << " -> "
              << to_string(policy_action(model, policy, state)) << '\n';
        }
      }
    }
  }
  return out.str();
}

RolloutResult rollout_policy(const AttackModel& model,
                             const mdp::Policy& policy, std::uint64_t steps,
                             Rng& rng) {
  BVC_REQUIRE(policy.action.size() == model.space.size(),
              "policy does not cover this state space");
  RolloutResult result;
  AttackState state{};  // base
  double num = 0.0;
  double den = 0.0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const mdp::StateId id = model.space.index(state);
    const auto action =
        static_cast<Action>(model.model.action_label(id, policy.action[id]));
    const std::array<double, 3> probs =
        event_probabilities(model.params, action);
    const std::size_t which = rng.next_categorical(probs);
    const StepResult step = apply_event(model.params, state,
                                        action, static_cast<Event>(which));
    const auto [dn, dd] = utility_increments(model.utility, step.deltas);
    num += dn;
    den += dd;
    result.totals.alice_locked += step.deltas.alice_locked;
    result.totals.others_locked += step.deltas.others_locked;
    result.totals.alice_orphaned += step.deltas.alice_orphaned;
    result.totals.others_orphaned += step.deltas.others_orphaned;
    result.totals.double_spend += step.deltas.double_spend;
    state = step.next;
  }
  result.steps = steps;
  result.utility_estimate = den > 0.0 ? num / den : 0.0;
  return result;
}

}  // namespace bvc::bu
