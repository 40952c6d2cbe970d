#include "mdp/rollout.hpp"

#include "util/check.hpp"

namespace bvc::mdp {

ModelRolloutResult rollout_model(const CompiledModel& model,
                                 const Policy& policy, StateId start,
                                 std::uint64_t steps, Rng& rng,
                                 const robust::RunControl& control) {
  BVC_REQUIRE(policy.action.size() == model.num_states(),
              "policy must cover every state");
  BVC_REQUIRE(start < model.num_states(), "start state out of range");

  robust::RunGuard guard(control, /*clock_stride=*/1024);
  const double* prob_col = model.prob();
  ModelRolloutResult result;
  StateId state = start;
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (const auto stop_status = guard.tick()) {
      result.status = *stop_status;
      result.steps = i;
      return result;
    }
    const SaIndex sa = model.sa_index(state, policy.action[state]);
    const std::size_t begin = model.outcome_begin(sa);
    const std::size_t end = model.outcome_end(sa);
    // Sample a branch by probability mass, in stored order (the same order
    // the Model path iterates, so identical rng draws pick identical
    // branches).
    double u = rng.next_double();
    std::size_t chosen = end - 1;
    for (std::size_t k = begin; k < end; ++k) {
      if (u < prob_col[k]) {
        chosen = k;
        break;
      }
      u -= prob_col[k];
    }
    result.reward_total += model.reward()[chosen];
    result.weight_total += model.weight()[chosen];
    state = model.next()[chosen];
  }
  result.steps = steps;
  return result;
}

}  // namespace bvc::mdp
