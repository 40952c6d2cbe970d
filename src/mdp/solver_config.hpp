// The unified front door for all four MDP solvers.
//
// Historically each solver grew its own option struct (AverageRewardOptions,
// DiscountedOptions, PolicyIterationOptions, RatioOptions), each nesting its
// own RunControl — callers that tried several solvers, or threaded one
// budget through a nested solve, had to copy knobs between shapes. A
// SolverConfig holds every knob once:
//
//   * `average_reward` — the relative-value-iteration core shared by the
//     average-reward and ratio solvers;
//   * `ratio` / `discounted` / `policy_iteration` — per-solver extras;
//   * `control` — ONE budget/cancellation bundle, consumed by whichever
//     solver the config is handed to;
//   * `threads` — value-iteration worker threads (docs/PARALLELISM.md).
//
// Every solver entry point — including the fixed-policy evaluators — accepts
// a SolverConfig through the overloads declared below. The legacy per-solver
// option structs are gone; the underlying knob blocks (`*Knobs`) are what a
// SolverConfig lowers to internally.
#pragma once

#include <span>
#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/discounted.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "robust/retry.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

struct SolverConfig {
  /// Inner relative-value-iteration knobs (tolerance, sweep cap,
  /// aperiodicity damping). Its nested `control` and `threads` fields are
  /// overwritten by the top-level `control`/`threads` below whenever the
  /// config is lowered to per-solver knobs — set them here only if you
  /// bypass SolverConfig entirely.
  AverageRewardKnobs average_reward;

  /// Ratio (Dinkelbach + bisection) outer-loop extras; see RatioKnobs
  /// for the field semantics.
  struct RatioExtras {
    double tolerance = 1e-6;
    int max_iterations = 200;
    double lower_bound = 0.0;
    double upper_bound = 1.0;
    double min_weight_rate = 1e-9;
  } ratio;

  /// Discounted value-iteration extras; see DiscountedKnobs.
  struct DiscountedExtras {
    double discount = 0.999;
    double tolerance = 1e-10;
    int max_sweeps = 1000000;
  } discounted;

  /// Howard policy-iteration extras; see PolicyIterationKnobs.
  struct PolicyIterationExtras {
    int max_improvements = 1000;
    double improvement_tolerance = 1e-10;
    StateId max_states = 5000;
  } policy_iteration;

  /// One wall-clock/iteration budget plus cancellation for whichever
  /// solver consumes this config (nested solves share it cooperatively,
  /// exactly as with the per-solver knob blocks).
  robust::RunControl control;

  /// Value-iteration worker threads. 1 (default) keeps the serial sweep,
  /// bit-identical to previous releases; >= 2 enables the deterministic
  /// chunked parallel sweep (identical results for every thread count
  /// >= 2). Batch fan-out across whole solves is a separate knob —
  /// BatchConfig::threads in mdp/batch.hpp.
  int threads = 1;

  /// Optional warm-start bias for a ratio solve (RatioKnobs field of the
  /// same name): borrowed, seeds the first inner linearized solve when its
  /// size matches the model's state count, silently ignored otherwise.
  /// Populated by the batch layer's cross-cell warm starts
  /// (BatchConfig::warm_start); ignored by the non-ratio solvers, which
  /// take their warm start as an explicit argument.
  const std::vector<double>* warm_start_bias = nullptr;

  // Lowerings to the per-solver knob blocks. These stamp `control` and
  // `threads` into the result; everything else is copied from the blocks
  // above.
  [[nodiscard]] AverageRewardKnobs average_reward_options() const;
  [[nodiscard]] DiscountedKnobs discounted_options() const;
  [[nodiscard]] PolicyIterationKnobs policy_iteration_options() const;
  [[nodiscard]] RatioKnobs ratio_options() const;
};

// The single SolverConfig overload of each solver. Results are identical to
// calling the knob-block overload with the corresponding lowered knobs.
// Every solver also accepts a precompiled model (mdp::CompiledModel — e.g.
// a ModelCache entry) so repeated solves skip recompilation; results are
// bit-identical either way.

[[nodiscard]] GainResult maximize_average_reward(const Model& model,
                                                 const SolverConfig& config);
[[nodiscard]] GainResult maximize_average_reward(const CompiledModel& model,
                                                 const SolverConfig& config);
[[nodiscard]] GainResult maximize_average_reward(
    const Model& model, std::span<const double> sa_rewards,
    const SolverConfig& config,
    const std::vector<double>* warm_start_bias = nullptr);
[[nodiscard]] GainResult maximize_average_reward(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const SolverConfig& config,
    const std::vector<double>* warm_start_bias = nullptr);

[[nodiscard]] DiscountedResult solve_discounted(const Model& model,
                                                const SolverConfig& config);
[[nodiscard]] DiscountedResult solve_discounted(const CompiledModel& model,
                                                const SolverConfig& config);

[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, const SolverConfig& config);
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, const SolverConfig& config);
[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, std::span<const double> sa_rewards,
    const SolverConfig& config);
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const SolverConfig& config);

[[nodiscard]] RatioResult maximize_ratio(const Model& model,
                                         const SolverConfig& config);
[[nodiscard]] RatioResult maximize_ratio(const CompiledModel& model,
                                         const SolverConfig& config);
[[nodiscard]] RatioResult maximize_ratio_with_retry(
    const Model& model, const SolverConfig& config,
    const robust::RetryPolicy& retry = {});
[[nodiscard]] RatioResult maximize_ratio_with_retry(
    const CompiledModel& model, const SolverConfig& config,
    const robust::RetryPolicy& retry = {});

// Fixed-policy evaluators behind the same front door (their knob-block
// overloads remain in the solver headers for the solvers' internal use).

[[nodiscard]] GainResult evaluate_policy_stream(
    const Model& model, const Policy& policy,
    std::span<const double> sa_rewards, const SolverConfig& config,
    const std::vector<double>* warm_start_bias = nullptr);
[[nodiscard]] GainResult evaluate_policy_stream(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards, const SolverConfig& config,
    const std::vector<double>* warm_start_bias = nullptr);

[[nodiscard]] PolicyGains evaluate_policy_average(
    const Model& model, const Policy& policy, const SolverConfig& config,
    std::vector<double>* reward_bias = nullptr,
    std::vector<double>* weight_bias = nullptr);
[[nodiscard]] PolicyGains evaluate_policy_average(
    const CompiledModel& model, const Policy& policy,
    const SolverConfig& config, std::vector<double>* reward_bias = nullptr,
    std::vector<double>* weight_bias = nullptr);

[[nodiscard]] PolicyIterationResult evaluate_policy_exact(
    const Model& model, const Policy& policy,
    std::span<const double> sa_rewards, const SolverConfig& config);
[[nodiscard]] PolicyIterationResult evaluate_policy_exact(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards, const SolverConfig& config);

}  // namespace bvc::mdp
