// Exact ratio policy iteration with renewal-cycle policy evaluation (the
// theory, the cut and the stopping certificate: docs/THEORY.md).
//
// Maximizes num_rate(pi) / den_rate(pi) over the stationary policies of a
// unichain model; a unit denominator makes it the average reward. Once
// state 0 is removed, the union of the actions' transition graphs is
// acyclic on every bu model, so one pass in reverse topological order
// evaluates a policy exactly: each state's totals until state 0, whose
// cycle ratio is the policy's value (the renewal-reward theorem). Where
// cycles remain (the selfish-mining baseline, whose state 0 is transient),
// a depth-first search cuts them at a set C, and a dense solve over C and
// state 0 finishes the evaluation. Improvement keeps each state's action
// unless another is better by a relative 1e-10, and the solve stops when
// no state changes. The order and the cut are derived on every call. RVI
// (average_reward.hpp, ratio.hpp) remains the solver of every default
// path; this is the library's exact oracle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// The largest cut an evaluation may take. Its working set is
/// n x (|C| + 3) doubles for the pass plus (|C| + 1)^2 for the dense solve,
/// so a model above either bound is rejected before either is allocated.
inline constexpr std::size_t kMaxCutStates = 2000;
inline constexpr std::size_t kMaxEvaluationCells = std::size_t{1} << 27;

struct PolicyIterationResult : SolveReport {
  /// u, the ratio of `policy`'s numerator and denominator rates: once
  /// converged the optimal ratio, or with a unit denominator the optimal
  /// average reward.
  double value = 0.0;
  /// Per state, the numerator stream's bias minus u times the
  /// denominator's, both normalized to 0 at state 0.
  std::vector<double> bias;
  Policy policy;
  /// |C|: the states whose values the dense solve finds; 0 on every bu
  /// model.
  std::size_t cut_states = 0;

  /// Rounds that changed the policy (the base report's iteration count).
  [[nodiscard]] int improvements() const noexcept { return iterations; }
};

/// Maximizes the ratio of the `numerator` and `denominator` streams, both
/// indexed by (state, action) pair (CompiledModel::sa_index), starting from
/// every state's first action. The denominator must be non-negative: a
/// policy that accrues none keeps the previous ratio (0 at the start), and
/// one that accrues numerator without it ends kDegenerateModel. One guard
/// tick per evaluation; on budget exhaustion or cancellation the last
/// evaluated policy (or the initial one) is returned. Throws
/// std::invalid_argument when a stream does not cover every pair, the cut
/// exceeds the bounds above, or a policy has more than one recurrent class.
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> numerator,
    std::span<const double> denominator,
    const robust::RunControl& control = {});

}  // namespace bvc::mdp
