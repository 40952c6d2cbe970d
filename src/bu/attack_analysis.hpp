// High-level solving and inspection of the fork-attack MDP: one call per
// cell of the paper's Tables 2–4.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bu/attack_model.hpp"
#include "mdp/batch.hpp"
#include "mdp/ratio.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace bvc::bu {

struct AnalysisOptions {
  /// Accuracy of the reported utility value. The paper solves to 1e-4; we
  /// default one decade tighter.
  double tolerance = 1e-5;
  mdp::AverageRewardKnobs inner = [] {
    mdp::AverageRewardKnobs o;
    o.tolerance = 2e-7;
    o.max_sweeps = 30000;
    o.aperiodicity_tau = 0.999;
    return o;
  }();
  /// Wall-clock/iteration budget and cancellation for the whole analysis
  /// (all attempts of mdp::maximize_ratio_with_retry included).
  robust::RunControl control;
  /// analyze_batch only: journal each cell's optimal policy too, so resumed
  /// consumers can replay it (the ablation scenario simulations need this;
  /// the plain tables do not — policies dominate journal size). Not part
  /// of the cell key.
  bool persist_policy = false;
};

/// The base report carries how the underlying ratio solve ended (status,
/// iterations, wall clock, diagnostics). Any status other than kConverged
/// means `utility_value` is a best-effort lower bound, not a certified
/// optimum — table-reproduction callers must check converged().
struct AnalysisResult : mdp::SolveReport {
  double utility_value = 0.0;  ///< max u over the strategy space
  /// The honest reference: u1 = u2 = alpha for a compliant miner in a
  /// healthy network; u3 has reference 0 (no compliant blocks orphaned).
  double honest_baseline = 0.0;
  /// Whether the optimum exceeds the honest baseline beyond tolerance —
  /// i.e. whether deviating from "always mine on Chain 1" pays.
  bool attack_beats_honest = false;
  mdp::Policy policy;          ///< optimal policy (local action indices)
  double reward_rate = 0.0;    ///< numerator rate of the optimal policy
  double weight_rate = 0.0;    ///< denominator rate of the optimal policy

  /// Outer ratio iterations (the base report's iteration count).
  [[nodiscard]] int solver_iterations() const noexcept { return iterations; }
};

/// Solves for Alice's optimal utility within the strategy space, on the
/// cell's attack_model_compiled() entry: a cell the cache already holds is
/// solved without enumerating its state space.
[[nodiscard]] AnalysisResult analyze(const AttackParams& params,
                                     Utility utility,
                                     const AnalysisOptions& options = {});

/// As analyze(), on an already-built model, for callers that also need its
/// state space (rollouts, policy dumps, cross-validation). Solves on
/// `model.compiled`, which must be set (as build_attack_model sets it).
/// Bit-identical to analyze(model.params, model.utility, options), which
/// solves the cell's template instance.
[[nodiscard]] AnalysisResult analyze(const AttackModel& model,
                                     const AnalysisOptions& options = {});

/// One cell of a table sweep for analyze_batch: the model is looked up (and
/// on a miss built) inside the worker, so jobs are cheap to enumerate up
/// front.
struct AnalysisJob {
  AttackParams params;
  Utility utility = Utility::kRelativeRevenue;
};

/// Canonical checkpoint key of one sweep cell: the ModelCache key of the
/// effective (params, utility) model plus every solver knob that shapes the
/// reported value — two cells share a journal entry iff they are guaranteed
/// to produce identical results.
[[nodiscard]] std::string analysis_job_key(const AnalysisJob& job,
                                           const AnalysisOptions& options);

/// Batched analyze(): solves every job through mdp::run_cells under the
/// shared budget in `batch.control` (per-item budgets in `options.control`
/// are ignored — the engine stamps each item with the batch's remaining
/// allowance). Results are input-ordered and independent of the thread
/// count; skipped items carry kBudgetExhausted / kCancelled. With a
/// `journal`, completed cells are journaled as they finish (with their
/// policies when `options.persist_policy`) and journaled cells are restored
/// instead of re-solved. The optional `report` receives the engine's
/// BatchReport.
[[nodiscard]] std::vector<AnalysisResult> analyze_batch(
    std::span<const AnalysisJob> jobs, const AnalysisOptions& options = {},
    const mdp::BatchConfig& batch = {},
    robust::CheckpointJournal* journal = nullptr,
    mdp::BatchReport* report = nullptr);

/// Journal (de)serialization of one analysis cell, exposed for the resume
/// tests. restore returns false on a record missing required fields (schema
/// drift) — the caller then recomputes the cell.
[[nodiscard]] robust::CheckpointRecord analysis_record(
    const std::string& key, const AnalysisResult& result, bool persist_policy);
[[nodiscard]] bool analysis_restore(const robust::CheckpointRecord& record,
                                    AnalysisResult& result);

/// Convenience wrappers, one per table.
[[nodiscard]] double max_relative_revenue(double alpha, double beta,
                                          double gamma, Setting setting,
                                          unsigned ad = 6);
[[nodiscard]] double max_absolute_reward(double alpha, double beta,
                                         double gamma, Setting setting,
                                         unsigned ad = 6);
[[nodiscard]] double max_orphaning(double alpha, double beta, double gamma,
                                   Setting setting, unsigned ad = 6);

/// The action the policy chooses in `state` (resolving local indices).
[[nodiscard]] Action policy_action(const AttackModel& model,
                                   const mdp::Policy& policy,
                                   const AttackState& state);

/// Human-readable policy dump for the phase-1 fork states (and the base
/// state), e.g. for the quickstart example.
[[nodiscard]] std::string describe_policy(const AttackModel& model,
                                          const mdp::Policy& policy);

/// Outcome of rolling the MDP dynamics forward under a fixed policy with
/// pseudo-random events — a direct Monte-Carlo check of the analytic rates.
struct RolloutResult {
  Deltas totals;
  std::uint64_t steps = 0;
  /// Utility estimate: accumulated numerator / accumulated denominator.
  double utility_estimate = 0.0;
};

/// Simulates `steps` events from the base state under `policy`.
[[nodiscard]] RolloutResult rollout_policy(const AttackModel& model,
                                           const mdp::Policy& policy,
                                           std::uint64_t steps, Rng& rng);

}  // namespace bvc::bu
