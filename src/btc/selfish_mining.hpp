// Optimal selfish mining on Bitcoin, optionally combined with
// double-spending — the paper's comparison baseline for Table 3 (bottom
// block), following Sapirshtein et al. (FC'16) and the modified
// Sompolinsky–Zohar setting of Sect. 4.3: a merchant transaction in every
// compliant block, four confirmations, R_DS = 10 block rewards, no penalty
// for failed attempts.
//
// State (a, h, fork): `a` secret attacker blocks and `h` public honest
// blocks since the last common ancestor;
//   fork = kIrrelevant — the last block was the attacker's (match illegal);
//   fork = kRelevant   — the last block was honest (match possible);
//   fork = kActive     — the attacker has matched and the network is split:
//                        a fraction `gamma_tie` of honest power mines on the
//                        attacker's branch.
// Actions: Adopt, Override, Match, Wait. Chain lengths are truncated at
// `max_len` (adopt/override forced at the boundary), the standard
// finite-state approximation; max_len = 24 puts the truncation error well
// below the reported precision for alpha <= 0.25.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "bu/attack_model.hpp"  // Utility, Deltas, utility_increments
#include "mdp/batch.hpp"
#include "mdp/model.hpp"
#include "mdp/ratio.hpp"

namespace bvc::btc {

enum class Fork : std::uint8_t { kIrrelevant = 0, kRelevant = 1, kActive = 2 };

enum class SmAction : mdp::ActionLabel {
  kAdopt = 0,
  kOverride = 1,
  kMatch = 2,
  kWait = 3,
};

[[nodiscard]] std::string_view to_string(SmAction action) noexcept;

struct SmState {
  std::uint16_t a = 0;
  std::uint16_t h = 0;
  Fork fork = Fork::kIrrelevant;

  [[nodiscard]] bool operator==(const SmState&) const = default;
};

struct SmParams {
  double alpha = 0.25;      ///< attacker mining power
  double gamma_tie = 0.5;   ///< honest power mining on the attacker's branch
                            ///< during an active tie ("P(win a tie)")
  unsigned max_len = 24;    ///< chain-length truncation
  /// Double-spending setting (only used for Utility::kAbsoluteReward).
  unsigned confirmations = 4;
  double rds = 10.0;

  void validate() const;
};

/// Dense state indexing for (a, h, fork).
class SmStateSpace {
 public:
  explicit SmStateSpace(unsigned max_len);

  [[nodiscard]] mdp::StateId size() const noexcept;
  [[nodiscard]] mdp::StateId index(const SmState& state) const;
  [[nodiscard]] SmState state(mdp::StateId id) const;

 private:
  unsigned max_len_;
};

/// The model plus its space, mirroring bu::AttackModel.
struct SmModel {
  SmStateSpace space;
  mdp::Model model;
  /// SoA compilation of `model`, instantiated from the rule set's template
  /// in mdp::ModelCache::global(); what analyze_sm sweeps.
  std::shared_ptr<const mdp::CompiledModel> compiled;
  SmParams params;
  bu::Utility utility;
};

/// Canonical key of the cell (params, utility), for journals. The
/// ModelCache template key drops alpha and gamma_tie but keeps whether
/// gamma_tie is above 0 and below 1, which decides the tie branches.
[[nodiscard]] std::string sm_model_cache_key(const SmParams& params,
                                             bu::Utility utility);

/// Builds the selfish-mining(+double-spending) MDP. Reward streams follow
/// bu::utility_increments:
///   kRelativeRevenue — classic optimal selfish mining (Sapirshtein et al.);
///   kAbsoluteReward  — selfish mining + double-spending (Table 3 baseline);
///   kOrphaning       — honest blocks orphaned per attacker block.
[[nodiscard]] SmModel build_sm_model(const SmParams& params,
                                     bu::Utility utility);

/// The compiled model of (params, utility), cache-first: one
/// ModelCache::global() lookup of the rule set's template, which
/// enumerates only on a miss, then one per-call instantiation with the
/// cell's shares. What analyze_sm solves on. Throws on invalid params
/// before touching the cache.
[[nodiscard]] std::shared_ptr<const mdp::CompiledModel> sm_model_compiled(
    const SmParams& params, bu::Utility utility);

/// The base report carries how the underlying ratio solve ended (status,
/// iterations, wall clock, diagnostics); check converged() before trusting
/// `utility_value` as a certified optimum.
struct SmResult : mdp::SolveReport {
  double utility_value = 0.0;
  mdp::Policy policy;

  /// Outer ratio iterations (the base report's iteration count).
  [[nodiscard]] int solver_iterations() const noexcept { return iterations; }
};

/// The action a policy takes in `state`.
[[nodiscard]] SmAction policy_action(const SmModel& model,
                                     const mdp::Policy& policy,
                                     const SmState& state);

/// Renders the policy as Sapirshtein-style action grids (one per fork
/// label) for a, h <= min(max_len, limit): rows a, columns h, cells
/// a(dopt)/o(verride)/m(atch)/w(ait).
[[nodiscard]] std::string describe_sm_policy(const SmModel& model,
                                             const mdp::Policy& policy,
                                             unsigned limit = 8);

/// Solves the model to `tolerance` on the utility value, on the cell's
/// sm_model_compiled() model (a cached rule set is not re-enumerated).
/// `control` bounds and/or cancels the whole solve (see robust::RunControl).
[[nodiscard]] SmResult analyze_sm(const SmParams& params, bu::Utility utility,
                                  double tolerance = 1e-5,
                                  const robust::RunControl& control = {});

/// One cell of a Bitcoin-baseline sweep for analyze_sm_batch.
struct SmJob {
  SmParams params;
  bu::Utility utility = bu::Utility::kAbsoluteReward;
  double tolerance = 1e-5;
};

/// Canonical checkpoint key of one baseline cell (model key + tolerance).
[[nodiscard]] std::string sm_job_key(const SmJob& job);

/// Batched analyze_sm() through mdp::run_cells under the shared budget in
/// `batch.control`; the cell rule is bu::analyze_batch's. Results are
/// input-ordered and independent of the thread count; skipped items carry
/// kBudgetExhausted / kCancelled. With a `journal`, completed cells are
/// journaled and journaled cells restored instead of re-solved.
[[nodiscard]] std::vector<SmResult> analyze_sm_batch(
    std::span<const SmJob> jobs, const mdp::BatchConfig& batch = {},
    robust::CheckpointJournal* journal = nullptr);

/// Journal (de)serialization of one baseline cell (see bu::analysis_record).
[[nodiscard]] robust::CheckpointRecord sm_record(const std::string& key,
                                                 const SmResult& result,
                                                 bool persist_policy);
[[nodiscard]] bool sm_restore(const robust::CheckpointRecord& record,
                              SmResult& result);

}  // namespace bvc::btc
