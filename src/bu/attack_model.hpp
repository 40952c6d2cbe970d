// The fork-attack MDP of Sect. 4: transition semantics, reward streams, and
// construction of a solvable bvc::mdp::CompiledModel.
//
// Scenario (Sect. 4.1.1): three miners — strategic Alice (power alpha) and
// two compliant groups Bob (beta, small EB_B) and Carol (gamma, large EB_C).
// In phase 1 Alice can mine a block of size exactly EB_C: Carol accepts it
// and mines on it (Chain 2) while Bob rejects it and stays on Chain 1. In
// phase 2 (Bob's sticky gate open, r > 0) Alice can mine a block slightly
// larger than EB_C: Bob accepts it (Chain 2) while Carol rejects it and
// stays on Chain 1. Chain 1 wins as soon as it outgrows Chain 2; Chain 2
// wins when it reaches depth AD.
//
// apply_event() is the single source of truth for these semantics: the MDP
// builder and the Monte-Carlo simulator both consume it, which is what makes
// the cross-validation between the two meaningful.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "bu/attack_state.hpp"
#include "mdp/compiled_model.hpp"

namespace bvc::bu {

/// Alice's actions. Values double as mdp::ActionLabel.
enum class Action : mdp::ActionLabel {
  kOnChain1 = 0,  ///< mine on Chain 1 (the honest chain at the base state)
  kOnChain2 = 1,  ///< mine on Chain 2 (at the base state: try to fork)
  kWait = 2,      ///< stop mining and watch (non-profit-driven model only)
};

[[nodiscard]] std::string_view to_string(Action action) noexcept;

/// Who finds the next block.
enum class Event { kAliceBlock = 0, kBobBlock = 1, kCarolBlock = 2 };

/// Which of the paper's two evaluation settings to model.
enum class Setting {
  kNoStickyGate,  ///< setting 1: gate removed (BUIP038); phase 1 only
  kStickyGate,    ///< setting 2: gate enabled; phases 1 and 2
};

/// How the phase-2 countdown decreases when Chain 1 blocks are locked.
enum class GateCountdown {
  /// Decrease by the number of non-excessive blocks actually locked on
  /// Bob's chain (self-consistent reading; default).
  kLockedCount,
  /// Decrease by l1 exactly as the paper's prose states.
  kPaperText,
};

/// The three utility functions of Sect. 3.
enum class Utility {
  kRelativeRevenue,  ///< u1, Eq. (1): compliant & profit-driven
  kAbsoluteReward,   ///< u2, Eq. (2): non-compliant & profit-driven
  kOrphaning,        ///< u3, Eq. (3): non-profit-driven
};

[[nodiscard]] std::string_view to_string(Utility utility) noexcept;

struct AttackParams {
  double alpha = 0.1;  ///< Alice's mining power share
  double beta = 0.45;  ///< Bob's (small-EB side)
  double gamma = 0.45; ///< Carol's (large-EB side)
  /// Bob's excessive acceptance depth: in phase 1 Chain 2 wins when it
  /// reaches this depth. The paper sets both miners' AD to 6.
  unsigned ad = 6;
  /// Carol's acceptance depth, governing phase-2 Chain-2 wins. 0 (default)
  /// means "same as ad". Real deployments were heterogeneous (Sect. 2.2:
  /// most power at AD = 6, BitClub at 20, public nodes at 12).
  unsigned ad_carol = 0;
  unsigned gate_period = 144;  ///< sticky-gate close countdown
  Setting setting = Setting::kNoStickyGate;
  GateCountdown countdown = GateCountdown::kLockedCount;
  /// Double-spending parameters (utility u2). A reversal pays
  /// (k - (confirmations - 1)) * rds when k >= confirmations blocks of the
  /// losing chain are orphaned; the paper uses 4 confirmations and RDS = 10.
  unsigned confirmations = 4;
  double rds = 10.0;
  /// Whether Alice may stop mining; the paper enables this only for the
  /// non-profit-driven model.
  bool allow_wait = false;

  /// Validates ranges (powers positive and summing to 1, alpha < 1/2, ...).
  void validate() const;

  [[nodiscard]] unsigned max_r() const noexcept {
    return setting == Setting::kStickyGate ? gate_period : 0;
  }
  /// The acceptance depth of the side currently rejecting Chain 2: Bob's
  /// in phase 1, Carol's in phase 2.
  [[nodiscard]] unsigned effective_ad(bool phase2) const noexcept {
    return phase2 && ad_carol != 0 ? ad_carol : ad;
  }
  /// The larger of the two depths (bounds the state space).
  [[nodiscard]] unsigned max_ad() const noexcept {
    return ad_carol > ad ? ad_carol : ad;
  }
};

/// One cell of the paper's (alpha, beta:gamma) grids: `base` with Alice at
/// `alpha` and the rest of the power split b:g between Bob and Carol,
/// beta = (1 - alpha) * b / (b + g) and gamma = (1 - alpha) - beta. Tables
/// 2-4 and bvcd's grid jobs all split here, so a cell gets the same
/// powers, bit for bit, and so the same key, whichever of them sweeps it.
[[nodiscard]] AttackParams grid_cell(double alpha, double b, double g,
                                     AttackParams base = {});

/// Whether a grid cell lies in the region the paper tabulates,
/// alpha <= min(beta, gamma); Tables 2 and 3 and bvcd's grid jobs skip the
/// other cells.
[[nodiscard]] bool in_paper_region(const AttackParams& cell) noexcept;

/// Reward-relevant quantities produced by one event.
struct Deltas {
  double alice_locked = 0.0;    ///< Alice's blocks added to the blockchain
  double others_locked = 0.0;   ///< Bob's/Carol's blocks added
  double alice_orphaned = 0.0;  ///< Alice's blocks discarded
  double others_orphaned = 0.0; ///< Bob's/Carol's blocks discarded
  double double_spend = 0.0;    ///< double-spending revenue (block rewards)

  [[nodiscard]] double total_locked() const noexcept {
    return alice_locked + others_locked;
  }
  [[nodiscard]] double total_orphaned() const noexcept {
    return alice_orphaned + others_orphaned;
  }
};

struct StepResult {
  AttackState next;
  Deltas deltas;
};

/// Double-spending revenue for orphaning a losing chain of `k` blocks: the
/// first k - (confirmations - 1) of them carried settled merchant
/// transactions, and reversing each pays params.rds (Sect. 4.3).
[[nodiscard]] double double_spend_revenue(const AttackParams& params,
                                          unsigned k) noexcept;

/// Applies one event to a state under Alice's chosen action. This is the
/// paper's Table 1 (generalized to settings 1/2 and the Wait action),
/// derived from the event semantics of Sect. 4.1.
///
/// Preconditions: `state` is reachable for `params` and `event` is possible
/// under `action` (kWait excludes kAliceBlock).
[[nodiscard]] StepResult apply_event(const AttackParams& params,
                                     const AttackState& state, Action action,
                                     Event event);

/// Probability of each event under an action: Alice's block has probability
/// alpha (0 under kWait, with Bob/Carol renormalized accordingly).
[[nodiscard]] std::array<double, 3> event_probabilities(
    const AttackParams& params, Action action);

/// Actions Alice may take in `state` under `params`. OnChain1 and OnChain2
/// are always available; kWait only when params.allow_wait.
[[nodiscard]] std::span<const Action> available_actions(
    const AttackParams& params, const AttackState& state);

/// Converts event deltas into the (numerator, denominator) increments of a
/// utility function:
///   u1: (alice_locked,              alice_locked + others_locked)
///   u2: (alice_locked + double_spend, 1)   [one block is mined per step]
///   u3: (others_orphaned,           alice_locked + alice_orphaned)
[[nodiscard]] std::pair<double, double> utility_increments(
    Utility utility, const Deltas& deltas) noexcept;

/// A fully built model plus its state space, ready for the solvers.
struct AttackModel {
  StateSpace space;
  /// The cell's model: state `space.index(s)`'s actions are
  /// available_actions(params, s), in that order.
  std::shared_ptr<const mdp::CompiledModel> compiled;
  AttackParams params;
  Utility utility;
};

/// Canonical key of the cell (params, utility), for journals and job
/// records: encodes every input that shapes the built model, with
/// builder-side normalizations (kOrphaning forcing allow_wait) already
/// applied, so equivalent parameter structs map to the same key. The
/// ModelCache template key is this key without alpha, beta and gamma.
[[nodiscard]] std::string attack_model_cache_key(const AttackParams& params,
                                                 Utility utility);

/// Builds the sparse MDP for `params` under `utility`. The model's primary
/// reward stream is the utility numerator, the secondary stream the
/// denominator. For callers that need the state space (rollouts, policy
/// dumps, simulators): it enumerates the cell through
/// mdp::CellModelBuilder and never touches the cache. Its model is
/// bit-identical to attack_model_compiled's.
[[nodiscard]] AttackModel build_attack_model(const AttackParams& params,
                                             Utility utility);

/// The compiled model of (params, utility), cache-first: one
/// ModelCache::global() lookup of the rule set's template, which
/// enumerates the state space only on a miss, then one per-call
/// ModelTemplate::instantiate with the cell's shares (the compiled model
/// itself is never cached). What analyze(params, ...) solves on. Throws on
/// invalid params before touching the cache.
[[nodiscard]] std::shared_ptr<const mdp::CompiledModel> attack_model_compiled(
    const AttackParams& params, Utility utility);

}  // namespace bvc::bu
