// The block size increasing game (Sect. 5.2): miner groups with increasing
// maximum profitable block sizes (MPBs) vote round by round on raising the
// generation size MG to the next group's MPB. A passing vote squeezes the
// lowest-MPB group out of business; survivors split the rewards.
//
// The paper characterizes termination via *stable sets* of suffixes
// S_j = {j, ..., n}:
//   (1) S_n (the last group alone) is stable;
//   (2) S_j is stable iff, with S_k its largest true stable subset,
//         sum(m_j..m_{k-1}) >  sum(m_k..m_n)   and
//         sum(m_{j+1}..m_{k-1}) <= sum(m_k..m_n).
// The game terminates exactly when the remaining groups form a stable set
// (Analytical Result 5). Figure 4's m = (10, 20, 30, 40)% instance plays
// out as: round 1 — groups 2..4 vote yes, group 1 leaves; round 2 — groups
// 2 and 3 vote no (if 2 left, 4 could squeeze 3 out) and the game ends.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mdp/solve_report.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"

namespace bvc::games {

struct MinerGroup {
  double power = 0.0;  ///< mining power share, positive
  double mpb = 0.0;    ///< maximum profitable block size (arbitrary units)
};

class BlockSizeIncreasingGame {
 public:
  /// `groups` must have strictly increasing MPBs and powers summing to 1.
  explicit BlockSizeIncreasingGame(std::vector<MinerGroup> groups);

  [[nodiscard]] std::size_t num_groups() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] const std::vector<MinerGroup>& groups() const noexcept {
    return groups_;
  }

  /// Whether the suffix {j, ..., n-1} (0-indexed) is a stable set.
  [[nodiscard]] bool is_stable_suffix(std::size_t j) const;

  /// The largest true stable subset of suffix j: the smallest k > j whose
  /// suffix is stable. Requires j + 1 < num_groups().
  [[nodiscard]] std::size_t largest_true_stable_subset(std::size_t j) const;

  /// The suffix at which the game terminates when starting from all groups:
  /// the smallest stable j (groups 0..j-1 are squeezed out).
  [[nodiscard]] std::size_t termination_suffix() const;

  /// Whether no group is squeezed out — the only case in which BU's
  /// "emergent consensus" survives this game.
  [[nodiscard]] bool emergent_consensus_holds() const {
    return termination_suffix() == 0;
  }

  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  struct Round {
    /// The group squeezed out this round, or kNoGroup for the final failed
    /// vote that terminates the game.
    std::size_t leaving_group = kNoGroup;
    std::vector<bool> votes_yes;  ///< vote of every original group (false
                                  ///< for groups already out)
    double yes_power = 0.0;
    double no_power = 0.0;
    bool passed = false;
    double new_block_size = 0.0;  ///< MG after the round (MPB of next group)
  };

  /// The base report carries how the playout ended: kConverged when the
  /// game reached a stable set, kBudgetExhausted / kCancelled when the
  /// round loop was stopped by the caller's RunControl (the trace so
  /// far is still returned; `iterations` counts completed voting rounds).
  struct Outcome : mdp::SolveReport {
    std::vector<Round> rounds;
    std::size_t surviving_from = 0;    ///< first surviving group index
    double final_block_size = 0.0;     ///< MG when the game ends
    std::vector<double> utilities;     ///< per original group
  };

  /// Plays the game with rational voters (backward-induction votes derived
  /// from the stable-set analysis) and returns the full trace. `control`
  /// bounds/cancels the round loop (one guard tick per round).
  [[nodiscard]] Outcome play(const robust::RunControl& control = {}) const;

  /// Renders an Outcome like the Figure 4 caption.
  [[nodiscard]] std::string describe(const Outcome& outcome) const;

 private:
  [[nodiscard]] double suffix_power(std::size_t from, std::size_t to) const;

  std::vector<MinerGroup> groups_;
  std::vector<char> stable_;  // memoized per suffix
};

}  // namespace bvc::games
