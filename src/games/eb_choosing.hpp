// The EB choosing game (Sect. 5.1): n miners each pick one of a finite set
// of EB values; the group commanding the most mining power wins, and its
// members split the rewards in proportion to their power. Everyone else
// earns nothing, and an exact tie between the two heaviest groups leaves the
// outcome "unpredictable, which is a bad situation for all miners" — modeled
// as zero utility for everyone.
//
// Analytical Result 4: every profile in which all miners choose the same EB
// is a Nash equilibrium (any unilateral deviator controls < 50% power and
// ends up in the losing group).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mdp/solve_report.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace bvc::games {

class EbChoosingGame {
 public:
  /// `power`: positive mining power shares summing to 1; every miner must
  /// control strictly less than half (threat model).
  /// `num_values`: how many distinct EB values are on the market (>= 2).
  EbChoosingGame(std::vector<double> power, std::size_t num_values = 2);

  [[nodiscard]] std::size_t num_miners() const noexcept {
    return power_.size();
  }
  [[nodiscard]] std::size_t num_values() const noexcept { return num_values_; }
  [[nodiscard]] const std::vector<double>& power() const noexcept {
    return power_;
  }

  /// Total power behind each EB value under `profile` (profile[i] in
  /// [0, num_values)).
  [[nodiscard]] std::vector<double> group_power(
      std::span<const std::size_t> profile) const;

  /// The winning EB value, or npos on a tie between the heaviest groups.
  [[nodiscard]] std::size_t winning_value(
      std::span<const std::size_t> profile) const;

  /// Utility of every miner under `profile`.
  [[nodiscard]] std::vector<double> utilities(
      std::span<const std::size_t> profile) const;

  /// A best response of miner `i` given the others' choices (the current
  /// choice is returned when no deviation strictly improves).
  [[nodiscard]] std::size_t best_response(std::span<const std::size_t> profile,
                                          std::size_t i) const;

  /// Whether no miner can strictly improve by a unilateral deviation.
  [[nodiscard]] bool is_nash_equilibrium(
      std::span<const std::size_t> profile) const;

  /// The base report replaces the old `bool converged` field: kConverged
  /// means a fixed point (an NE) was reached, kToleranceStalled that
  /// `max_rounds` passes went by without one, kBudgetExhausted / kCancelled
  /// that the caller's RunControl stopped the dynamics early. The
  /// final (possibly mid-flight) profile is returned either way.
  struct DynamicsResult : mdp::SolveReport {
    std::vector<std::size_t> profile;  ///< final profile

    /// Full passes over the miners (the base report's iteration count).
    [[nodiscard]] std::size_t rounds() const noexcept {
      return static_cast<std::size_t>(iterations);
    }
  };

  /// Iterated best-response dynamics from `start`, visiting miners in a
  /// random order each round, until a fixed point or `max_rounds`. With this
  /// game the dynamics converge to an all-same-EB profile, illustrating the
  /// Sect. 6.1 observation that following the majority is rational.
  /// `control` bounds/cancels the round loop (one guard tick per round).
  [[nodiscard]] DynamicsResult best_response_dynamics(
      std::vector<std::size_t> start, Rng& rng,
      const robust::RunControl& control, std::size_t max_rounds = 1000) const;

  /// Unbounded dynamics.
  [[nodiscard]] DynamicsResult best_response_dynamics(
      std::vector<std::size_t> start, Rng& rng,
      std::size_t max_rounds = 1000) const;

 private:
  std::vector<double> power_;
  std::size_t num_values_;
};

}  // namespace bvc::games
