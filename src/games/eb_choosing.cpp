#include "games/eb_choosing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "robust/run_control.hpp"
#include "util/check.hpp"

namespace bvc::games {

namespace {
constexpr std::size_t kNoValue = std::numeric_limits<std::size_t>::max();
// Power comparisons tolerate tiny floating-point noise; shares that differ
// by less than this are treated as an exact tie, as in the paper's
// M1 == M2 case.
constexpr double kPowerEpsilon = 1e-12;
}  // namespace

EbChoosingGame::EbChoosingGame(std::vector<double> power,
                               std::size_t num_values)
    : power_(std::move(power)), num_values_(num_values) {
  BVC_REQUIRE(power_.size() >= 2, "the game needs at least two miners");
  BVC_REQUIRE(num_values_ >= 2, "the game needs at least two EB values");
  double total = 0.0;
  for (const double p : power_) {
    BVC_REQUIRE(p > 0.0, "every miner needs positive power");
    BVC_REQUIRE(p < 0.5, "every miner must control less than half the power");
    total += p;
  }
  BVC_REQUIRE(std::abs(total - 1.0) < 1e-9, "power shares must sum to 1");
}

std::vector<double> EbChoosingGame::group_power(
    std::span<const std::size_t> profile) const {
  BVC_REQUIRE(profile.size() == power_.size(),
              "profile must cover every miner");
  std::vector<double> groups(num_values_, 0.0);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    BVC_REQUIRE(profile[i] < num_values_, "EB choice out of range");
    groups[profile[i]] += power_[i];
  }
  return groups;
}

std::size_t EbChoosingGame::winning_value(
    std::span<const std::size_t> profile) const {
  const std::vector<double> groups = group_power(profile);
  std::size_t best = 0;
  for (std::size_t v = 1; v < groups.size(); ++v) {
    if (groups[v] > groups[best]) {
      best = v;
    }
  }
  // A tie between the heaviest groups leaves no winner.
  for (std::size_t v = 0; v < groups.size(); ++v) {
    if (v != best && std::abs(groups[v] - groups[best]) < kPowerEpsilon) {
      return kNoValue;
    }
  }
  return best;
}

std::vector<double> EbChoosingGame::utilities(
    std::span<const std::size_t> profile) const {
  std::vector<double> result(power_.size(), 0.0);
  const std::size_t winner = winning_value(profile);
  if (winner == kNoValue) {
    return result;
  }
  const std::vector<double> groups = group_power(profile);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile[i] == winner) {
      result[i] = power_[i] / groups[winner];
    }
  }
  return result;
}

std::size_t EbChoosingGame::best_response(
    std::span<const std::size_t> profile, std::size_t i) const {
  BVC_REQUIRE(i < power_.size(), "miner index out of range");
  std::vector<std::size_t> scratch(profile.begin(), profile.end());
  std::size_t best_choice = profile[i];
  double best_utility = utilities(scratch)[i];
  for (std::size_t v = 0; v < num_values_; ++v) {
    if (v == profile[i]) {
      continue;
    }
    scratch[i] = v;
    const double u = utilities(scratch)[i];
    if (u > best_utility + kPowerEpsilon) {
      best_utility = u;
      best_choice = v;
    }
  }
  return best_choice;
}

bool EbChoosingGame::is_nash_equilibrium(
    std::span<const std::size_t> profile) const {
  for (std::size_t i = 0; i < power_.size(); ++i) {
    if (best_response(profile, i) != profile[i]) {
      return false;
    }
  }
  return true;
}

EbChoosingGame::DynamicsResult EbChoosingGame::best_response_dynamics(
    std::vector<std::size_t> start, Rng& rng,
    const robust::RunControl& control, std::size_t max_rounds) const {
  BVC_REQUIRE(start.size() == power_.size(), "profile must cover every miner");
  robust::RunGuard guard(control);
  DynamicsResult result;
  result.profile = std::move(start);
  // No fixed point within max_rounds reads as a stall, mirroring a solver
  // hitting its own iteration cap.
  result.status = robust::RunStatus::kToleranceStalled;

  std::vector<std::size_t> order(power_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (const auto stop = guard.tick()) {
      result.status = *stop;
      break;
    }
    std::shuffle(order.begin(), order.end(), rng);
    bool changed = false;
    for (const std::size_t i : order) {
      const std::size_t response = best_response(result.profile, i);
      if (response != result.profile[i]) {
        result.profile[i] = response;
        changed = true;
      }
    }
    ++result.iterations;
    if (!changed) {
      result.status = robust::RunStatus::kConverged;
      break;
    }
  }
  result.wall_clock_ns = guard.elapsed_ns();
  return result;
}

EbChoosingGame::DynamicsResult EbChoosingGame::best_response_dynamics(
    std::vector<std::size_t> start, Rng& rng, std::size_t max_rounds) const {
  return best_response_dynamics(std::move(start), rng, robust::RunControl{},
                                max_rounds);
}

}  // namespace bvc::games
