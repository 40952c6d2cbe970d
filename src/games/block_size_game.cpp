#include "games/block_size_game.hpp"

#include <cmath>
#include <sstream>

#include "robust/run_control.hpp"
#include "util/check.hpp"

namespace bvc::games {

namespace {
constexpr double kPowerEpsilon = 1e-12;
}

BlockSizeIncreasingGame::BlockSizeIncreasingGame(
    std::vector<MinerGroup> groups)
    : groups_(std::move(groups)) {
  BVC_REQUIRE(!groups_.empty(), "the game needs at least one group");
  double total = 0.0;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    BVC_REQUIRE(groups_[i].power > 0.0, "group power must be positive");
    BVC_REQUIRE(groups_[i].mpb > 0.0, "group MPB must be positive");
    if (i > 0) {
      BVC_REQUIRE(groups_[i].mpb > groups_[i - 1].mpb,
                  "MPBs must be strictly increasing");
    }
    total += groups_[i].power;
  }
  BVC_REQUIRE(std::abs(total - 1.0) < 1e-9, "powers must sum to 1");

  // Memoize stability from the last suffix backwards.
  const std::size_t n = groups_.size();
  stable_.assign(n, 0);
  stable_[n - 1] = 1;
  for (std::size_t j = n - 1; j-- > 0;) {
    std::size_t k = j + 1;
    while (stable_[k] == 0) {
      ++k;  // stable_[n-1] == 1 guarantees termination
    }
    const double front = suffix_power(j, k);        // m_j .. m_{k-1}
    const double front_tail = suffix_power(j + 1, k);
    const double back = suffix_power(k, n);         // m_k .. m_{n-1}
    stable_[j] = (front > back + kPowerEpsilon &&
                  front_tail <= back + kPowerEpsilon)
                     ? 1
                     : 0;
  }
}

double BlockSizeIncreasingGame::suffix_power(std::size_t from,
                                             std::size_t to) const {
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    sum += groups_[i].power;
  }
  return sum;
}

bool BlockSizeIncreasingGame::is_stable_suffix(std::size_t j) const {
  BVC_REQUIRE(j < groups_.size(), "suffix index out of range");
  return stable_[j] != 0;
}

std::size_t BlockSizeIncreasingGame::largest_true_stable_subset(
    std::size_t j) const {
  BVC_REQUIRE(j + 1 < groups_.size(), "suffix has no true subset");
  std::size_t k = j + 1;
  while (stable_[k] == 0) {
    ++k;
  }
  return k;
}

std::size_t BlockSizeIncreasingGame::termination_suffix() const {
  std::size_t j = 0;
  while (stable_[j] == 0) {
    ++j;  // the last suffix is stable, so this terminates
  }
  return j;
}

BlockSizeIncreasingGame::Outcome BlockSizeIncreasingGame::play(
    const robust::RunControl& control) const {
  const std::size_t n = groups_.size();
  robust::RunGuard guard(control);
  Outcome outcome;
  outcome.final_block_size = groups_.front().mpb;  // game starts at MPB_1

  // Finalizes the (possibly partial) trace: survivors and utilities as if
  // the game ended at suffix `j`.
  const auto finish = [&](std::size_t j, robust::RunStatus status) {
    outcome.surviving_from = j;
    outcome.utilities.assign(n, 0.0);
    const double surviving_power = suffix_power(j, n);
    for (std::size_t i = j; i < n; ++i) {
      outcome.utilities[i] = groups_[i].power / surviving_power;
    }
    outcome.status = status;
    outcome.iterations = static_cast<int>(outcome.rounds.size());
    outcome.wall_clock_ns = guard.elapsed_ns();
    return outcome;
  };

  std::size_t j = 0;
  while (!is_stable_suffix(j)) {
    if (const auto stop = guard.tick()) {
      return finish(j, *stop);
    }
    // Not stable: the paper shows this can only be because the groups that
    // would vote "no" (j .. k-1, doomed to be squeezed out eventually) no
    // longer command at least half of the remaining power.
    const std::size_t k = largest_true_stable_subset(j);
    Round round;
    round.votes_yes.assign(n, false);
    for (std::size_t i = k; i < n; ++i) {
      round.votes_yes[i] = true;
    }
    round.yes_power = suffix_power(k, n);
    round.no_power = suffix_power(j, k);
    round.passed = round.yes_power >= round.no_power - kPowerEpsilon;
    BVC_ENSURE(round.passed,
               "a non-stable suffix whose raise vote fails contradicts the "
               "stable-set characterization (paper Sect. 5.2.3)");
    round.leaving_group = j;
    round.new_block_size = groups_[j + 1].mpb;
    outcome.final_block_size = round.new_block_size;
    outcome.rounds.push_back(std::move(round));
    ++j;
  }

  // Record the terminating vote (Figure 4's round 2): the doomed-if-raised
  // front groups j..k-1 vote no and hold a strict majority.
  if (j + 1 < n) {
    const std::size_t k = largest_true_stable_subset(j);
    Round round;
    round.votes_yes.assign(n, false);
    for (std::size_t i = k; i < n; ++i) {
      round.votes_yes[i] = true;
    }
    round.yes_power = suffix_power(k, n);
    round.no_power = suffix_power(j, k);
    round.passed = false;
    round.new_block_size = groups_[j].mpb;
    outcome.rounds.push_back(std::move(round));
  }

  return finish(j, robust::RunStatus::kConverged);
}

std::string BlockSizeIncreasingGame::describe(const Outcome& outcome) const {
  std::ostringstream out;
  for (std::size_t r = 0; r < outcome.rounds.size(); ++r) {
    const Round& round = outcome.rounds[r];
    out << "round " << (r + 1) << ": yes=" << round.yes_power * 100.0
        << "% no=" << round.no_power * 100.0 << "% -> ";
    if (round.passed) {
      out << "block size raised to " << round.new_block_size << ", group "
          << (round.leaving_group + 1) << " leaves\n";
    } else {
      out << "vote fails, game terminates\n";
    }
  }
  out << "terminated: groups " << (outcome.surviving_from + 1) << ".."
      << groups_.size() << " survive at block size "
      << outcome.final_block_size << '\n';
  return out.str();
}

}  // namespace bvc::games
