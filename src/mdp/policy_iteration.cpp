#include "mdp/policy_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mdp/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// Solves the dense system A x = b in place by Gaussian elimination with
/// partial pivoting. A is row-major n x n.
void solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot.
    std::size_t pivot = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double candidate = std::abs(a[row * n + col]);
      if (candidate > best) {
        best = candidate;
        pivot = row;
      }
    }
    BVC_ENSURE(best > 1e-300,
               "singular policy-evaluation system: the policy is not "
               "unichain with state 0 recurrent");
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) {
        std::swap(a[col * n + k], a[pivot * n + k]);
      }
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    const double diag = a[col * n + col];
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / diag;
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t k = col; k < n; ++k) {
        a[row * n + k] -= factor * a[col * n + k];
      }
      b[row] -= factor * b[col];
    }
  }
  // Back-substitute.
  for (std::size_t col = n; col-- > 0;) {
    double sum = b[col];
    for (std::size_t k = col + 1; k < n; ++k) {
      sum -= a[col * n + k] * b[k];
    }
    b[col] = sum / a[col * n + col];
  }
}

}  // namespace

PolicyIterationResult evaluate_policy_exact(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  const StateId n = model.num_states();
  BVC_REQUIRE(n <= options.max_states,
              "model too large for dense policy evaluation");
  BVC_REQUIRE(policy.action.size() == n,
              "policy must assign an action to every state");
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");

  // Unknowns x = (g, h(1), ..., h(n-1)); h(0) = 0 by normalization.
  // Equation for state s:  g + h(s) - sum_s' P(s') h(s') = r(s).
  const StateId* next_col = model.next();
  const double* prob_col = model.prob();
  const std::size_t dim = n;
  std::vector<double> a(dim * dim, 0.0);
  std::vector<double> b(dim, 0.0);
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model.sa_index(s, policy.action[s]);
    a[s * dim + 0] = 1.0;  // g
    if (s != 0) {
      a[s * dim + s] += 1.0;  // h(s)
    }
    const std::size_t end = model.outcome_end(sa);
    for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
      if (next_col[k] != 0) {
        a[s * dim + next_col[k]] -= prob_col[k];  // -P h(s')
      }
    }
    b[s] = sa_rewards[sa];
  }
  solve_dense(a, b, dim);

  PolicyIterationResult result;
  result.gain = b[0];
  result.bias.assign(n, 0.0);
  for (StateId s = 1; s < n; ++s) {
    result.bias[s] = b[s];
  }
  result.policy = policy;
  result.status = robust::RunStatus::kConverged;
  return result;
}

PolicyIterationResult evaluate_policy_exact(
    const Model& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  return evaluate_policy_exact(CompiledModel::compile(model), policy,
                               sa_rewards, options);
}

PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  const StateId n = model.num_states();
  Policy policy;
  policy.action.assign(n, 0);

  obs::Span solve_span("policy_iteration.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(n));
  const auto note_finished = [&](const PolicyIterationResult& finished) {
    solve_span.arg("improvements",
                   static_cast<std::int64_t>(finished.iterations));
    solve_span.arg("status", robust::to_string(finished.status));
    if (obs::metrics_enabled()) {
      static obs::Counter& solves =
          obs::MetricsRegistry::global().counter("mdp.pi.solves");
      static obs::Counter& improvements =
          obs::MetricsRegistry::global().counter("mdp.pi.improvements");
      solves.add();
      improvements.add(
          static_cast<std::uint64_t>(std::max(0, finished.iterations)));
    }
  };
  robust::RunGuard guard(options.control);
  const kernel::Isa isa = kernel::resolve();
  util::AlignedVector<double> q_buf(model.num_state_actions(), 0.0);
  PolicyIterationResult evaluated;
  for (int round = 0; round < options.max_improvements; ++round) {
    if (const auto stop_status = guard.tick()) {
      // Return the last evaluated policy (or the initial one before any
      // evaluation) as the partial result.
      if (evaluated.policy.action.empty()) {
        evaluated.policy = policy;
      }
      evaluated.status = *stop_status;
      evaluated.wall_clock_ns = guard.elapsed_ns();
      note_finished(evaluated);
      return evaluated;
    }
    evaluated = evaluate_policy_exact(model, policy, sa_rewards, options);
    evaluated.iterations = round;

    // Greedy improvement against the exact bias: the backup primitive's
    // variant B (mdp/kernel.hpp: seed = sa_rewards, scale = 1) computes the
    // whole q column in one pass on the dispatched ISA.
    kernel::backup_expected(model, sa_rewards.data(), 1.0,
                            evaluated.bias.data(), 0,
                            model.num_state_actions(), q_buf.data(), isa);
    bool changed = false;
    for (StateId s = 0; s < n; ++s) {
      const std::size_t actions = model.num_actions(s);
      double incumbent_q = -std::numeric_limits<double>::infinity();
      double best_q = -std::numeric_limits<double>::infinity();
      std::uint32_t best_action = policy.action[s];
      for (std::size_t candidate = 0; candidate < actions; ++candidate) {
        const double q = q_buf[model.sa_index(s, candidate)];
        if (candidate == policy.action[s]) {
          incumbent_q = q;
        }
        if (q > best_q) {
          best_q = q;
          best_action = static_cast<std::uint32_t>(candidate);
        }
      }
      if (best_action != policy.action[s] &&
          best_q > incumbent_q + options.improvement_tolerance) {
        policy.action[s] = best_action;
        changed = true;
      }
    }
    if (!changed) {
      evaluated.status = robust::RunStatus::kConverged;
      evaluated.wall_clock_ns = guard.elapsed_ns();
      note_finished(evaluated);
      return evaluated;
    }
  }
  evaluated.status = robust::RunStatus::kToleranceStalled;
  evaluated.wall_clock_ns = guard.elapsed_ns();
  note_finished(evaluated);
  return evaluated;
}

PolicyIterationResult policy_iteration(
    const Model& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  // Compile once: every improvement round's evaluation and greedy pass
  // shares the one kernel layout.
  return policy_iteration(CompiledModel::compile(model), sa_rewards, options);
}

PolicyIterationResult policy_iteration(
    const CompiledModel& model, const PolicyIterationKnobs& options) {
  const std::span<const double> rewards{model.expected_reward(),
                                        model.num_state_actions()};
  return policy_iteration(model, rewards, options);
}

PolicyIterationResult policy_iteration(
    const Model& model, const PolicyIterationKnobs& options) {
  return policy_iteration(CompiledModel::compile(model), options);
}

}  // namespace bvc::mdp
