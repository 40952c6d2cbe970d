#include "mdp/discounted.hpp"

#include <cmath>
#include <limits>

#include "mdp/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

DiscountedResult solve_discounted(const CompiledModel& model,
                                  const DiscountedKnobs& options) {
  BVC_REQUIRE(options.discount > 0.0 && options.discount < 1.0,
              "discount must be in (0, 1)");
  BVC_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");

  const StateId n = model.num_states();
  obs::Span solve_span("discounted.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(n));
  robust::RunGuard guard(options.control);
  DiscountedResult result;
  result.value.assign(n, 0.0);
  result.policy.action.assign(n, 0);
  std::vector<double> next(n, 0.0);

  // The backup primitive's variant B (mdp/kernel.hpp: seed =
  // expected_reward, scale = discount) computes every action's
  // fl(fl(discount * p) * v) terms in outcome order on the dispatched ISA;
  // the per-state max below finishes the Jacobi sweep.
  const kernel::Isa isa = kernel::resolve();
  util::AlignedVector<double> q_buf(model.num_state_actions(), 0.0);
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    if (const auto stop_status = guard.tick()) {
      result.status = *stop_status;
      break;
    }
    kernel::backup_expected(model, model.expected_reward(), options.discount,
                            result.value.data(), 0, model.num_state_actions(),
                            q_buf.data(), isa);
    double max_delta = 0.0;
    for (StateId s = 0; s < n; ++s) {
      double best = -std::numeric_limits<double>::infinity();
      std::uint32_t best_action = 0;
      const std::size_t actions = model.num_actions(s);
      const SaIndex sa_base = model.state_begin(s);
      for (std::size_t a = 0; a < actions; ++a) {
        const double q = q_buf[sa_base + a];
        if (q > best) {
          best = q;
          best_action = static_cast<std::uint32_t>(a);
        }
      }
      max_delta = std::max(max_delta, std::abs(best - result.value[s]));
      next[s] = best;
      result.policy.action[s] = best_action;
    }
    result.value.swap(next);
    result.iterations = sweep + 1;
    // Standard VI error bound: ||V - V*|| <= delta * beta / (1 - beta).
    if (max_delta * options.discount / (1.0 - options.discount) <
        options.tolerance) {
      result.status = robust::RunStatus::kConverged;
      break;
    }
  }
  result.wall_clock_ns = guard.elapsed_ns();
  solve_span.arg("kernel", kernel::to_string(isa));
  solve_span.arg("sweeps", static_cast<std::int64_t>(result.iterations));
  solve_span.arg("status", robust::to_string(result.status));
  if (obs::metrics_enabled()) {
    static obs::Counter& solves =
        obs::MetricsRegistry::global().counter("mdp.discounted.solves");
    static obs::Counter& sweeps =
        obs::MetricsRegistry::global().counter("mdp.discounted.sweeps");
    solves.add();
    sweeps.add(static_cast<std::uint64_t>(std::max(0, result.iterations)));
  }
  return result;
}

DiscountedResult solve_discounted(const Model& model,
                                  const DiscountedKnobs& options) {
  return solve_discounted(CompiledModel::compile(model), options);
}

}  // namespace bvc::mdp
