// Run control for long-running solves and simulations: wall-clock /
// iteration budgets, cooperative cancellation, and a structured outcome
// taxonomy replacing the bare `bool converged` idiom.
//
// Every iterative component in this library (the four MDP solvers, the
// event-driven network simulation, the attack-scenario replay and the
// Monte-Carlo rollouts) accepts a RunControl and reports a RunStatus
// on its result. On budget exhaustion or cancellation the component returns
// the best partial result it has instead of spinning to its iteration cap —
// the caller can inspect the status and decide whether the partial answer is
// usable (see docs/ROBUSTNESS.md for the full semantics).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace bvc::robust {

/// How a bounded run ended. Ordered roughly from best to worst; only
/// kConverged means the reported values meet the requested tolerance.
enum class RunStatus : std::uint8_t {
  kConverged = 0,        ///< met the requested tolerance
  kToleranceStalled,     ///< own iteration cap hit before the tolerance
  kBudgetExhausted,      ///< the RunBudget (deadline / iteration cap) expired
  kCancelled,            ///< the CancelToken fired
  kDegenerateModel,      ///< the problem is structurally degenerate
};

/// Short stable identifier, e.g. for logs and CSV columns.
[[nodiscard]] std::string_view to_string(RunStatus status) noexcept;

/// Only kConverged counts as full success.
[[nodiscard]] constexpr bool is_success(RunStatus status) noexcept {
  return status == RunStatus::kConverged;
}

/// A run that stopped early but still produced a usable (if approximate)
/// result: everything except cancellation and degeneracy.
[[nodiscard]] constexpr bool is_partial(RunStatus status) noexcept {
  return status == RunStatus::kToleranceStalled ||
         status == RunStatus::kBudgetExhausted;
}

/// Resource envelope for one run. The default budget is unlimited; both
/// limits are cooperative (checked between iterations, not preemptive).
struct RunBudget {
  /// Wall-clock allowance in seconds, measured from the start of the run.
  double wall_clock_seconds = std::numeric_limits<double>::infinity();
  /// Cap on guard ticks (outer iterations / sweeps / simulation events).
  std::int64_t max_ticks = std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] bool unlimited() const noexcept {
    return wall_clock_seconds == std::numeric_limits<double>::infinity() &&
           max_ticks == std::numeric_limits<std::int64_t>::max();
  }

  [[nodiscard]] static RunBudget deadline(double seconds) noexcept {
    RunBudget budget;
    budget.wall_clock_seconds = seconds;
    return budget;
  }
  [[nodiscard]] static RunBudget ticks(std::int64_t ticks) noexcept {
    RunBudget budget;
    budget.max_ticks = ticks;
    return budget;
  }
};

/// Cooperative cancellation handle. Default-constructed tokens are inert
/// (never cancelled, zero overhead to copy); a cancellable token is created
/// with CancelToken::make() and shared by copy — request_cancel() from any
/// copy (e.g. a signal handler or another thread) is seen by all.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] static CancelToken make() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// A child token that reports cancelled when either itself or `parent` is
  /// cancelled, while request_cancel() on the child leaves the parent
  /// untouched. Batch engines use this to stop their own in-flight items
  /// without firing the caller's token. Linking is one level deep: the
  /// child observes `parent`'s own flag, not flags `parent` may itself be
  /// linked to — link to the root token when chaining.
  [[nodiscard]] static CancelToken make_linked(const CancelToken& parent) {
    CancelToken token = make();
    token.parent_ = parent.flag_;
    return token;
  }

  void request_cancel() const noexcept {
    if (flag_) {
      flag_->store(true, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return (flag_ && flag_->load(std::memory_order_relaxed)) ||
           (parent_ && parent_->load(std::memory_order_relaxed));
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  std::shared_ptr<std::atomic<bool>> parent_;
};

/// The run-control bundle accepted (by value) through solver/sim options.
struct RunControl {
  RunBudget budget;
  CancelToken cancel;

  [[nodiscard]] bool inert() const noexcept {
    return budget.unlimited() && !cancel.cancel_requested();
  }
};

/// Per-run enforcement of a RunControl. Construct at the start of the run,
/// call tick() once per iteration (sweep, outer step, simulation event):
/// a std::nullopt means keep going, a status means stop now and report it.
///
/// The wall clock is only read when a deadline is set (and then at most
/// every `clock_stride` ticks), so unlimited budgets stay effectively free
/// even in per-event hot loops.
class RunGuard {
 public:
  explicit RunGuard(const RunControl& control,
                    std::int64_t clock_stride = 1) noexcept;

  /// Checks cancellation and budget; counts one iteration.
  [[nodiscard]] std::optional<RunStatus> tick() noexcept;

  /// Ticks consumed so far.
  [[nodiscard]] std::int64_t ticks() const noexcept { return ticks_; }

  /// Seconds since construction (always measured, even without a deadline).
  [[nodiscard]] double elapsed_seconds() const noexcept;

  /// Nanoseconds since construction, for SolveReport::wall_clock_ns.
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept;

  /// Budget with the wall-clock allowance that remains (and no tick cap):
  /// hand this to nested solves so inner work cannot outlive the outer
  /// deadline. The cancel token must be forwarded separately.
  [[nodiscard]] RunBudget remaining() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;

  RunBudget budget_;
  CancelToken cancel_;
  Clock::time_point start_;
  std::int64_t ticks_ = 0;
  std::int64_t clock_stride_ = 1;
  bool has_deadline_ = false;
  bool expired_ = false;
  bool stop_reported_ = false;  ///< one obs event per guard, not per tick
};

/// Post-mortem record of one (possibly nested) solve, carried on solver
/// results so benches and tests can see *why* a number looks the way it
/// does: how the bracket narrowed, how much inner work each outer step
/// cost, and how long the whole thing took.
struct SolveDiagnostics {
  double elapsed_seconds = 0.0;
  int outer_iterations = 0;   ///< e.g. Dinkelbach + bisection steps
  int inner_solves = 0;       ///< nested average-reward solves performed
  std::int64_t inner_sweeps = 0;  ///< total RVI sweeps across inner solves
  int retries = 0;            ///< escalation attempts beyond the first
  /// Ratio estimate after each outer iteration (Dinkelbach rho updates,
  /// then bisection midpoints).
  std::vector<double> rho_trajectory;
  /// Bracket width (hi - lo) after each outer iteration; the residual the
  /// outer tolerance is tested against.
  std::vector<double> residual_trajectory;
};

}  // namespace bvc::robust
