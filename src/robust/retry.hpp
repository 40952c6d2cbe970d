// Solver escalation for a ratio solve that failed but is worth
// re-attempting.
//
// A ratio solve can stall for two curable reasons: the bisection bracket's
// upper bound was not a genuine upper bound (the Dinkelbach iterates escape
// it), or the inner average-reward solves were too loose for the outer
// tolerance (the bracket jitters instead of contracting). RetryPolicy
// addresses both: each attempt widens the bracket, tightens the inner
// tolerance, and grants more outer iterations, for a bounded number of
// attempts. Budget exhaustion, cancellation, and structural degeneracy are
// *not* retried — more effort cannot cure those.
#pragma once

namespace bvc::robust {

struct RetryPolicy {
  /// Additional attempts after the first solve (0 disables retrying).
  int max_retries = 2;
  /// Each retry widens the ratio bracket: upper = lower + width * factor.
  double bracket_widen_factor = 2.0;
  /// Each retry multiplies the inner solver's tolerance by this (< 1
  /// tightens it).
  double inner_tolerance_factor = 0.1;
  /// Each retry multiplies the outer iteration cap by this.
  double iteration_growth_factor = 2.0;
};

}  // namespace bvc::robust
