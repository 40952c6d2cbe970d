#include "mdp/policy_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

constexpr std::uint32_t kNotCut = std::numeric_limits<std::uint32_t>::max();

/// The evaluation schedule of a model: its states other than 0 that are not
/// cut, in an order where every successor (other than 0 and the cut) comes
/// first, and the cut itself. `slot[s]` is s's index in `cut`, or kNotCut.
struct Schedule {
  std::vector<StateId> order;
  std::vector<StateId> cut;
  std::vector<std::uint32_t> slot;
};

/// The outcome rows of every action of state s.
std::pair<std::size_t, std::size_t> state_outcomes(const CompiledModel& model,
                                                   StateId s) {
  return {model.outcome_begin(model.state_begin(s)),
          model.outcome_begin(model.state_begin(s + 1))};
}

/// Iterative depth-first search over the union graph without state 0.
/// Every edge into a state still on the stack closes a cycle, so that state
/// joins the cut and edges into it are ignored from then on. Every cycle
/// has such an edge into its first-visited state, so the states left over
/// form an acyclic graph, and their finishing order is the schedule.
Schedule schedule(const CompiledModel& model) {
  const StateId n = model.num_states();
  const StateId* next = model.next();
  Schedule out;
  out.slot.assign(n, kNotCut);
  out.order.reserve(n);
  enum : std::uint8_t { kUnseen, kOnStack, kDone };
  std::vector<std::uint8_t> mark(n, kUnseen);
  struct Frame {
    StateId state;
    std::size_t k;
    std::size_t end;
  };
  std::vector<Frame> stack;
  for (StateId root = 1; root < n; ++root) {
    if (mark[root] != kUnseen) {
      continue;
    }
    mark[root] = kOnStack;
    const auto [begin, end] = state_outcomes(model, root);
    stack.push_back({root, begin, end});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.k == top.end) {
        mark[top.state] = kDone;
        if (out.slot[top.state] == kNotCut) {
          out.order.push_back(top.state);
        }
        stack.pop_back();
        continue;
      }
      const StateId t = next[top.k++];
      if (t == 0 || out.slot[t] != kNotCut) {
        continue;
      }
      if (mark[t] == kUnseen) {
        mark[t] = kOnStack;
        const auto [t_begin, t_end] = state_outcomes(model, t);
        stack.push_back({t, t_begin, t_end});
      } else if (mark[t] == kOnStack) {
        out.slot[t] = static_cast<std::uint32_t>(out.cut.size());
        out.cut.push_back(t);
      }
    }
  }
  return out;
}

/// Solves the dense system A x = b in place by Gaussian elimination with
/// partial pivoting; A is row-major m x m and b holds `rhs` columns per row.
void solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t m, std::size_t rhs) {
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row) {
      if (std::abs(a[row * m + col]) > std::abs(a[pivot * m + col])) {
        pivot = row;
      }
    }
    BVC_REQUIRE(std::abs(a[pivot * m + col]) > 1e-300,
                "singular policy evaluation: the policy has more than one "
                "recurrent class");
    if (pivot != col) {
      std::swap_ranges(a.begin() + col * m, a.begin() + (col + 1) * m,
                       a.begin() + pivot * m);
      std::swap_ranges(b.begin() + col * rhs, b.begin() + (col + 1) * rhs,
                       b.begin() + pivot * rhs);
    }
    for (std::size_t row = col + 1; row < m; ++row) {
      const double factor = a[row * m + col] / a[col * m + col];
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t k = col; k < m; ++k) {
        a[row * m + k] -= factor * a[col * m + k];
      }
      for (std::size_t j = 0; j < rhs; ++j) {
        b[row * rhs + j] -= factor * b[col * rhs + j];
      }
    }
  }
  for (std::size_t col = m; col-- > 0;) {
    for (std::size_t j = 0; j < rhs; ++j) {
      double sum = b[col * rhs + j];
      for (std::size_t k = col + 1; k < m; ++k) {
        sum -= a[col * m + k] * b[k * rhs + j];
      }
      b[col * rhs + j] = sum / a[col * m + col];
    }
  }
}

/// Exact evaluation of a policy's two streams: their gains g and biases h
/// with h(0) = 0, which solve h(s) = r(s) - g + sum P(s') h(s').
class Evaluator {
 public:
  Evaluator(const CompiledModel& model, std::span<const double> numerator,
            std::span<const double> denominator, const Schedule& plan)
      : model_(model),
        numerator_(numerator),
        denominator_(denominator),
        plan_(plan),
        width_(plan.cut.size() + 3),
        rows_(static_cast<std::size_t>(model.num_states()) * width_),
        h_num_(model.num_states(), 0.0),
        h_den_(model.num_states(), 0.0) {}

  void evaluate(const Policy& policy) {
    const std::size_t m = plan_.cut.size();
    // Each row is h(s) as an affine function of the unknowns: column 0 the
    // numerator, 1 the denominator, 2 the coefficient of -g (the expected
    // steps), 3 + j the coefficient of h at cut state j. Successors come
    // first, so every row reads finished ones.
    for (const StateId s : plan_.order) {
      fill_row(&rows_[s * width_], s, policy.action[s]);
    }
    for (const StateId c : plan_.cut) {
      fill_row(&rows_[c * width_], c, policy.action[c]);
    }
    std::vector<double> base(width_);
    fill_row(base.data(), 0, policy.action[0]);
    // Unknowns (h(C), g), one equation per cut state and one for state 0
    // (h(0) = 0), solved for both streams at once.
    const std::size_t k = m + 1;
    std::vector<double> a(k * k, 0.0);
    std::vector<double> b(k * 2);
    for (std::size_t i = 0; i < k; ++i) {
      const double* row = i < m ? &rows_[plan_.cut[i] * width_] : base.data();
      for (std::size_t j = 0; j < m; ++j) {
        a[i * k + j] = (i == j ? 1.0 : 0.0) - row[3 + j];
      }
      a[i * k + m] = row[2];
      b[i * 2] = row[0];
      b[i * 2 + 1] = row[1];
    }
    solve_dense(a, b, k, 2);
    gain_num_ = b[m * 2];
    gain_den_ = b[m * 2 + 1];
    for (std::size_t i = 0; i < m; ++i) {
      h_num_[plan_.cut[i]] = b[i * 2];
      h_den_[plan_.cut[i]] = b[i * 2 + 1];
    }
    for (const StateId s : plan_.order) {
      const double* row = &rows_[s * width_];
      double num = row[0] - gain_num_ * row[2];
      double den = row[1] - gain_den_ * row[2];
      for (std::size_t j = 0; j < m; ++j) {
        num += row[3 + j] * b[j * 2];
        den += row[3 + j] * b[j * 2 + 1];
      }
      h_num_[s] = num;
      h_den_[s] = den;
    }
  }

  [[nodiscard]] double gain_num() const { return gain_num_; }
  [[nodiscard]] double gain_den() const { return gain_den_; }
  [[nodiscard]] const std::vector<double>& h_num() const { return h_num_; }
  [[nodiscard]] const std::vector<double>& h_den() const { return h_den_; }

 private:
  void fill_row(double* row, StateId s, std::uint32_t action) const {
    const SaIndex sa = model_.sa_index(s, action);
    std::fill(row, row + width_, 0.0);
    row[0] = numerator_[sa];
    row[1] = denominator_[sa];
    row[2] = 1.0;
    for (std::size_t k = model_.outcome_begin(sa); k < model_.outcome_end(sa);
         ++k) {
      const StateId t = model_.next()[k];
      const double p = model_.prob()[k];
      if (t == 0) {
        continue;
      }
      if (plan_.slot[t] != kNotCut) {
        row[3 + plan_.slot[t]] += p;
        continue;
      }
      const double* successor = &rows_[t * width_];
      for (std::size_t j = 0; j < width_; ++j) {
        row[j] += p * successor[j];
      }
    }
  }

  const CompiledModel& model_;
  std::span<const double> numerator_;
  std::span<const double> denominator_;
  const Schedule& plan_;
  std::size_t width_;
  std::vector<double> rows_;
  std::vector<double> h_num_;
  std::vector<double> h_den_;
  double gain_num_ = 0.0;
  double gain_den_ = 0.0;
};

}  // namespace

PolicyIterationResult policy_iteration(const CompiledModel& model,
                                       std::span<const double> numerator,
                                       std::span<const double> denominator,
                                       const robust::RunControl& control) {
  const StateId n = model.num_states();
  BVC_REQUIRE(numerator.size() == model.num_state_actions() &&
                  denominator.size() == model.num_state_actions(),
              "numerator and denominator must cover every (state, action) "
              "pair");

  obs::Span solve_span("policy_iteration.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(n));
  robust::RunGuard guard(control);
  const Schedule plan = schedule(model);
  const std::size_t m = plan.cut.size();
  solve_span.arg("cut", static_cast<std::int64_t>(m));
  BVC_REQUIRE(m <= kMaxCutStates &&
                  static_cast<std::size_t>(n) * (m + 3) <= kMaxEvaluationCells,
              "the model's cycles need a cut too large for exact "
              "evaluation");

  PolicyIterationResult result;
  result.cut_states = m;
  result.policy.action.assign(n, 0);
  result.bias.assign(n, 0.0);
  const auto finish = [&](robust::RunStatus status) {
    result.status = status;
    result.wall_clock_ns = guard.elapsed_ns();
    solve_span.arg("improvements",
                   static_cast<std::int64_t>(result.iterations));
    solve_span.arg("status", robust::to_string(status));
    if (obs::metrics_enabled()) {
      static obs::Counter& solves =
          obs::MetricsRegistry::global().counter("mdp.pi.solves");
      static obs::Counter& improvements =
          obs::MetricsRegistry::global().counter("mdp.pi.improvements");
      solves.add();
      improvements.add(static_cast<std::uint64_t>(result.iterations));
    }
    return std::move(result);
  };

  Evaluator evaluator(model, numerator, denominator, plan);
  const StateId* next = model.next();
  const double* prob = model.prob();
  // The improved policy; result.policy stays the last evaluated one.
  std::vector<std::uint32_t> improved = result.policy.action;
  for (;;) {
    if (const auto stop = guard.tick()) {
      return finish(*stop);
    }
    result.policy.action = improved;
    evaluator.evaluate(result.policy);
    if (evaluator.gain_den() > 0.0) {
      result.value = evaluator.gain_num() / evaluator.gain_den();
    } else if (evaluator.gain_num() > 0.0) {
      return finish(robust::RunStatus::kDegenerateModel);
    }
    const double u = result.value;
    for (StateId s = 1; s < n; ++s) {
      result.bias[s] = evaluator.h_num()[s] - u * evaluator.h_den()[s];
    }

    bool changed = false;
    for (StateId s = 0; s < n; ++s) {
      const std::uint32_t incumbent = result.policy.action[s];
      double incumbent_q = 0.0;
      double best_q = -std::numeric_limits<double>::infinity();
      std::uint32_t best = incumbent;
      for (std::size_t a = 0; a < model.num_actions(s); ++a) {
        const SaIndex sa = model.sa_index(s, a);
        double q = numerator[sa] - u * denominator[sa];
        for (std::size_t k = model.outcome_begin(sa);
             k < model.outcome_end(sa); ++k) {
          q += prob[k] * result.bias[next[k]];
        }
        if (a == incumbent) {
          incumbent_q = q;
        }
        if (q > best_q) {
          best_q = q;
          best = static_cast<std::uint32_t>(a);
        }
      }
      if (best != incumbent &&
          best_q > incumbent_q + 1e-10 * (1.0 + std::abs(incumbent_q))) {
        improved[s] = best;
        changed = true;
      }
    }
    if (!changed) {
      return finish(robust::RunStatus::kConverged);
    }
    ++result.iterations;
  }
}

}  // namespace bvc::mdp
