#include "btc/selfish_mining.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "mdp/model_cache.hpp"
#include "mdp/model_template.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::btc {

namespace {

double ds_revenue(const SmParams& params, unsigned orphaned) {
  if (params.confirmations == 0 || orphaned + 1 <= params.confirmations) {
    return 0.0;
  }
  return static_cast<double>(orphaned - (params.confirmations - 1)) *
         params.rds;
}

}  // namespace

std::string_view to_string(SmAction action) noexcept {
  switch (action) {
    case SmAction::kAdopt:
      return "Adopt";
    case SmAction::kOverride:
      return "Override";
    case SmAction::kMatch:
      return "Match";
    case SmAction::kWait:
      return "Wait";
  }
  return "?";
}

void SmParams::validate() const {
  BVC_REQUIRE(alpha > 0.0 && alpha < 0.5,
              "attacker power must be in (0, 1/2)");
  BVC_REQUIRE(gamma_tie >= 0.0 && gamma_tie <= 1.0,
              "gamma_tie must be in [0, 1]");
  BVC_REQUIRE(max_len >= 4, "max_len below 4 is too coarse to be meaningful");
  BVC_REQUIRE(max_len <= 512, "max_len above 512 is not supported");
  BVC_REQUIRE(rds >= 0.0, "double-spend value must be non-negative");
}

SmStateSpace::SmStateSpace(unsigned max_len) : max_len_(max_len) {}

mdp::StateId SmStateSpace::size() const noexcept {
  const auto dim = static_cast<mdp::StateId>(max_len_ + 1);
  return dim * dim * 3;
}

mdp::StateId SmStateSpace::index(const SmState& state) const {
  BVC_REQUIRE(state.a <= max_len_ && state.h <= max_len_,
              "selfish-mining state out of range");
  const auto dim = static_cast<mdp::StateId>(max_len_ + 1);
  return (static_cast<mdp::StateId>(state.a) * dim + state.h) * 3 +
         static_cast<mdp::StateId>(state.fork);
}

SmState SmStateSpace::state(mdp::StateId id) const {
  BVC_REQUIRE(id < size(), "state id out of range");
  const auto dim = static_cast<mdp::StateId>(max_len_ + 1);
  SmState s;
  s.fork = static_cast<Fork>(id % 3);
  const mdp::StateId rest = id / 3;
  s.h = static_cast<std::uint16_t>(rest % dim);
  s.a = static_cast<std::uint16_t>(rest / dim);
  return s;
}

namespace {

/// The key of the cell `params` or, without its shares, of its rule set
/// (the template key), which keeps whether gamma_tie is above 0 and below 1
/// because that decides the tie branches.
std::string sm_key(const SmParams& params, bu::Utility utility,
                   bool with_shares) {
  std::string key = "btc_sm";
  if (with_shares) {
    mdp::append_key(key, "alpha", params.alpha);
    mdp::append_key(key, "gamma_tie", params.gamma_tie);
  } else {
    mdp::append_key(key, "tie_to_attacker", params.gamma_tie > 0.0);
    mdp::append_key(key, "tie_to_honest", params.gamma_tie < 1.0);
  }
  mdp::append_key(key, "max_len", static_cast<std::int64_t>(params.max_len));
  mdp::append_key(key, "confirmations",
                  static_cast<std::int64_t>(params.confirmations));
  mdp::append_key(key, "rds", params.rds);
  mdp::append_key(key, "utility", static_cast<std::int64_t>(utility));
  return key;
}

/// The selfish-mining templates' probability symbols (symbol_values).
enum SmSymbol : mdp::Symbol {
  kAttackerBlock,   ///< alpha
  kHonestBlock,     ///< 1 - alpha
  kTieToAttacker,   ///< gamma_tie (1 - alpha): honest block on Alice's branch
  kTieToHonest,     ///< (1 - gamma_tie)(1 - alpha)
  kNumSmSymbols,
};

std::array<double, kNumSmSymbols> symbol_values(const SmParams& params) {
  const double alpha = params.alpha;
  const double gamma = params.gamma_tie;
  return {alpha, 1.0 - alpha, gamma * (1.0 - alpha),
          (1.0 - gamma) * (1.0 - alpha)};
}

/// The one builder loop: the selfish-mining(+double-spending) model of
/// `utility` over the (a, h, fork) grid of `params`, handed to `builder`
/// (an mdp::TemplateBuilder or an mdp::CellModelBuilder) and built. The
/// shares enter only as SmSymbols, and gamma_tie only through which tie
/// branches exist (a share of exactly 0 or 1 drops one).
template <typename Builder>
auto enumerate(const SmParams& params, bu::Utility utility, Builder builder) {
  obs::Span span("btc.build", "btc");
  const SmStateSpace space(params.max_len);

  const bool tie_to_attacker = params.gamma_tie > 0.0;
  const bool tie_to_honest = params.gamma_tie < 1.0;
  const unsigned cap = params.max_len;

  const auto emit = [&](Builder& b, const SmState& next, SmSymbol p,
                        const bu::Deltas& deltas) {
    const auto [num, den] = bu::utility_increments(utility, deltas);
    b.add_outcome(space.index(next), p, num, den);
  };

  for (mdp::StateId id = 0; id < space.size(); ++id) {
    const SmState s = space.state(id);

    // States (a < h, active) are unreachable (a match needs a >= h); keep
    // them well-formed with adopt only, so no outcome underflows a - h.
    const bool corrupt_active = s.fork == Fork::kActive && s.a < s.h;
    const bool can_adopt = s.h >= 1;
    const bool can_override = s.a >= s.h + 1u;
    const bool can_match = s.fork == Fork::kRelevant && s.a >= s.h &&
                           s.h >= 1 && s.a < cap;
    const bool can_wait = s.a < cap && s.h < cap && !corrupt_active;

    if (can_adopt) {
      builder.begin_action(id, static_cast<mdp::ActionLabel>(SmAction::kAdopt));
      bu::Deltas d;
      d.others_locked = s.h;
      d.alice_orphaned = s.a;
      emit(builder, SmState{1, 0, Fork::kIrrelevant}, kAttackerBlock, d);
      emit(builder, SmState{0, 1, Fork::kRelevant}, kHonestBlock, d);
    }
    if (can_override) {
      builder.begin_action(id,
                           static_cast<mdp::ActionLabel>(SmAction::kOverride));
      bu::Deltas d;
      d.alice_locked = s.h + 1.0;
      d.others_orphaned = s.h;
      d.double_spend = ds_revenue(params, s.h);
      const auto rest = static_cast<std::uint16_t>(s.a - s.h - 1);
      emit(builder,
           SmState{static_cast<std::uint16_t>(rest + 1), 0,
                   Fork::kIrrelevant},
           kAttackerBlock, d);
      emit(builder, SmState{rest, 1, Fork::kRelevant}, kHonestBlock, d);
    }
    if (can_match) {
      builder.begin_action(id,
                           static_cast<mdp::ActionLabel>(SmAction::kMatch));
      // Attacker publishes h blocks matching the public height; the network
      // splits. The new block decides who profits.
      emit(builder,
           SmState{static_cast<std::uint16_t>(s.a + 1), s.h, Fork::kActive},
           kAttackerBlock, bu::Deltas{});
      if (tie_to_attacker) {
        bu::Deltas d;
        // The published attacker prefix wins and locks; the honest block
        // mined on top of it stays in flight as the successor state's
        // h = 1 (crediting it here too would double-count it).
        d.alice_locked = s.h;
        d.others_orphaned = s.h;
        d.double_spend = ds_revenue(params, s.h);
        emit(builder,
             SmState{static_cast<std::uint16_t>(s.a - s.h), 1,
                     Fork::kRelevant},
             kTieToAttacker, d);
      }
      if (tie_to_honest) {
        emit(builder,
             SmState{s.a, static_cast<std::uint16_t>(s.h + 1),
                     Fork::kRelevant},
             kTieToHonest, bu::Deltas{});
      }
    }
    if (can_wait) {
      builder.begin_action(id,
                           static_cast<mdp::ActionLabel>(SmAction::kWait));
      if (s.fork == Fork::kActive) {
        emit(builder,
             SmState{static_cast<std::uint16_t>(s.a + 1), s.h, Fork::kActive},
             kAttackerBlock, bu::Deltas{});
        if (tie_to_attacker) {
          bu::Deltas d;
          d.alice_locked = s.h;  // new honest block stays in flight (h = 1)
          d.others_orphaned = s.h;
          d.double_spend = ds_revenue(params, s.h);
          emit(builder,
               SmState{static_cast<std::uint16_t>(s.a - s.h), 1,
                       Fork::kRelevant},
               kTieToAttacker, d);
        }
        if (tie_to_honest) {
          emit(builder,
               SmState{s.a, static_cast<std::uint16_t>(s.h + 1),
                       Fork::kRelevant},
               kTieToHonest, bu::Deltas{});
        }
      } else {
        emit(builder,
             SmState{static_cast<std::uint16_t>(s.a + 1), s.h,
                     Fork::kIrrelevant},
             kAttackerBlock, bu::Deltas{});
        emit(builder,
             SmState{s.a, static_cast<std::uint16_t>(s.h + 1),
                     Fork::kRelevant},
             kHonestBlock, bu::Deltas{});
      }
    }

    if (!can_adopt && !can_override && !can_match && !can_wait) {
      // Unreachable corner of the truncated grid (e.g. a == h == cap with
      // h == 0 impossible); give it a self-loop adopt-like action so the
      // model stays well-formed.
      builder.begin_action(id, static_cast<mdp::ActionLabel>(SmAction::kAdopt));
      builder.add_outcome(space.index(SmState{0, 1, Fork::kRelevant}),
                          kHonestBlock, 0.0, 0.0);
      builder.add_outcome(space.index(SmState{1, 0, Fork::kIrrelevant}),
                          kAttackerBlock, 0.0, 0.0);
    }
  }

  auto built = builder.build();
  span.arg("states", static_cast<std::int64_t>(built.num_states()));
  span.arg("outcomes", static_cast<std::int64_t>(built.num_outcomes()));
  return built;
}

}  // namespace

std::string sm_model_cache_key(const SmParams& params, bu::Utility utility) {
  return sm_key(params, utility, true);
}

SmModel build_sm_model(const SmParams& params, bu::Utility utility) {
  std::shared_ptr<const mdp::CompiledModel> compiled =
      sm_model_compiled(params, utility);
  const SmStateSpace space(params.max_len);
  const auto values = symbol_values(params);
  mdp::Model model = enumerate(params, utility,
                               mdp::CellModelBuilder(space.size(), values));
  return SmModel{space, std::move(model), std::move(compiled), params,
                 utility};
}

std::shared_ptr<const mdp::CompiledModel> sm_model_compiled(
    const SmParams& params, bu::Utility utility) {
  params.validate();
  // Cache-first, like bu::attack_model_compiled: enumerate only on a
  // template miss.
  const std::shared_ptr<const mdp::ModelTemplate> rules =
      mdp::ModelCache::global().get_or_build(
          sm_key(params, utility, false), [&] {
            return enumerate(params, utility,
                             mdp::TemplateBuilder(
                                 SmStateSpace(params.max_len).size(),
                                 kNumSmSymbols));
          });
  return std::make_shared<const mdp::CompiledModel>(
      rules->instantiate(symbol_values(params)));
}

SmAction policy_action(const SmModel& model, const mdp::Policy& policy,
                       const SmState& state) {
  const mdp::StateId id = model.space.index(state);
  BVC_REQUIRE(id < policy.action.size(),
              "policy does not cover this state space");
  return static_cast<SmAction>(
      model.model.action_label(id, policy.action[id]));
}

std::string describe_sm_policy(const SmModel& model,
                               const mdp::Policy& policy, unsigned limit) {
  const unsigned cap =
      std::min(limit, model.params.max_len);
  std::string out;
  const char* const fork_names[] = {"irrelevant", "relevant", "active"};
  for (const Fork fork : {Fork::kIrrelevant, Fork::kRelevant,
                          Fork::kActive}) {
    out += "fork = ";
    out += fork_names[static_cast<int>(fork)];
    out += " (rows a = attacker lead, cols h = honest lead)\n   ";
    for (unsigned h = 0; h <= cap; ++h) {
      out += ' ';
      out += static_cast<char>('0' + h % 10);
    }
    out += '\n';
    for (unsigned a = 0; a <= cap; ++a) {
      out += ' ';
      out += static_cast<char>('0' + a % 10);
      out += " ";
      for (unsigned h = 0; h <= cap; ++h) {
        const SmState state{static_cast<std::uint16_t>(a),
                            static_cast<std::uint16_t>(h), fork};
        // Some (a, h, fork) corners are unreachable; print their action
        // anyway (the policy is total).
        const SmAction action = policy_action(model, policy, state);
        const char glyph[] = {'a', 'o', 'm', 'w'};
        out += ' ';
        out += glyph[static_cast<int>(action)];
      }
      out += '\n';
    }
  }
  return out;
}

SmResult analyze_sm(const SmParams& params, bu::Utility utility,
                    double tolerance, const robust::RunControl& control) {
  const std::shared_ptr<const mdp::CompiledModel> compiled =
      sm_model_compiled(params, utility);

  mdp::RatioKnobs options;
  options.tolerance = tolerance;
  options.control = control;
  options.lower_bound = 0.0;
  switch (utility) {
    case bu::Utility::kRelativeRevenue:
      options.upper_bound = 1.0;
      break;
    case bu::Utility::kAbsoluteReward:
      options.upper_bound = 1.0 + params.rds;
      break;
    case bu::Utility::kOrphaning:
      options.upper_bound = static_cast<double>(params.max_len);
      break;
  }

  const mdp::RatioResult ratio =
      mdp::maximize_ratio_with_retry(*compiled, options);
  SmResult result;
  result.utility_value = ratio.ratio;
  result.policy = ratio.policy;
  result.status = ratio.status;
  result.iterations = ratio.iterations;
  result.wall_clock_ns = ratio.wall_clock_ns;
  result.diagnostics = ratio.diagnostics;
  return result;
}

std::string sm_job_key(const SmJob& job) {
  std::string key = sm_model_cache_key(job.params, job.utility);
  mdp::append_key(key, "tol", job.tolerance);
  return key;
}

robust::CheckpointRecord sm_record(const std::string& key,
                                   const SmResult& result,
                                   bool persist_policy) {
  robust::CheckpointRecord record;
  record.key = key;
  record.status = result.status;
  record.values = {
      {"utility_value", result.utility_value},
      {"iterations", static_cast<double>(result.iterations)},
      {"wall_clock_ns", static_cast<double>(result.wall_clock_ns)},
  };
  if (persist_policy) {
    record.policy.assign(result.policy.action.begin(),
                         result.policy.action.end());
  }
  return record;
}

bool sm_restore(const robust::CheckpointRecord& record, SmResult& result) {
  if (!record.has_value("utility_value")) {
    return false;
  }
  result = SmResult{};
  result.status = record.status;
  result.utility_value = record.value_or("utility_value", 0.0);
  result.iterations = static_cast<int>(record.value_or("iterations", 0.0));
  result.wall_clock_ns =
      static_cast<std::int64_t>(record.value_or("wall_clock_ns", 0.0));
  result.policy.action.assign(record.policy.begin(), record.policy.end());
  return true;
}

std::vector<SmResult> analyze_sm_batch(std::span<const SmJob> jobs,
                                       const mdp::BatchConfig& batch,
                                       robust::CheckpointJournal* journal) {
  return mdp::run_cells<SmResult>(
             jobs.size(), batch, journal,
             [&](std::size_t i, const robust::RunControl& control) {
               return analyze_sm(jobs[i].params, jobs[i].utility,
                                 jobs[i].tolerance, control);
             },
             {.key = [&](std::size_t i) { return sm_job_key(jobs[i]); },
              .record =
                  [](const std::string& key, const SmResult& result) {
                    return sm_record(key, result, /*persist_policy=*/false);
                  },
              .restore = sm_restore})
      .results;
}

}  // namespace bvc::btc
