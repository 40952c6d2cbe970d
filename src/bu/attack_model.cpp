#include "bu/attack_model.hpp"

#include <cmath>
#include <utility>

#include "mdp/model_cache.hpp"
#include "mdp/model_template.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::bu {

namespace {

std::uint16_t decremented(std::uint16_t r, unsigned by) {
  return by >= r ? std::uint16_t{0} : static_cast<std::uint16_t>(r - by);
}

/// Bob's countdown when his sticky gate opens (phase-1 Chain 2 win). Rizun
/// counts "consecutive non-excessive blocks" from the excessive block
/// itself, so the AD-1 fork blocks on top of the trigger already count
/// toward closing; the paper's encoding starts the countdown fresh at 144.
/// The difference is AD-1 out of 144 blocks and is numerically negligible,
/// but the chain-level simulator follows Rizun exactly, so the locked-count
/// variant must too for the step-by-step cross-validation to hold.
std::uint16_t gate_open_countdown(const AttackParams& params) {
  const unsigned elapsed =
      params.countdown == GateCountdown::kLockedCount ? params.ad - 1 : 0;
  return elapsed >= params.gate_period
             ? std::uint16_t{0}
             : static_cast<std::uint16_t>(params.gate_period - elapsed);
}

/// The builder's normalization of the inputs: the Wait action belongs to
/// the non-profit-driven model (Sect. 4.4).
AttackParams effective_params(const AttackParams& params, Utility utility) {
  AttackParams effective = params;
  if (utility == Utility::kOrphaning) {
    effective.allow_wait = true;
  }
  return effective;
}

}  // namespace

double double_spend_revenue(const AttackParams& params, unsigned k) noexcept {
  if (params.confirmations == 0 || k + 1 <= params.confirmations) {
    return 0.0;
  }
  return static_cast<double>(k - (params.confirmations - 1)) * params.rds;
}

std::string_view to_string(Action action) noexcept {
  switch (action) {
    case Action::kOnChain1:
      return "OnChain1";
    case Action::kOnChain2:
      return "OnChain2";
    case Action::kWait:
      return "Wait";
  }
  return "?";
}

std::string_view to_string(Utility utility) noexcept {
  switch (utility) {
    case Utility::kRelativeRevenue:
      return "u1:relative-revenue";
    case Utility::kAbsoluteReward:
      return "u2:absolute-reward";
    case Utility::kOrphaning:
      return "u3:orphaning";
  }
  return "?";
}

void AttackParams::validate() const {
  BVC_REQUIRE(alpha > 0.0 && beta > 0.0 && gamma > 0.0,
              "all mining power shares must be positive");
  BVC_REQUIRE(std::abs(alpha + beta + gamma - 1.0) < 1e-9,
              "mining power shares must sum to 1");
  BVC_REQUIRE(alpha < 0.5, "the attacker must control less than half of the "
                           "mining power (threat model, Sect. 2.4)");
  BVC_REQUIRE(ad >= 1, "AD must be at least 1");
  BVC_REQUIRE(ad_carol <= 64, "Carol's AD above 64 is not supported");
  BVC_REQUIRE(gate_period >= 1, "gate period must be at least 1");
  BVC_REQUIRE(rds >= 0.0, "double-spend value must be non-negative");
}

namespace {

/// The attack templates' probability symbols: every event probability of a
/// cell is one of these five numbers (symbol_values).
enum EventSymbol : mdp::Symbol {
  kAlphaShare,
  kBetaShare,
  kGammaShare,
  kBetaIdleShare,   ///< Bob's share while Alice waits
  kGammaIdleShare,  ///< Carol's share while Alice waits
  kNumEventSymbols,
};

using SymbolValues = std::array<double, kNumEventSymbols>;

SymbolValues symbol_values(const AttackParams& params) {
  // Under Wait Alice idles: the next block is Bob's or Carol's, with
  // probabilities proportional to their power.
  const double total = params.beta + params.gamma;
  return {params.alpha, params.beta, params.gamma, params.beta / total,
          params.gamma / total};
}

/// The symbol of `event`'s probability under `action`; kNumEventSymbols
/// when the event cannot happen (Alice finds no block while waiting).
mdp::Symbol event_symbol(Action action, Event event) {
  const auto index = static_cast<mdp::Symbol>(event);
  if (action != Action::kWait) {
    return index;
  }
  return event == Event::kAliceBlock
             ? mdp::Symbol{kNumEventSymbols}
             : static_cast<mdp::Symbol>(kBetaIdleShare + index - 1);
}

}  // namespace

std::array<double, 3> event_probabilities(const AttackParams& params,
                                          Action action) {
  const SymbolValues values = symbol_values(params);
  std::array<double, 3> probs{};
  for (std::size_t e = 0; e < probs.size(); ++e) {
    const mdp::Symbol symbol = event_symbol(action, static_cast<Event>(e));
    probs[e] = symbol < kNumEventSymbols ? values[symbol] : 0.0;
  }
  return probs;
}

std::span<const Action> available_actions(const AttackParams& params,
                                          const AttackState& state) {
  static constexpr std::array<Action, 3> kAll = {
      Action::kOnChain1, Action::kOnChain2, Action::kWait};
  (void)state;  // the same action set applies in every state
  return {kAll.data(), params.allow_wait ? std::size_t{3} : std::size_t{2}};
}

std::pair<double, double> utility_increments(Utility utility,
                                             const Deltas& d) noexcept {
  switch (utility) {
    case Utility::kRelativeRevenue:
      return {d.alice_locked, d.alice_locked + d.others_locked};
    case Utility::kAbsoluteReward:
      return {d.alice_locked + d.double_spend, 1.0};
    case Utility::kOrphaning:
      return {d.others_orphaned, d.alice_locked + d.alice_orphaned};
  }
  return {0.0, 0.0};
}

StepResult apply_event(const AttackParams& params, const AttackState& state,
                       Action action, Event event) {
  BVC_REQUIRE(!(action == Action::kWait && event == Event::kAliceBlock),
              "Alice cannot find a block while waiting");
  BVC_REQUIRE(action != Action::kWait || params.allow_wait,
              "Wait is not enabled for these parameters");

  StepResult result;
  result.next = state;

  // ---------------------------------------------------------------- base --
  if (state.is_base()) {
    const bool alice_forks =
        event == Event::kAliceBlock && action == Action::kOnChain2;
    if (alice_forks) {
      // Phase 1: Alice mines a block of size exactly EB_C (Carol accepts,
      // Bob rejects). Phase 2 (r > 0): she mines a block slightly larger
      // than EB_C (Bob accepts under his open gate, Carol rejects). Either
      // way the block is not locked yet; r is untouched.
      if (params.effective_ad(state.in_phase2()) == 1) {
        // Degenerate AD: a one-block "chain" already has acceptance depth,
        // so the fork resolves instantly in Chain 2's favor.
        result.deltas.alice_locked = 1.0;
        result.next = AttackState{};
        result.next.r = state.in_phase2()
                            ? std::uint16_t{0}  // phase 3 collapse
                            : (params.setting == Setting::kStickyGate
                                   ? gate_open_countdown(params)
                                   : std::uint16_t{0});
        return result;
      }
      result.next = AttackState{0, 1, 0, 1, state.r};
      return result;
    }
    // A block mined at the base state is locked immediately; every locked
    // non-excessive block advances Bob's gate countdown by one.
    if (event == Event::kAliceBlock) {
      result.deltas.alice_locked = 1.0;
    } else {
      result.deltas.others_locked = 1.0;
    }
    result.next.r = decremented(state.r, 1);
    return result;
  }

  // ---------------------------------------------------------------- fork --
  // In phase 1 Bob mines Chain 1 and Carol Chain 2; in phase 2 the roles
  // are exchanged (Sect. 4.1.2).
  const bool phase2 = state.in_phase2();
  bool grows_chain1 = false;
  double alice_block = 0.0;
  switch (event) {
    case Event::kAliceBlock:
      grows_chain1 = action == Action::kOnChain1;
      alice_block = 1.0;
      break;
    case Event::kBobBlock:
      grows_chain1 = !phase2;
      break;
    case Event::kCarolBlock:
      grows_chain1 = phase2;
      break;
  }

  if (grows_chain1) {
    const auto l1 = static_cast<std::uint16_t>(state.l1 + 1);
    const auto a1 = static_cast<std::uint16_t>(state.a1 + alice_block);
    if (l1 > state.l2) {
      // Chain 1 outgrows Chain 2: everyone adopts Chain 1; Chain 2 is
      // orphaned.
      result.deltas.alice_locked = a1;
      result.deltas.others_locked = l1 - a1;
      result.deltas.alice_orphaned = state.a2;
      result.deltas.others_orphaned = state.l2 - state.a2;
      result.deltas.double_spend = double_spend_revenue(params, state.l2);
      result.next = AttackState{};
      if (phase2) {
        // Chain 1 blocks are non-excessive; they advance Bob's countdown.
        const unsigned locked =
            params.countdown == GateCountdown::kLockedCount ? l1 : state.l1;
        result.next.r = decremented(state.r, locked);
      }
      return result;
    }
    result.next.l1 = l1;
    result.next.a1 = a1;
    return result;
  }

  // Chain 2 grows.
  const auto l2 = static_cast<std::uint16_t>(state.l2 + 1);
  const auto a2 = static_cast<std::uint16_t>(state.a2 + alice_block);
  if (l2 >= params.effective_ad(phase2)) {
    // Chain 2 reaches the acceptance depth: the rejecting side accepts the
    // excessive block and the whole chain; Chain 1 is orphaned.
    result.deltas.alice_locked = a2;
    result.deltas.others_locked = l2 - a2;
    result.deltas.alice_orphaned = state.a1;
    result.deltas.others_orphaned = state.l1 - state.a1;
    result.deltas.double_spend = double_spend_revenue(params, state.l1);
    result.next = AttackState{};
    if (phase2) {
      // Carol's gate opens too (phase 3): the paper pauses the attack and
      // models the system as returning to the phase-1 base state.
      result.next.r = 0;
    } else {
      // Bob's gate opens (phase 2 begins) — unless the gate is removed
      // (setting 1), where the system simply returns to the base state.
      result.next.r = params.setting == Setting::kStickyGate
                          ? gate_open_countdown(params)
                          : std::uint16_t{0};
    }
    return result;
  }
  result.next.l2 = l2;
  result.next.a2 = a2;
  return result;
}

namespace {

/// The key of the cell `effective` or, without its shares, of its rule set
/// (the template key).
std::string attack_key(const AttackParams& effective, Utility utility,
                       bool with_shares) {
  std::string key = "bu_attack";
  if (with_shares) {
    mdp::append_key(key, "alpha", effective.alpha);
    mdp::append_key(key, "beta", effective.beta);
    mdp::append_key(key, "gamma", effective.gamma);
  }
  mdp::append_key(key, "ad", static_cast<std::int64_t>(effective.ad));
  mdp::append_key(key, "ad_carol",
                  static_cast<std::int64_t>(effective.ad_carol));
  mdp::append_key(key, "gate_period",
                  static_cast<std::int64_t>(effective.gate_period));
  mdp::append_key(key, "setting",
                  static_cast<std::int64_t>(effective.setting));
  mdp::append_key(key, "countdown",
                  static_cast<std::int64_t>(effective.countdown));
  mdp::append_key(key, "confirmations",
                  static_cast<std::int64_t>(effective.confirmations));
  mdp::append_key(key, "rds", effective.rds);
  mdp::append_key(key, "allow_wait", effective.allow_wait);
  mdp::append_key(key, "utility", static_cast<std::int64_t>(utility));
  return key;
}

/// The one builder loop: hands every (state, action, event) branch of
/// `effective` under `utility` to `builder` (an mdp::TemplateBuilder or an
/// mdp::CellModelBuilder) and builds. The shares never enter the loop:
/// every branch's probability is its event_symbol.
template <typename Builder>
auto enumerate(const AttackParams& effective, Utility utility,
               const StateSpace& space, Builder builder) {
  obs::Span span("bu.build", "bu");
  for (mdp::StateId id = 0; id < space.size(); ++id) {
    const AttackState& state = space.state(id);
    for (const Action action : available_actions(effective, state)) {
      builder.begin_action(id, static_cast<mdp::ActionLabel>(action));
      for (const Event event :
           {Event::kAliceBlock, Event::kBobBlock, Event::kCarolBlock}) {
        const mdp::Symbol symbol = event_symbol(action, event);
        if (symbol == kNumEventSymbols) {
          continue;
        }
        const StepResult step = apply_event(effective, state, action, event);
        const auto [num, den] = utility_increments(utility, step.deltas);
        builder.add_outcome(space.index(step.next), symbol, num, den);
      }
    }
  }
  auto built = builder.build();
  span.arg("states", static_cast<std::int64_t>(built.num_states()));
  span.arg("outcomes", static_cast<std::int64_t>(built.num_outcomes()));
  return built;
}

}  // namespace

std::string attack_model_cache_key(const AttackParams& params,
                                   Utility utility) {
  return attack_key(effective_params(params, utility), utility, true);
}

std::shared_ptr<const mdp::CompiledModel> attack_model_compiled(
    const AttackParams& params, Utility utility) {
  params.validate();
  const AttackParams effective = effective_params(params, utility);
  // Cache-first: the state space is enumerated only on a template miss.
  const std::shared_ptr<const mdp::ModelTemplate> rules =
      mdp::ModelCache::global().get_or_build(
          attack_key(effective, utility, false), [&] {
            const StateSpace space(effective.max_ad(), effective.max_r());
            return enumerate(
                effective, utility, space,
                mdp::TemplateBuilder(space.size(), kNumEventSymbols));
          });
  return std::make_shared<const mdp::CompiledModel>(
      rules->instantiate(symbol_values(effective)));
}

AttackModel build_attack_model(const AttackParams& params, Utility utility) {
  std::shared_ptr<const mdp::CompiledModel> compiled =
      attack_model_compiled(params, utility);
  const AttackParams effective = effective_params(params, utility);
  const SymbolValues values = symbol_values(effective);
  StateSpace space(effective.max_ad(), effective.max_r());
  mdp::Model model = enumerate(effective, utility, space,
                               mdp::CellModelBuilder(space.size(), values));
  return AttackModel{std::move(space), std::move(model), std::move(compiled),
                     effective, utility};
}

}  // namespace bvc::bu
