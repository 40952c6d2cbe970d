#include "sim/attack_scenario.hpp"

#include <array>
#include <cmath>

#include "sim/event_engine.hpp"
#include "util/check.hpp"

namespace bvc::sim {

namespace {

constexpr chain::MinerId kAlice = 0;
constexpr chain::MinerId kBob = 1;
constexpr chain::MinerId kCarol = 2;

constexpr chain::ByteSize kCompliantBlockSize = chain::kBitcoinBlockLimit;

chain::BuParams node_params(chain::ByteSize eb, unsigned ad,
                            const bu::AttackParams& p) {
  chain::BuParams params;
  params.eb = eb;
  params.mg = kCompliantBlockSize;
  params.ad = ad;
  params.sticky_gate = p.setting == bu::Setting::kStickyGate;
  params.gate_period = p.gate_period;
  return params;
}

/// Tip selection for one compliant node: highest acceptable candidate;
/// on equal height, keep the current tip (first-seen/stickiness rule).
chain::BlockId select_tip(const chain::BlockTree& tree,
                          const chain::BuNodeRule& rule,
                          const chain::GateState& genesis_gate,
                          chain::BlockId current,
                          std::initializer_list<chain::BlockId> candidates) {
  chain::BlockId best = chain::kNoBlock;
  chain::Height best_height = 0;
  for (const chain::BlockId id : candidates) {
    const chain::ChainStatus status = rule.evaluate(tree, id, genesis_gate);
    if (status.verdict != chain::ChainVerdict::kAcceptable) {
      continue;
    }
    const chain::Height height = tree.block(id).height;
    if (best == chain::kNoBlock || height > best_height ||
        (height == best_height && id == current)) {
      best = id;
      best_height = height;
    }
  }
  BVC_ENSURE(best != chain::kNoBlock,
             "a compliant node must always have an acceptable tip");
  return best;
}

}  // namespace

AttackScenarioSim::AttackScenarioSim(const bu::AttackModel& model,
                                     ScenarioOptions options)
    : model_(&model),
      options_(options),
      params_(model.params),
      bob_rule_(node_params(options.eb_bob, model.params.ad, model.params)),
      carol_rule_(node_params(options.eb_carol,
                              model.params.effective_ad(true),
                              model.params)) {
  BVC_REQUIRE(options_.eb_bob < options_.eb_carol,
              "the scenario needs EB_Bob < EB_Carol");
  BVC_REQUIRE(options_.eb_carol + 1 <= chain::kMessageLimit,
              "EB_Carol + 1 must fit in a network message");
  BVC_REQUIRE(!options_.check_against_model ||
                  params_.countdown == bu::GateCountdown::kLockedCount,
              "model checking requires the locked-count gate countdown (the "
              "chain semantics decrement by blocks actually locked)");
  reset_tree();
}

void AttackScenarioSim::reset_tree() {
  tree_ = chain::BlockTree();
  bob_tip_ = tree_.genesis();
  carol_tip_ = tree_.genesis();
  agreed_base_ = tree_.genesis();
  fork_.reset();
}

std::uint16_t AttackScenarioSim::derived_r() const {
  if (params_.setting != bu::Setting::kStickyGate) {
    return 0;
  }
  const chain::ChainStatus status =
      bob_rule_.evaluate(tree_, bob_tip_, bob_gate_);
  if (!status.gate_open) {
    return 0;
  }
  return static_cast<std::uint16_t>(status.blocks_until_gate_close);
}

std::size_t AttackScenarioSim::count_alice(chain::BlockId from_exclusive,
                                           chain::BlockId to_inclusive) const {
  std::size_t count = 0;
  for (chain::BlockId cursor = to_inclusive; cursor != from_exclusive;
       cursor = tree_.block(cursor).parent) {
    BVC_ENSURE(cursor != chain::kNoBlock, "walk fell off the tree");
    if (tree_.block(cursor).miner == kAlice) {
      ++count;
    }
  }
  return count;
}

bu::AttackState AttackScenarioSim::derive_state() const {
  bu::AttackState state;
  if (!fork_) {
    state.r = derived_r();
    return state;
  }
  const chain::Height base_height = tree_.block(fork_->base).height;
  state.l1 = static_cast<std::uint16_t>(
      tree_.block(fork_->chain1_tip).height - base_height);
  state.l2 = static_cast<std::uint16_t>(
      tree_.block(fork_->chain2_tip).height - base_height);
  state.a1 = static_cast<std::uint16_t>(
      count_alice(fork_->base, fork_->chain1_tip));
  state.a2 = static_cast<std::uint16_t>(
      count_alice(fork_->base, fork_->chain2_tip));
  state.r = fork_->r_at_start;
  return state;
}

void AttackScenarioSim::lock_common_prefix(ScenarioResult& result) {
  if (fork_ || bob_tip_ == agreed_base_) {
    return;
  }
  BVC_ENSURE(bob_tip_ == carol_tip_, "locking requires agreement");
  std::size_t alice = 0;
  std::size_t total = 0;
  for (chain::BlockId cursor = bob_tip_; cursor != agreed_base_;
       cursor = tree_.block(cursor).parent) {
    ++total;
    if (tree_.block(cursor).miner == kAlice) {
      ++alice;
    }
  }
  result.totals.alice_locked += static_cast<double>(alice);
  result.totals.others_locked += static_cast<double>(total - alice);
  agreed_base_ = bob_tip_;
}

void AttackScenarioSim::resolve_fork(chain::BlockId winner_tip,
                                     chain::BlockId loser_tip,
                                     ScenarioResult& result) {
  BVC_ENSURE(fork_.has_value(), "no fork to resolve");
  std::size_t alice = 0;
  std::size_t total = 0;
  for (chain::BlockId cursor = loser_tip; cursor != fork_->base;
       cursor = tree_.block(cursor).parent) {
    ++total;
    if (tree_.block(cursor).miner == kAlice) {
      ++alice;
    }
  }
  result.totals.alice_orphaned += static_cast<double>(alice);
  result.totals.others_orphaned += static_cast<double>(total - alice);
  const double ds = bu::double_spend_revenue(
      params_, static_cast<unsigned>(total));
  result.totals.double_spend += ds;
  if (ds > 0.0) {
    ++result.double_spend_events;
  }

  const bool chain2_won = winner_tip == fork_->chain2_tip;
  if (chain2_won) {
    ++result.chain2_wins;
    if (!fork_->phase2 && params_.setting == bu::Setting::kStickyGate) {
      ++result.gate_openings;
    }
  } else {
    ++result.chain1_wins;
  }

  // A phase-2 Chain-2 win opens Carol's gate as well (phase 3). The paper
  // pauses the attack there and models the system as returning to the
  // phase-1 base state, so we re-root with both gates closed.
  const bool phase3_reset = fork_->phase2 && chain2_won;
  fork_.reset();
  lock_common_prefix(result);
  if (phase3_reset) {
    bob_gate_ = chain::GateState{};
    carol_gate_ = chain::GateState{};
    // Discard the history so the excessive blocks in it cannot re-open the
    // gates on re-evaluation.
    reset_tree();
  }
}

void AttackScenarioSim::maybe_reroot() {
  if (fork_ || tree_.block(agreed_base_).height < options_.reroot_threshold) {
    return;
  }
  bob_gate_ = bob_rule_.evaluate(tree_, bob_tip_, bob_gate_).gate;
  carol_gate_ = carol_rule_.evaluate(tree_, carol_tip_, carol_gate_).gate;
  reset_tree();
}

ScenarioResult AttackScenarioSim::run(const mdp::Policy& policy,
                                      std::uint64_t steps, Rng& rng,
                                      const robust::RunControl& control) {
  BVC_REQUIRE(policy.action.size() == model_->space.size(),
              "policy does not cover the model's state space");
  ScenarioResult result;
  double num = 0.0;
  double den = 0.0;

  // Synchronous lowering onto the event engine: one block-arrival event per
  // unit of simulated time. The engine's guard gives the scenario replay
  // the same cooperative budget/cancellation semantics as the other
  // simulators (one tick per step).
  EventEngine<std::uint64_t> engine;
  if (steps > 0) {
    engine.schedule(0.0, 0, 0);
  }
  const auto on_step = [&](std::uint64_t step) {
    if (step + 1 < steps) {
      engine.schedule(static_cast<double>(step + 1), 0, step + 1);
    }
    ++result.steps;
    const bu::AttackState abstract = derive_state();
    const bu::Action action = bu::policy_action(*model_, policy, abstract);

    const std::array<double, 3> probs =
        bu::event_probabilities(params_, action);
    const auto event = static_cast<bu::Event>(rng.next_categorical(probs));

    // The model-side prediction, for cross-checking.
    bu::StepResult expected;
    if (options_.check_against_model) {
      expected = bu::apply_event(params_, abstract, action, event);
    }

    const bu::Deltas before = result.totals;

    // ---- place the block concretely --------------------------------------
    chain::BlockId parent = chain::kNoBlock;
    chain::ByteSize size = kCompliantBlockSize;
    chain::MinerId miner = kAlice;
    bool starts_fork = false;
    switch (event) {
      case bu::Event::kAliceBlock:
        if (!fork_ && action == bu::Action::kOnChain2) {
          // The fork trigger: exactly EB_Carol in phase 1 (Carol accepts,
          // Bob rejects), one byte above EB_Carol in phase 2 (Bob accepts
          // under his open gate, Carol rejects).
          starts_fork = true;
          parent = bob_tip_;
          size = abstract.r > 0 ? options_.eb_carol + 1 : options_.eb_carol;
        } else {
          parent = !fork_ ? bob_tip_
                          : (action == bu::Action::kOnChain1
                                 ? fork_->chain1_tip
                                 : fork_->chain2_tip);
        }
        miner = kAlice;
        break;
      case bu::Event::kBobBlock:
        parent = bob_tip_;
        miner = kBob;
        break;
      case bu::Event::kCarolBlock:
        parent = carol_tip_;
        miner = kCarol;
        break;
    }
    const chain::BlockId block = tree_.add_block(parent, size, miner);

    if (starts_fork) {
      ForkRecord record;
      record.base = parent;
      record.chain1_tip = parent;  // Chain 1 is empty at the split
      record.chain2_tip = block;
      record.phase2 = abstract.r > 0;
      record.r_at_start = abstract.r;
      fork_ = record;
      ++result.forks_started;
    } else if (fork_) {
      if (parent == fork_->chain1_tip) {
        fork_->chain1_tip = block;
      } else if (parent == fork_->chain2_tip) {
        fork_->chain2_tip = block;
      } else {
        BVC_ENSURE(false, "mid-fork block extends neither chain");
      }
    }

    // ---- update the compliant nodes' views -------------------------------
    if (fork_) {
      bob_tip_ = select_tip(tree_, bob_rule_, bob_gate_, bob_tip_,
                            {fork_->chain1_tip, fork_->chain2_tip});
      carol_tip_ = select_tip(tree_, carol_rule_, carol_gate_, carol_tip_,
                              {fork_->chain1_tip, fork_->chain2_tip});
    } else {
      bob_tip_ = block;
      carol_tip_ = block;
    }

    // ---- resolve / lock ---------------------------------------------------
    if (fork_ && bob_tip_ == carol_tip_) {
      const chain::BlockId winner = bob_tip_;
      const chain::BlockId loser = winner == fork_->chain1_tip
                                       ? fork_->chain2_tip
                                       : fork_->chain1_tip;
      resolve_fork(winner, loser, result);
    } else {
      lock_common_prefix(result);
    }
    maybe_reroot();

    // ---- accounting -------------------------------------------------------
    bu::Deltas delta;
    delta.alice_locked = result.totals.alice_locked - before.alice_locked;
    delta.others_locked = result.totals.others_locked - before.others_locked;
    delta.alice_orphaned =
        result.totals.alice_orphaned - before.alice_orphaned;
    delta.others_orphaned =
        result.totals.others_orphaned - before.others_orphaned;
    delta.double_spend = result.totals.double_spend - before.double_spend;

    if (options_.check_against_model) {
      const bu::AttackState after = derive_state();
      BVC_ENSURE(after == expected.next,
                 "chain semantics diverged from the MDP: state " +
                     bu::to_string(after) + " vs expected " +
                     bu::to_string(expected.next));
      const auto close = [](double x, double y) {
        return std::abs(x - y) < 1e-9;
      };
      BVC_ENSURE(close(delta.alice_locked, expected.deltas.alice_locked) &&
                     close(delta.others_locked,
                           expected.deltas.others_locked) &&
                     close(delta.alice_orphaned,
                           expected.deltas.alice_orphaned) &&
                     close(delta.others_orphaned,
                           expected.deltas.others_orphaned) &&
                     close(delta.double_spend, expected.deltas.double_spend),
                 "chain semantics produced different rewards than the MDP");
    }

    const auto [dn, dd] = bu::utility_increments(model_->utility, delta);
    num += dn;
    den += dd;
  };

  result.status = engine.drain(
      control, [&](const EventEngine<std::uint64_t>::Event& event) {
        on_step(event.payload);
      });
  engine.publish_metrics();
  result.utility_estimate = den > 0.0 ? num / den : 0.0;
  return result;
}

}  // namespace bvc::sim
