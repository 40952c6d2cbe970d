#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "bu/attack_model.hpp"
#include "bu/attack_state.hpp"

namespace {

using namespace bvc::bu;
using bvc::mdp::StateId;

AttackParams default_params(Setting setting = Setting::kNoStickyGate) {
  AttackParams params;
  params.alpha = 0.2;
  params.beta = 0.4;
  params.gamma = 0.4;
  params.ad = 6;
  params.setting = setting;
  return params;
}

// -------------------------------------------------------------- StateSpace --

TEST(StateSpace, BaseStateIsIndexZero) {
  const StateSpace space(6, 0);
  EXPECT_EQ(space.base(), 0u);
  EXPECT_EQ(space.state(0), AttackState{});
}

TEST(StateSpace, RoundTripsEveryState) {
  const StateSpace space(6, 144);
  for (StateId id = 0; id < space.size(); ++id) {
    EXPECT_EQ(space.index(space.state(id)), id);
  }
}

TEST(StateSpace, Setting1SizeMatchesClosedForm) {
  // Shapes: base + sum over l2=1..AD-1, l1=0..l2 of (l1+1) * l2.
  const unsigned ad = 6;
  const StateSpace space(ad, 0);
  std::size_t expected = 1;
  for (unsigned l2 = 1; l2 < ad; ++l2) {
    for (unsigned l1 = 0; l1 <= l2; ++l1) {
      expected += (l1 + 1) * l2;
    }
  }
  EXPECT_EQ(space.size(), expected);
}

TEST(StateSpace, Setting2IsSetting1TimesGatePeriodPlusOne) {
  const StateSpace s1(6, 0);
  const StateSpace s2(6, 144);
  EXPECT_EQ(s2.size(), s1.size() * 145u);
}

TEST(StateSpace, RejectsUnreachableShapes) {
  const StateSpace space(6, 0);
  // a2 = 0 in a fork state is unreachable (Chain 2 starts with Alice's
  // block).
  EXPECT_FALSE(space.contains(AttackState{0, 1, 0, 0, 0}));
  // l1 > l2 is unreachable (Chain 1 would have already won).
  EXPECT_FALSE(space.contains(AttackState{2, 1, 0, 1, 0}));
  // l2 = AD is unreachable (Chain 2 locks on reaching AD).
  EXPECT_FALSE(space.contains(AttackState{0, 6, 0, 1, 0}));
  EXPECT_THROW((void)space.index(AttackState{0, 1, 0, 0, 0}),
               std::invalid_argument);
}

TEST(StateSpace, ContainsReachableShapes) {
  const StateSpace space(6, 144);
  EXPECT_TRUE(space.contains(AttackState{}));
  EXPECT_TRUE(space.contains(AttackState{0, 1, 0, 1, 0}));
  EXPECT_TRUE(space.contains(AttackState{5, 5, 3, 2, 144}));
  EXPECT_FALSE(space.contains(AttackState{0, 0, 0, 0, 145}));
}

TEST(StateSpace, ToStringIsReadable) {
  EXPECT_EQ(to_string(AttackState{1, 3, 0, 2, 12}), "(1,3,0,2|r=12)");
}

// ------------------------------------------------------------- validation --

TEST(AttackParams, ValidatesShares) {
  AttackParams params = default_params();
  params.alpha = 0.6;
  params.beta = params.gamma = 0.2;
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = default_params();
  params.gamma = 0.3;  // sum != 1
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = default_params();
  EXPECT_NO_THROW(params.validate());
}

// ----------------------------------------------------- apply_event, base ---

TEST(ApplyEvent, BaseOnChain1LocksOneBlock) {
  const AttackParams params = default_params();
  const AttackState base{};

  const StepResult alice =
      apply_event(params, base, Action::kOnChain1, Event::kAliceBlock);
  EXPECT_EQ(alice.next, base);
  EXPECT_DOUBLE_EQ(alice.deltas.alice_locked, 1.0);
  EXPECT_DOUBLE_EQ(alice.deltas.others_locked, 0.0);

  const StepResult bob =
      apply_event(params, base, Action::kOnChain1, Event::kBobBlock);
  EXPECT_EQ(bob.next, base);
  EXPECT_DOUBLE_EQ(bob.deltas.others_locked, 1.0);
}

TEST(ApplyEvent, BaseOnChain2StartsFork) {
  const AttackParams params = default_params();
  const StepResult step = apply_event(params, AttackState{},
                                      Action::kOnChain2, Event::kAliceBlock);
  EXPECT_EQ(step.next, (AttackState{0, 1, 0, 1, 0}));
  EXPECT_DOUBLE_EQ(step.deltas.total_locked(), 0.0);
  EXPECT_DOUBLE_EQ(step.deltas.total_orphaned(), 0.0);
}

TEST(ApplyEvent, BaseOnChain2OthersBlockLocksNormally) {
  const AttackParams params = default_params();
  const StepResult step = apply_event(params, AttackState{},
                                      Action::kOnChain2, Event::kCarolBlock);
  EXPECT_EQ(step.next, AttackState{});
  EXPECT_DOUBLE_EQ(step.deltas.others_locked, 1.0);
}

TEST(ApplyEvent, BaseLockDecrementsGateCountdown) {
  AttackParams params = default_params(Setting::kStickyGate);
  AttackState base{};
  base.r = 10;
  const StepResult step =
      apply_event(params, base, Action::kOnChain1, Event::kBobBlock);
  EXPECT_EQ(step.next.r, 9);

  base.r = 1;
  const StepResult closing =
      apply_event(params, base, Action::kOnChain1, Event::kAliceBlock);
  EXPECT_EQ(closing.next.r, 0);  // gate closes; back to phase 1
}

TEST(ApplyEvent, ForkStartPreservesCountdown) {
  AttackParams params = default_params(Setting::kStickyGate);
  AttackState base{};
  base.r = 37;
  const StepResult step =
      apply_event(params, base, Action::kOnChain2, Event::kAliceBlock);
  EXPECT_EQ(step.next, (AttackState{0, 1, 0, 1, 37}));
}

TEST(ApplyEvent, WaitRequiresEnabledFlag) {
  AttackParams params = default_params();
  EXPECT_THROW((void)apply_event(params, AttackState{}, Action::kWait,
                                 Event::kBobBlock),
               std::invalid_argument);
  params.allow_wait = true;
  EXPECT_NO_THROW((void)apply_event(params, AttackState{}, Action::kWait,
                                    Event::kBobBlock));
  EXPECT_THROW((void)apply_event(params, AttackState{}, Action::kWait,
                                 Event::kAliceBlock),
               std::invalid_argument);
}

// ----------------------------------------------------- apply_event, fork ---

TEST(ApplyEvent, Chain1GrowsWhileBehind) {
  const AttackParams params = default_params();
  const AttackState state{0, 2, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kAliceBlock);
  EXPECT_EQ(step.next, (AttackState{1, 2, 1, 1, 0}));
  EXPECT_DOUBLE_EQ(step.deltas.total_locked(), 0.0);
}

TEST(ApplyEvent, BobMinesChain1InPhase1) {
  const AttackParams params = default_params();
  const AttackState state{1, 2, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kBobBlock);
  EXPECT_EQ(step.next, (AttackState{2, 2, 0, 1, 0}));
}

TEST(ApplyEvent, CarolMinesChain2InPhase1) {
  const AttackParams params = default_params();
  const AttackState state{1, 2, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_EQ(step.next, (AttackState{1, 3, 0, 1, 0}));
}

TEST(ApplyEvent, Chain1WinLocksAndOrphans) {
  // Table 1 row "(l1,l2,a1,a2), onC1, l1 = l2 != AD-1", Alice's event:
  // Chain 1 outgrows Chain 2, locking a1+1 Alice blocks and l1-a1 others,
  // orphaning Chain 2 (a2 Alice, l2-a2 others).
  const AttackParams params = default_params();
  const AttackState state{2, 2, 1, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kAliceBlock);
  EXPECT_EQ(step.next, AttackState{});
  EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 2.0);   // a1 + 1
  EXPECT_DOUBLE_EQ(step.deltas.others_locked, 1.0);  // l1 - a1
  EXPECT_DOUBLE_EQ(step.deltas.alice_orphaned, 1.0); // a2
  EXPECT_DOUBLE_EQ(step.deltas.others_orphaned, 1.0);// l2 - a2
}

TEST(ApplyEvent, Chain1CannotWinWhileBehind) {
  const AttackParams params = default_params();
  const AttackState state{1, 3, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kBobBlock);
  EXPECT_EQ(step.next, (AttackState{2, 3, 0, 1, 0}));
}

TEST(ApplyEvent, Chain2WinAtAcceptanceDepth) {
  // Table 1 row "onC2, l1 < l2 = AD-1": Alice or Carol completes the AD-th
  // block; Chain 2 locks AD blocks, Chain 1 is orphaned.
  const AttackParams params = default_params();  // AD = 6
  const AttackState state{2, 5, 1, 3, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kAliceBlock);
  EXPECT_EQ(step.next, AttackState{});
  EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 4.0);    // a2 + 1
  EXPECT_DOUBLE_EQ(step.deltas.others_locked, 2.0);   // l2 + 1 - (a2 + 1)
  EXPECT_DOUBLE_EQ(step.deltas.alice_orphaned, 1.0);  // a1
  EXPECT_DOUBLE_EQ(step.deltas.others_orphaned, 1.0); // l1 - a1
}

TEST(ApplyEvent, Chain2WinByCarolCountsHerBlock) {
  // Fixes the paper's Table 1 typo: when Carol completes Chain 2 at
  // l1 = l2 = AD-1, others must receive l2 + 1 - a2 (not l2 - a2).
  const AttackParams params = default_params();
  const AttackState state{5, 5, 0, 2, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_EQ(step.next, AttackState{});
  EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 2.0);    // a2
  EXPECT_DOUBLE_EQ(step.deltas.others_locked, 4.0);   // l2 + 1 - a2
  EXPECT_DOUBLE_EQ(step.deltas.alice_orphaned, 0.0);  // a1
  EXPECT_DOUBLE_EQ(step.deltas.others_orphaned, 5.0); // l1 - a1
}

TEST(ApplyEvent, Chain2WinOpensGateInSetting2) {
  // Rizun semantics (kLockedCount, the default): the gate's non-excessive
  // run starts at the trigger block, so the AD-1 fork blocks already count
  // and the remaining countdown is gate_period - (AD - 1).
  const AttackParams params = default_params(Setting::kStickyGate);
  const AttackState state{0, 5, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kCarolBlock);
  EXPECT_EQ(step.next.r, params.gate_period - (params.ad - 1));
  EXPECT_TRUE(step.next.is_base());
}

TEST(ApplyEvent, Chain2WinOpensGateWithFullCountdownUnderPaperText) {
  AttackParams params = default_params(Setting::kStickyGate);
  params.countdown = GateCountdown::kPaperText;
  const AttackState state{0, 5, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kCarolBlock);
  EXPECT_EQ(step.next.r, params.gate_period);
}

TEST(ApplyEvent, Chain2WinStaysPhase1InSetting1) {
  const AttackParams params = default_params(Setting::kNoStickyGate);
  const AttackState state{0, 5, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kCarolBlock);
  EXPECT_EQ(step.next, AttackState{});
}

// --------------------------------------------------------------- phase 2 ---

TEST(ApplyEvent, Phase2SwapsBobAndCarol) {
  const AttackParams params = default_params(Setting::kStickyGate);
  const AttackState state{1, 2, 0, 1, 100};
  // Bob now works on Chain 2...
  const StepResult bob =
      apply_event(params, state, Action::kOnChain1, Event::kBobBlock);
  EXPECT_EQ(bob.next, (AttackState{1, 3, 0, 1, 100}));
  // ...and Carol on Chain 1.
  const StepResult carol =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_EQ(carol.next, (AttackState{2, 2, 0, 1, 100}));
}

TEST(ApplyEvent, Phase2Chain1WinDecrementsCountdownByLockedBlocks) {
  AttackParams params = default_params(Setting::kStickyGate);
  params.countdown = GateCountdown::kLockedCount;
  const AttackState state{2, 2, 0, 1, 100};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_TRUE(step.next.is_base());
  EXPECT_EQ(step.next.r, 97);  // 100 - (l1 + 1)
}

TEST(ApplyEvent, Phase2Chain1WinPaperTextVariant) {
  AttackParams params = default_params(Setting::kStickyGate);
  params.countdown = GateCountdown::kPaperText;
  const AttackState state{2, 2, 0, 1, 100};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_EQ(step.next.r, 98);  // 100 - l1
}

TEST(ApplyEvent, Phase2Chain1WinClosesGateWhenCountdownExhausted) {
  const AttackParams params = default_params(Setting::kStickyGate);
  const AttackState state{2, 2, 0, 1, 2};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kCarolBlock);
  EXPECT_EQ(step.next.r, 0);  // clamped at zero: phase 1 resumes
}

TEST(ApplyEvent, Phase2Chain2WinCollapsesToPhase1Base) {
  // Carol's gate opens too (phase 3); the paper models a return to the
  // phase-1 base state.
  const AttackParams params = default_params(Setting::kStickyGate);
  const AttackState state{1, 5, 1, 2, 77};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kBobBlock);
  EXPECT_EQ(step.next, AttackState{});
  EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 2.0);
  EXPECT_DOUBLE_EQ(step.deltas.others_locked, 4.0);
}

TEST(ApplyEvent, AdOneForkInPhase2CollapsesToPhase1Base) {
  // At AD 1 Alice's excessive block is accepted on sight. At a phase-2 base
  // state that is a phase-2 Chain-2 win: her block is locked and the model
  // returns to the phase-1 base (r = 0), whether AD 1 is both sides' depth
  // or only Carol's, who rejects Chain 2 in phase 2.
  AttackParams both = default_params(Setting::kStickyGate);
  both.ad = 1;
  AttackParams carol_only = default_params(Setting::kStickyGate);
  carol_only.ad_carol = 1;
  for (const AttackParams& params : {both, carol_only}) {
    SCOPED_TRACE("ad " + std::to_string(params.ad) + ", ad_carol " +
                 std::to_string(params.ad_carol));
    const StepResult step =
        apply_event(params, AttackState{0, 0, 0, 0, 77}, Action::kOnChain2,
                    Event::kAliceBlock);
    EXPECT_EQ(step.next, AttackState{});
    EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 1.0);
    EXPECT_DOUBLE_EQ(step.deltas.others_locked, 0.0);
  }
}

TEST(ApplyEvent, AdOneForkInPhase1OpensTheGate) {
  // The same instant win in phase 1 is a phase-1 Chain-2 win: Bob's gate
  // opens with the full countdown (AD - 1 = 0 fork blocks already count).
  AttackParams params = default_params(Setting::kStickyGate);
  params.ad = 1;
  const StepResult step = apply_event(params, AttackState{}, Action::kOnChain2,
                                      Event::kAliceBlock);
  EXPECT_TRUE(step.next.is_base());
  EXPECT_EQ(step.next.r, 144);
  EXPECT_DOUBLE_EQ(step.deltas.alice_locked, 1.0);
}

// ---------------------------------------------------------- double spend ---

TEST(DoubleSpend, RevenueFormula) {
  AttackParams params = default_params();
  params.confirmations = 4;
  params.rds = 10.0;
  EXPECT_DOUBLE_EQ(double_spend_revenue(params, 0), 0.0);
  EXPECT_DOUBLE_EQ(double_spend_revenue(params, 3), 0.0);
  EXPECT_DOUBLE_EQ(double_spend_revenue(params, 4), 10.0);
  EXPECT_DOUBLE_EQ(double_spend_revenue(params, 5), 20.0);
}

TEST(DoubleSpend, AwardedWhenChain1WinOrphansLongChain2) {
  const AttackParams params = default_params();  // conf 4, rds 10
  const AttackState state{5, 5, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kBobBlock);
  EXPECT_TRUE(step.next.is_base());
  EXPECT_DOUBLE_EQ(step.deltas.double_spend, 20.0);  // (5 - 3) * 10
}

TEST(DoubleSpend, AwardedWhenChain2WinOrphansLongChain1) {
  const AttackParams params = default_params();
  const AttackState state{4, 5, 2, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain2, Event::kCarolBlock);
  EXPECT_TRUE(step.next.is_base());
  EXPECT_DOUBLE_EQ(step.deltas.double_spend, 10.0);  // (4 - 3) * 10
}

TEST(DoubleSpend, NotAwardedForShortForks) {
  const AttackParams params = default_params();
  const AttackState state{1, 1, 0, 1, 0};
  const StepResult step =
      apply_event(params, state, Action::kOnChain1, Event::kBobBlock);
  EXPECT_DOUBLE_EQ(step.deltas.double_spend, 0.0);
}

// ------------------------------------------------- conservation sweeps ----

using SweepParam = std::tuple<Setting, int /*action count*/>;

class ConservationSweep : public ::testing::TestWithParam<Setting> {};

TEST_P(ConservationSweep, EveryTransitionConservesBlocks) {
  // Property: each event mines exactly one block, so across any transition,
  // locked + orphaned blocks == blocks removed from the in-flight state:
  //   l1 + l2 + 1(new block) == l1' + l2' + locked + orphaned.
  AttackParams params = default_params(GetParam());
  params.gate_period = 8;  // keep the sweep fast; semantics are identical
  params.allow_wait = true;
  const StateSpace space(params.ad, params.max_r());

  for (StateId id = 0; id < space.size(); ++id) {
    const AttackState& s = space.state(id);
    for (const Action action : available_actions(params, s)) {
      for (const Event event :
           {Event::kAliceBlock, Event::kBobBlock, Event::kCarolBlock}) {
        if (action == Action::kWait && event == Event::kAliceBlock) {
          continue;
        }
        const StepResult step = apply_event(params, s, action, event);
        const double in_flight_before = s.l1 + s.l2;
        const double in_flight_after = step.next.l1 + step.next.l2;
        const double settled =
            step.deltas.total_locked() + step.deltas.total_orphaned();
        EXPECT_DOUBLE_EQ(in_flight_before + 1.0, in_flight_after + settled)
            << "state " << to_string(s) << " action " << to_string(action)
            << " event " << static_cast<int>(event);
        // Alice's in-flight blocks are likewise conserved.
        const double alice_before = s.a1 + s.a2;
        const double alice_after = step.next.a1 + step.next.a2;
        const double alice_mined = event == Event::kAliceBlock ? 1.0 : 0.0;
        EXPECT_DOUBLE_EQ(
            alice_before + alice_mined,
            alice_after + step.deltas.alice_locked +
                step.deltas.alice_orphaned)
            << "state " << to_string(s) << " action " << to_string(action);
        // Successor must be in the reachable space.
        EXPECT_TRUE(space.contains(step.next))
            << to_string(s) << " -> " << to_string(step.next);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Settings, ConservationSweep,
                         ::testing::Values(Setting::kNoStickyGate,
                                           Setting::kStickyGate));

// --------------------------------------------------------- model building --

TEST(BuildModel, ProbabilitiesMatchPowers) {
  const AttackParams params = default_params();
  const AttackModel model = build_attack_model(params,
                                               Utility::kRelativeRevenue);
  // At the base state, OnChain1 keeps the system at base with prob 1.
  const bvc::mdp::CompiledModel& compiled = *model.compiled;
  const bvc::mdp::SaIndex sa = compiled.sa_index(model.space.base(), 0);
  double mass = 0.0;
  for (std::size_t k = compiled.outcome_begin(sa);
       k < compiled.outcome_end(sa); ++k) {
    mass += compiled.prob()[k];
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(BuildModel, WaitOnlyForOrphaningUtility) {
  const AttackParams params = default_params();
  const AttackModel u1 = build_attack_model(params,
                                            Utility::kRelativeRevenue);
  const AttackModel u3 = build_attack_model(params, Utility::kOrphaning);
  EXPECT_EQ(u1.compiled->num_actions(u1.space.base()), 2u);
  EXPECT_EQ(u3.compiled->num_actions(u3.space.base()), 3u);
}

TEST(BuildModel, AbsoluteRewardWeightIsOnePerStep) {
  const AttackParams params = default_params();
  const AttackModel model = build_attack_model(params,
                                               Utility::kAbsoluteReward);
  const bvc::mdp::CompiledModel& compiled = *model.compiled;
  for (StateId id = 0; id < model.space.size(); ++id) {
    for (std::size_t a = 0; a < compiled.num_actions(id); ++a) {
      EXPECT_DOUBLE_EQ(compiled.expected_weight(compiled.sa_index(id, a)),
                       1.0);
    }
  }
}

TEST(BuildModel, EventProbabilitiesForWaitRenormalize) {
  AttackParams params = default_params();
  params.allow_wait = true;
  const auto probs = event_probabilities(params, Action::kWait);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_NEAR(probs[1] + probs[2], 1.0, 1e-12);
  EXPECT_NEAR(probs[1] / probs[2], params.beta / params.gamma, 1e-12);
}

}  // namespace
