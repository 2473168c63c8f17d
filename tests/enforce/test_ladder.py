"""Tests for the enforcement ladder state machine and its policy."""

import math

import pytest

from repro.core.budget import BudgetAccountant, EnergyGoal
from repro.core.contracts import ContractError
from repro.enforce.ladder import (
    DEFAULT_LADDER,
    EnforcementLadder,
    KilledSessionError,
    LadderPolicy,
    OverdraftSignal,
    Tier,
    monotone_transitions,
    overdraft_signal,
)


def signal(overrun=0.0, burn=0.0, headroom=math.inf):
    return OverdraftSignal(
        projected_overrun=overrun,
        burn_fraction=burn,
        headroom_steps=headroom,
    )


class TestTier:
    def test_severity_order(self):
        assert (
            Tier.NOMINAL
            < Tier.ADVISE
            < Tier.DEGRADE
            < Tier.THROTTLE
            < Tier.KILL
        )

    def test_labels_are_wire_names(self):
        assert Tier.KILL.label == "kill"
        assert Tier.NOMINAL.label == "nominal"


class TestOverdraftSignal:
    def test_rejects_negative_fields(self):
        with pytest.raises(ContractError):
            OverdraftSignal(-0.1, 0.0, 1.0)
        with pytest.raises(ContractError):
            OverdraftSignal(0.0, -0.1, 1.0)
        with pytest.raises(ContractError):
            OverdraftSignal(0.0, 0.0, -1.0)

    def test_from_accountant(self):
        accountant = BudgetAccountant(
            EnergyGoal(total_work=10.0, budget_j=100.0)
        )
        accountant.record(work=5.0, energy_j=60.0)
        sig = overdraft_signal(
            accountant, recent_epw=12.0, recent_step_energy_j=12.0
        )
        # Forecast: 60 spent + 12 * 5 remaining = 120 J on a 100 J
        # budget -> 20 % overrun, 60 % burned, 40/12 steps of headroom.
        assert sig.projected_overrun == pytest.approx(0.2)
        assert sig.burn_fraction == pytest.approx(0.6)
        assert sig.headroom_steps == pytest.approx(40.0 / 12.0)

    def test_no_estimates_means_no_alarm(self):
        accountant = BudgetAccountant(
            EnergyGoal(total_work=10.0, budget_j=100.0)
        )
        sig = overdraft_signal(accountant, None, None)
        assert sig.projected_overrun == 0.0
        assert sig.headroom_steps == math.inf


class TestLadderPolicy:
    def test_nominal_when_quiet(self):
        assert DEFAULT_LADDER.desired_tier(signal()) is Tier.NOMINAL

    def test_advise_on_any_real_overrun(self):
        sig = signal(overrun=0.1, burn=0.05)
        assert DEFAULT_LADDER.desired_tier(sig) is Tier.ADVISE

    def test_degrade_is_burn_gated(self):
        hot = signal(overrun=0.45, burn=0.05)
        assert DEFAULT_LADDER.desired_tier(hot) is Tier.ADVISE
        later = signal(overrun=0.45, burn=0.30)
        assert DEFAULT_LADDER.desired_tier(later) is Tier.DEGRADE

    def test_hard_tiers_are_burn_gated(self):
        early = signal(overrun=0.9, burn=0.30, headroom=3.0)
        assert DEFAULT_LADDER.desired_tier(early) is Tier.DEGRADE
        hard = signal(overrun=0.9, burn=0.60, headroom=30.0)
        assert DEFAULT_LADDER.desired_tier(hard) is Tier.THROTTLE

    def test_kill_needs_runaway_and_low_headroom(self):
        sig = signal(overrun=0.6, burn=0.6, headroom=5.0)
        assert DEFAULT_LADDER.desired_tier(sig) is Tier.KILL

    def test_low_headroom_alone_never_kills(self):
        # Every healthy session ends with headroom near zero; that
        # must not be a kill (or even a hard-tier) trigger by itself.
        ending = signal(overrun=0.0, burn=0.95, headroom=1.0)
        assert DEFAULT_LADDER.desired_tier(ending) is Tier.NOMINAL

    def test_enforced_session_is_held_while_it_forecasts_overrun(self):
        # Pinned at DEGRADE, a 38 % overrun forecast is below the
        # degrade threshold, but releasing the pin would only raise
        # the spend: the tier holds until the forecast fits.
        pinned = signal(overrun=0.38, burn=0.6, headroom=30.0)
        assert DEFAULT_LADDER.desired_tier(pinned) is Tier.ADVISE
        assert (
            DEFAULT_LADDER.desired_tier(pinned, Tier.DEGRADE)
            is Tier.DEGRADE
        )
        fits = signal(overrun=0.0, burn=0.6, headroom=30.0)
        assert (
            DEFAULT_LADDER.desired_tier(fits, Tier.THROTTLE)
            is Tier.NOMINAL
        )

    def test_enforced_overrun_kills_before_the_hard_bound(self):
        # Any overrun an enforced session still forecasts counts as a
        # runaway for the headroom rules, however small it is.
        closing = signal(overrun=0.05, burn=0.8, headroom=15.0)
        assert (
            DEFAULT_LADDER.desired_tier(closing, Tier.DEGRADE)
            is Tier.THROTTLE
        )
        last = signal(overrun=0.05, burn=0.9, headroom=5.0)
        assert (
            DEFAULT_LADDER.desired_tier(last, Tier.THROTTLE) is Tier.KILL
        )
        # The same signal from an unenforced session stays advisory.
        assert DEFAULT_LADDER.desired_tier(last) is Tier.ADVISE

    def test_threshold_validation(self):
        with pytest.raises(ContractError):
            LadderPolicy(advise_overrun=0.5, degrade_overrun=0.1)
        with pytest.raises(ContractError):
            LadderPolicy(degrade_burn_gate=0.9, hard_burn_gate=0.5)
        with pytest.raises(ContractError):
            LadderPolicy(kill_headroom_steps=30.0)
        with pytest.raises(ContractError):
            LadderPolicy(hold_steps=0)

    def test_throttle_sleep_scales_with_overrun_and_caps(self):
        policy = LadderPolicy()
        mild = policy.throttle_s(signal(overrun=0.0))
        severe = policy.throttle_s(signal(overrun=5.0))
        assert 0.0 < mild < severe <= policy.throttle_max_s


class TestEnforcementLadder:
    def test_climbs_one_rung_per_observation(self):
        ladder = EnforcementLadder()
        kill_now = signal(overrun=2.0, burn=0.7, headroom=2.0)
        tiers = [ladder.observe(kill_now, step) for step in range(4)]
        assert tiers == [
            Tier.ADVISE,
            Tier.DEGRADE,
            Tier.THROTTLE,
            Tier.KILL,
        ]

    def test_kill_is_terminal(self):
        ladder = EnforcementLadder()
        kill_now = signal(overrun=2.0, burn=0.7, headroom=2.0)
        for step in range(4):
            ladder.observe(kill_now, step)
        assert ladder.killed
        with pytest.raises(KilledSessionError):
            ladder.observe(signal(), 4)

    def test_hysteresis_holds_before_dropping(self):
        policy = LadderPolicy(hold_steps=3)
        ladder = EnforcementLadder(policy=policy)
        ladder.observe(signal(overrun=0.1), 0)
        assert ladder.tier is Tier.ADVISE
        # Two calm observations are not enough; the third drops a rung.
        assert ladder.observe(signal(), 1) is Tier.ADVISE
        assert ladder.observe(signal(), 2) is Tier.ADVISE
        assert ladder.observe(signal(), 3) is Tier.NOMINAL

    def test_noise_resets_the_calm_streak(self):
        policy = LadderPolicy(hold_steps=2)
        ladder = EnforcementLadder(policy=policy)
        ladder.observe(signal(overrun=0.1), 0)
        ladder.observe(signal(), 1)
        # The streak resets when severity returns ...
        ladder.observe(signal(overrun=0.1), 2)
        ladder.observe(signal(), 3)
        assert ladder.tier is Tier.ADVISE
        ladder.observe(signal(), 4)
        assert ladder.tier is Tier.NOMINAL

    def test_transitions_recorded_with_signal_context(self):
        ladder = EnforcementLadder()
        ladder.observe(signal(overrun=0.1, burn=0.2), 7)
        assert len(ladder.transitions) == 1
        transition = ladder.transitions[0]
        assert transition.step == 7
        assert transition.from_tier is Tier.NOMINAL
        assert transition.to_tier is Tier.ADVISE
        assert transition.projected_overrun == pytest.approx(0.1)

    def test_as_dict_is_wire_friendly(self):
        ladder = EnforcementLadder()
        ladder.observe(signal(overrun=0.1, headroom=math.inf), 0)
        payload = ladder.as_dict()
        assert payload["tier"] == "advise"
        assert payload["transitions"][0]["headroom_steps"] is None

    def test_throttle_s_zero_unless_throttled(self):
        ladder = EnforcementLadder()
        ladder.observe(signal(overrun=0.1), 0)
        assert ladder.throttle_s() == 0.0
        kill_now = signal(overrun=2.0, burn=0.7, headroom=2.0)
        ladder.observe(kill_now, 1)
        ladder.observe(kill_now, 2)
        assert ladder.tier is Tier.THROTTLE
        assert ladder.throttle_s() > 0.0


class TestMonotoneTransitions:
    @staticmethod
    def edge(step, from_tier, to_tier):
        return {
            "step": step,
            "from": from_tier,
            "to": to_tier,
            "projected_overrun": 0.0,
            "burn_fraction": 0.0,
            "headroom_steps": None,
        }

    def test_full_climb_is_valid(self):
        edges = [
            self.edge(0, "nominal", "advise"),
            self.edge(1, "advise", "degrade"),
            self.edge(2, "degrade", "throttle"),
            self.edge(3, "throttle", "kill"),
        ]
        assert monotone_transitions(edges) == (True, "")

    def test_empty_history_is_valid(self):
        assert monotone_transitions([]) == (True, "")

    def test_rejects_rung_jumps(self):
        ok, reason = monotone_transitions(
            [self.edge(0, "nominal", "degrade")]
        )
        assert not ok and "one rung" in reason

    def test_rejects_discontinuity(self):
        ok, reason = monotone_transitions(
            [
                self.edge(0, "nominal", "advise"),
                self.edge(1, "degrade", "throttle"),
            ]
        )
        assert not ok and "discontinuous" in reason

    def test_rejects_activity_after_kill(self):
        ok, reason = monotone_transitions(
            [
                self.edge(0, "nominal", "advise"),
                self.edge(1, "advise", "degrade"),
                self.edge(2, "degrade", "throttle"),
                self.edge(3, "throttle", "kill"),
                self.edge(4, "kill", "throttle"),
            ]
        )
        assert not ok and "after kill" in reason

    def test_rejects_kill_without_degrade(self):
        ok, reason = monotone_transitions(
            [self.edge(0, "throttle", "kill")]
        )
        assert not ok and "degrade" in reason

    def test_rejects_unknown_tiers(self):
        ok, reason = monotone_transitions(
            [self.edge(0, "nominal", "martian")]
        )
        assert not ok and "unknown tier" in reason
