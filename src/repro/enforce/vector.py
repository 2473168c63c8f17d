"""Elementwise tier arithmetic for the enforcement ladder.

The fleet pool (:mod:`repro.fleet`) steps thousands of sessions per
call, so the ladder must run as array math rather than one
:class:`~repro.enforce.ladder.EnforcementLadder` object per session.
This module provides the three pure pieces — signal, desired tier, and
the one-rung transition with hysteresis — each an elementwise twin of
the scalar code in :mod:`repro.enforce.ladder`:

* every comparison and arithmetic op matches the scalar path exactly
  (same expressions, same operand order), so a row fed the same floats
  produces the same tier;
* KILL remains terminal and escalation monotone: callers drop killed
  rows from the step mask, and the transition rule moves at most one
  rung per observation by construction.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .ladder import LadderPolicy, Tier

__all__ = [
    "desired_tier_array",
    "ladder_observe_array",
    "overdraft_signal_arrays",
    "throttle_s_array",
]


def overdraft_signal_arrays(
    effective_budget_j: np.ndarray,
    energy_used_j: np.ndarray,
    remaining_work: np.ndarray,
    remaining_energy_j: np.ndarray,
    recent_epw: np.ndarray,
    recent_step_energy_j: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.enforce.ladder.overdraft_signal`.

    Returns ``(projected_overrun, burn_fraction, headroom_steps)``.
    Rows whose smoothed per-step energy is non-positive get infinite
    headroom, mirroring the scalar ``None`` case.  Callers must pass a
    valid (possibly zero) ``recent_epw`` for every row — the fleet pool
    seeds both EWMAs on a session's first step, exactly as the session
    manager does.
    """
    budget = np.maximum(
        np.asarray(effective_budget_j, dtype=np.float64), 1e-12
    )
    spent = np.asarray(energy_used_j, dtype=np.float64)
    burn_fraction = spent / budget
    projected = spent + recent_epw * remaining_work
    projected_overrun = np.maximum(0.0, projected / budget - 1.0)
    step_energy = np.asarray(recent_step_energy_j, dtype=np.float64)
    has_step = step_energy > 0.0
    headroom_steps = np.where(
        has_step,
        np.maximum(
            0.0,
            remaining_energy_j / np.where(has_step, step_energy, 1.0),
        ),
        np.inf,
    )
    return projected_overrun, burn_fraction, headroom_steps


def desired_tier_array(
    policy: LadderPolicy,
    projected_overrun: np.ndarray,
    burn_fraction: np.ndarray,
    headroom_steps: np.ndarray,
    tier: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized :meth:`LadderPolicy.desired_tier` from ``tier``.

    ``tier`` is each row's current tier (all NOMINAL when omitted).
    """
    overrun = np.asarray(projected_overrun, dtype=np.float64)
    burn = np.asarray(burn_fraction, dtype=np.float64)
    headroom = np.asarray(headroom_steps, dtype=np.float64)
    current = (
        np.zeros(overrun.shape, dtype=np.int64)
        if tier is None
        else np.asarray(tier, dtype=np.int64)
    )
    held = (current >= int(Tier.DEGRADE)) & (overrun > 0.0)
    hard = burn >= policy.hard_burn_gate
    runaway = held | (overrun > policy.kill_overrun)
    kill = hard & runaway & (headroom < policy.kill_headroom_steps)
    throttle = hard & (
        (overrun > policy.throttle_overrun)
        | (runaway & (headroom < policy.throttle_headroom_steps))
    )
    degrade = (burn >= policy.degrade_burn_gate) & (
        overrun > policy.degrade_overrun
    )
    advise = overrun > policy.advise_overrun
    # Tiers are ordered, so the first matching rule (KILL before
    # THROTTLE before ...) is the largest ``rule * tier``; a held row
    # keeps at least its current tier.
    desired: np.ndarray = np.maximum(
        np.maximum(kill * int(Tier.KILL), throttle * int(Tier.THROTTLE)),
        np.maximum(degrade * int(Tier.DEGRADE), advise * int(Tier.ADVISE)),
    )
    np.maximum(desired, held * current, out=desired)
    return desired


def ladder_observe_array(
    policy: LadderPolicy,
    tier: np.ndarray,
    calm_streak: np.ndarray,
    desired: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One :meth:`EnforcementLadder.observe` transition per row.

    Pure function of ``(tier, calm_streak, desired)`` — returns
    ``(new_tier, new_calm_streak)``.  Escalation moves exactly one rung
    and resets the calm streak; de-escalation requires
    ``policy.hold_steps`` consecutive calmer observations; an equal
    desire resets the streak.  Callers must exclude already-killed rows
    (the scalar ladder raises for those).
    """
    current = np.asarray(tier, dtype=np.int64)
    calm = np.asarray(calm_streak, dtype=np.int64)
    want = np.asarray(desired, dtype=np.int64)
    calmer = want < current
    calm_next = calm + 1
    drop = calmer & (calm_next >= policy.hold_steps)
    new_tier: np.ndarray = current + (want > current) - drop
    new_calm: np.ndarray = np.where(calmer & ~drop, calm_next, 0)
    return new_tier, new_calm


def throttle_s_array(
    policy: LadderPolicy,
    tier: np.ndarray,
    projected_overrun: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`LadderPolicy.throttle_s`, gated on THROTTLE."""
    overrun = np.asarray(projected_overrun, dtype=np.float64)
    scale = 1.0 + 4.0 * np.minimum(overrun, 1.0)
    sleep = np.minimum(
        policy.throttle_max_s, policy.throttle_unit_s * scale
    )
    result: np.ndarray = np.where(
        np.asarray(tier, dtype=np.int64) == int(Tier.THROTTLE), sleep, 0.0
    )
    return result
