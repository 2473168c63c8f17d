"""Fleet-level telemetry: the ``jg_fleet_*`` metric families.

The simulator reports through the same
:class:`~repro.obs.registry.MetricsRegistry` the service daemon uses,
so fleet runs expose the identical Prometheus text format
(:func:`repro.obs.prom.render_text`) and JSON sample dumps as a live
deployment — budget violations per million sessions, accuracy and
burn-fraction distribution tails included.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..obs.prom import render_text
from ..obs.registry import MetricsRegistry

__all__ = ["ACCURACY_BUCKETS", "BURN_BUCKETS", "FleetMetrics"]

#: Session-accuracy buckets: the interesting tail is the low end.
ACCURACY_BUCKETS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)

#: Burn-fraction buckets: 1.0 is the hard budget bound.
BURN_BUCKETS = (0.25, 0.5, 0.75, 0.9, 0.95, 1.0, 1.05, 1.25, 1.5, 2.0)


class FleetMetrics:
    """The fleet simulator's metric families, registered once."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        r = self.registry
        self.opened = r.counter(
            "jg_fleet_sessions_opened_total",
            "Sessions admitted to the fleet.",
            ("cohort",),
        )
        self.retired = r.counter(
            "jg_fleet_sessions_retired_total",
            "Sessions retired, by outcome "
            "(completed / killed / churned / running).",
            ("cohort", "outcome"),
        )
        self.hard_overdraft = r.counter(
            "jg_fleet_hard_overdraft_total",
            "Sessions that reached a hard tier and still finished "
            "over their effective budget (the ladder guarantee says "
            "this stays zero).",
            ("cohort",),
        )
        self.budget_violations = r.counter(
            "jg_fleet_budget_violations_total",
            "Retired sessions whose spend exceeded the effective "
            "budget (any tier).",
            ("cohort",),
        )
        self.kills = r.counter(
            "jg_fleet_kills_total",
            "Sessions terminated by the enforcement ladder.",
            ("cohort",),
        )
        self.device_steps = r.counter(
            "jg_fleet_device_steps_total",
            "Alive-session steps executed across the fleet.",
        )
        self.epochs = r.counter(
            "jg_fleet_epochs_total",
            "Simulation epochs executed.",
        )
        self.alive = r.gauge(
            "jg_fleet_alive_sessions",
            "Currently alive sessions.",
            ("cohort",),
        )
        self.accuracy = r.histogram(
            "jg_fleet_session_accuracy",
            "Mean per-session accuracy at retirement.",
            ("cohort",),
            buckets=ACCURACY_BUCKETS,
        )
        self.burn = r.histogram(
            "jg_fleet_session_burn_fraction",
            "Energy spent over effective budget at retirement.",
            ("cohort",),
            buckets=BURN_BUCKETS,
        )

    def observe_accuracy(self, cohort: str, values: Sequence[float]) -> None:
        """Fold retired sessions' accuracies, in order."""
        child = self.accuracy.labels(cohort)
        for value in values:
            child.observe(value, self.accuracy.uppers)

    def observe_burn(self, cohort: str, values: Sequence[float]) -> None:
        """Fold retired sessions' burn fractions, in order."""
        child = self.burn.labels(cohort)
        for value in values:
            child.observe(value, self.burn.uppers)

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_text(self.registry)
