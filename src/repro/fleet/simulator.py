"""The fleet simulator: a million devices against the pool engine.

A :class:`FleetScenario` describes the run declaratively — cohorts
(machine shape × application, Sec. 4.2's Table 3 platforms), an
arrival curve (steady / diurnal / bursty, built from
:mod:`repro.workloads.arrivals` on top of the workload phase
vocabulary), churn, budget-factor and work ranges, and a runaway
fraction (devices whose energy waste forces the enforcement ladder
through its hard tiers).  :class:`FleetSimulator` then runs every
cohort as one :class:`~repro.fleet.pool.SessionPool` in ``"fast"``
mode: each epoch admits the arrivals (warm-started from a
cohort-shared snapshot in a
:class:`~repro.service.state.SnapshotStore`), steps the pool over
AR(1)-noised Table-3 hardware responses, retires completed / churned /
killed sessions into the :class:`FleetReport` tallies, and compacts.

Concurrency is bounded by ``max_concurrent`` (arrivals beyond the
bound are shed and counted), so "a million devices" means a million
admissions over the run, not a million live rows.  Everything is
deterministic given the scenario seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..apps import build_application
from ..enforce.ladder import DEFAULT_LADDER, Tier
from ..hw import GENERIC_PROFILE, get_machine
from ..hw.vector import Ar1NoiseBank, MachineTables
from ..service.state import SnapshotStore
from ..workloads.arrivals import (
    ArrivalTrace,
    bursty_arrivals,
    diurnal_arrivals,
    steady_arrivals,
)
from .cohort import CohortSpec
from .metrics import FleetMetrics
from .pool import SessionPool

__all__ = [
    "CohortScenario",
    "FleetReport",
    "FleetScenario",
    "FleetSimulator",
    "preset_scenario",
]

#: Tolerance when testing spend against the budget: one part in 10^9,
#: so float accumulation order can never masquerade as an overdraft.
_OVERDRAFT_EPS = 1e-9


@dataclass(frozen=True)
class CohortScenario:
    """One cohort's slice of the fleet."""

    machine: str
    app: str
    weight: float = 1.0
    min_factor: float = 1.2
    max_factor: float = 2.5
    min_work: float = 40.0
    max_work: float = 80.0
    runaway_fraction: float = 0.0
    runaway_waste: float = 3.0
    runaway_work_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("cohort weight must be positive")
        if not 1.0 <= self.min_factor <= self.max_factor:
            raise ValueError("factors must satisfy 1 <= min <= max")
        if not 0.0 < self.min_work <= self.max_work:
            raise ValueError("work range must satisfy 0 < min <= max")
        if not 0.0 <= self.runaway_fraction <= 1.0:
            raise ValueError("runaway fraction is a probability")
        if self.runaway_waste < 1.0:
            raise ValueError("runaway waste must be >= 1")
        if self.runaway_work_multiplier < 1.0:
            raise ValueError("runaway work multiplier must be >= 1")

    @property
    def label(self) -> str:
        return f"{self.machine}/{self.app}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "app": self.app,
            "weight": self.weight,
            "min_factor": self.min_factor,
            "max_factor": self.max_factor,
            "min_work": self.min_work,
            "max_work": self.max_work,
            "runaway_fraction": self.runaway_fraction,
            "runaway_waste": self.runaway_waste,
            "runaway_work_multiplier": self.runaway_work_multiplier,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CohortScenario":
        return cls(**data)


@dataclass(frozen=True)
class FleetScenario:
    """A declarative fleet run; JSON round-trippable."""

    name: str
    cohorts: Tuple[CohortScenario, ...]
    devices: float = 10_000.0
    n_epochs: int = 48
    steps_per_epoch: int = 4
    arrivals: str = "diurnal"
    mean_lifetime_epochs: float = 16.0
    max_concurrent: int = 100_000
    warm_start: bool = True
    warmup_steps: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.cohorts:
            raise ValueError("a scenario needs at least one cohort")
        if self.devices <= 0:
            raise ValueError("expected device count must be positive")
        if self.n_epochs <= 0 or self.steps_per_epoch <= 0:
            raise ValueError("epochs and steps per epoch must be positive")
        if self.arrivals not in ("steady", "diurnal", "bursty"):
            raise ValueError(f"unknown arrival shape {self.arrivals!r}")
        if self.mean_lifetime_epochs <= 0:
            raise ValueError("mean lifetime must be positive")
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.warmup_steps < 0:
            raise ValueError("warmup steps cannot be negative")

    @property
    def total_steps(self) -> int:
        return self.n_epochs * self.steps_per_epoch

    def arrival_trace(self, seed_offset: int = 0) -> ArrivalTrace:
        """The scenario's arrival curve, scaled to ``devices``."""
        seed = self.seed + seed_offset
        if self.arrivals == "steady":
            trace = steady_arrivals(self.n_epochs, 1.0, seed=seed)
        elif self.arrivals == "diurnal":
            trace = diurnal_arrivals(self.n_epochs, 1.0, seed=seed)
        else:
            trace = bursty_arrivals(self.n_epochs, 1.0, seed=seed)
        return trace.scaled_to_total(self.devices)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cohorts": [cohort.as_dict() for cohort in self.cohorts],
            "devices": self.devices,
            "n_epochs": self.n_epochs,
            "steps_per_epoch": self.steps_per_epoch,
            "arrivals": self.arrivals,
            "mean_lifetime_epochs": self.mean_lifetime_epochs,
            "max_concurrent": self.max_concurrent,
            "warm_start": self.warm_start,
            "warmup_steps": self.warmup_steps,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetScenario":
        payload = dict(data)
        payload["cohorts"] = tuple(
            CohortScenario.from_dict(entry)
            for entry in payload.get("cohorts", ())
        )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "FleetScenario":
        return cls.from_dict(json.loads(text))


def _quantiles(values: List[float], qs: Tuple[float, ...]) -> Dict[str, float]:
    if not values:
        return {f"p{int(q * 100):02d}": 0.0 for q in qs}
    array = np.asarray(values, dtype=np.float64)
    return {
        f"p{int(q * 100):02d}": float(np.quantile(array, q)) for q in qs
    }


@dataclass
class FleetReport:
    """Aggregate outcome of one simulated fleet run."""

    scenario: str
    n_epochs: int = 0
    device_steps: int = 0
    opened: int = 0
    shed: int = 0
    completed: int = 0
    killed: int = 0
    churned: int = 0
    running: int = 0
    budget_violations: int = 0
    hard_tier_sessions: int = 0
    hard_tier_overdraft: int = 0
    warm_started: int = 0
    per_cohort: Dict[str, Dict[str, int]] = field(default_factory=dict)
    _burn: List[float] = field(default_factory=list)
    _accuracy: List[float] = field(default_factory=list)

    @property
    def retired(self) -> int:
        return self.completed + self.killed + self.churned

    @property
    def kills_per_million(self) -> float:
        if self.opened == 0:
            return 0.0
        return 1e6 * self.killed / self.opened

    @property
    def violations_per_million(self) -> float:
        if self.opened == 0:
            return 0.0
        return 1e6 * self.budget_violations / self.opened

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "n_epochs": self.n_epochs,
            "device_steps": self.device_steps,
            "opened": self.opened,
            "shed": self.shed,
            "completed": self.completed,
            "killed": self.killed,
            "churned": self.churned,
            "running": self.running,
            "budget_violations": self.budget_violations,
            "violations_per_million": self.violations_per_million,
            "kills_per_million": self.kills_per_million,
            "hard_tier_sessions": self.hard_tier_sessions,
            "hard_tier_overdraft": self.hard_tier_overdraft,
            "warm_started": self.warm_started,
            "burn_fraction": _quantiles(
                self._burn, (0.5, 0.95, 0.99)
            )
            | {"max": max(self._burn) if self._burn else 0.0},
            "accuracy": _quantiles(
                self._accuracy, (0.01, 0.05, 0.5)
            )
            | {
                "mean": (
                    float(np.mean(self._accuracy))
                    if self._accuracy
                    else 0.0
                )
            },
            "per_cohort": self.per_cohort,
        }


class _CohortState:
    """One cohort's live pieces inside the simulator."""

    def __init__(
        self,
        scenario: CohortScenario,
        spec: CohortSpec,
        tables: MachineTables,
        pool: SessionPool,
        bank: Ar1NoiseBank,
        rng: np.random.Generator,
    ) -> None:
        self.scenario = scenario
        self.spec = spec
        self.tables = tables
        self.pool = pool
        self.bank = bank
        self.rng = rng
        self.waste = np.zeros(0, dtype=np.float64)
        self.next_seed = 0


class FleetSimulator:
    """Run a :class:`FleetScenario` over per-cohort session pools."""

    def __init__(
        self,
        scenario: FleetScenario,
        metrics: Optional[FleetMetrics] = None,
        store: Optional[SnapshotStore] = None,
    ) -> None:
        self.scenario = scenario
        self.metrics = metrics if metrics is not None else FleetMetrics()
        self.store = store if store is not None else SnapshotStore()
        self.report = FleetReport(scenario=scenario.name)
        self._cohorts: List[_CohortState] = []
        total_weight = sum(c.weight for c in scenario.cohorts)
        self._shares = [
            c.weight / total_weight for c in scenario.cohorts
        ]
        for offset, cohort in enumerate(scenario.cohorts):
            machine = get_machine(cohort.machine)
            app = build_application(cohort.app)
            spec = CohortSpec.from_pair(machine, app)
            tables = MachineTables.build(machine, GENERIC_PROFILE)
            pool = SessionPool(
                spec,
                policy=DEFAULT_LADDER,
                mode="fast",
                seed=scenario.seed + 1000 + offset,
            )
            bank = Ar1NoiseBank(
                0, seed=scenario.seed + 2000 + offset
            )
            rng = np.random.default_rng(
                scenario.seed + 3000 + offset
            )
            self._cohorts.append(
                _CohortState(cohort, spec, tables, pool, bank, rng)
            )
            self.report.per_cohort[cohort.label] = {
                "opened": 0,
                "completed": 0,
                "killed": 0,
                "churned": 0,
                "hard_tier_overdraft": 0,
            }

    # -- warm start -----------------------------------------------------
    def _warm_up(self) -> None:
        """Pre-train one pathfinder session per cohort; share its
        learned state with every later arrival through the store."""
        for state in self._cohorts:
            if self.store.get(
                state.spec.machine_name, state.spec.app_name
            ):
                continue
            pool = SessionPool(
                state.spec,
                policy=None,
                mode="fast",
                seed=self.scenario.seed + 4000,
            )
            bank = Ar1NoiseBank(1, seed=self.scenario.seed + 4000)
            pool.open(
                total_work=np.asarray([1e9]),
                seeds=np.asarray([self.scenario.seed + 4000]),
                factors=np.asarray([1.1]),
            )
            for _ in range(self.scenario.warmup_steps):
                work, energy, rate, power = self._synthesize(
                    state, pool, bank, np.ones(1)
                )
                pool.step(work, energy, rate, power)
            self.store.put(pool.capture_snapshot(0))

    # -- measurement synthesis ------------------------------------------
    def _synthesize(
        self,
        state: _CohortState,
        pool: SessionPool,
        bank: Ar1NoiseBank,
        waste: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        rate_mult, power_mult = bank.sample()
        speedups = state.spec.frontier_speedups
        factors = state.spec.frontier_power_factors
        rate = (
            state.tables.base_rate[pool.d_sys]
            * speedups[pool.d_fpos]
            * rate_mult
        )
        work = np.ones(pool.n, dtype=np.float64)
        elapsed = work / rate
        power_w = (
            state.tables.package_power_w[pool.d_sys]
            * factors[pool.d_fpos]
        ) * power_mult + state.tables.external_w
        energy_j = power_w * elapsed * waste
        return work, energy_j, rate, power_w

    # -- lifecycle ------------------------------------------------------
    def _admit(self, state: _CohortState, count: int) -> None:
        if count <= 0:
            return
        scenario = state.scenario
        rng = state.rng
        work = rng.uniform(
            scenario.min_work, scenario.max_work, count
        )
        factors = rng.uniform(
            scenario.min_factor, scenario.max_factor, count
        )
        runaway = rng.random(count) < scenario.runaway_fraction
        waste = np.where(runaway, scenario.runaway_waste, 1.0)
        # Runaway devices model jobs that will not finish: heavy work
        # keeps the overdraft forecast alarming, so the ladder reaches
        # KILL while headroom remains (the zero-overdraft guarantee).
        work = np.where(
            runaway, work * scenario.runaway_work_multiplier, work
        )
        seeds = np.arange(
            state.next_seed, state.next_seed + count, dtype=np.int64
        )
        state.next_seed += count
        rows = state.pool.open(work, seeds, factors=factors)
        state.bank.extend(count)
        state.waste = np.concatenate([state.waste, waste])
        if self.scenario.warm_start:
            snapshot = self.store.get(
                state.spec.machine_name, state.spec.app_name
            )
            if snapshot is not None:
                state.pool.load_snapshot(rows, snapshot)
                self.report.warm_started += count
        label = scenario.label
        self.report.opened += count
        self.report.per_cohort[label]["opened"] += count
        self.metrics.opened.labels(label).inc(count)

    def _retire(
        self, state: _CohortState, churn_probability: float
    ) -> None:
        pool = state.pool
        label = state.scenario.label
        if pool.n == 0:
            return
        finished = pool.alive & pool.complete
        if bool(finished.any()):
            pool.close_rows(np.flatnonzero(finished))
        if churn_probability > 0.0 and bool(pool.alive.any()):
            churned = pool.alive & (
                state.rng.random(pool.n) < churn_probability
            )
            if bool(churned.any()):
                pool.close_rows(np.flatnonzero(churned))

        dead = ~pool.alive
        rows = np.flatnonzero(dead)
        if rows.size == 0:
            return
        report = self.report
        metrics = self.metrics
        cohort_stats = report.per_cohort[label]
        budget = pool.budget_j.take(rows) + pool.adjustment_j.take(rows)
        used = pool.energy_used_j.take(rows)
        burn = np.where(
            budget > 0.0, used / np.maximum(budget, 1e-12), 0.0
        ).tolist()
        accuracy = (
            pool.accuracy_sum.take(rows)
            / np.maximum(pool.steps.take(rows), 1)
        ).tolist()
        killed = pool.killed.take(rows)
        completed = finished.take(rows) & ~killed
        overdraft = used > budget * (1.0 + _OVERDRAFT_EPS)
        hard = pool.tier_peak.take(rows) >= int(Tier.THROTTLE)
        counts = {
            "killed": int(np.count_nonzero(killed)),
            "completed": int(np.count_nonzero(completed)),
            "churned": int(rows.size - np.count_nonzero(killed | completed)),
        }
        report.killed += counts["killed"]
        report.completed += counts["completed"]
        report.churned += counts["churned"]
        for outcome, count in counts.items():
            cohort_stats[outcome] += count
            if count:  # a metric child exists only once it has counted
                metrics.retired.labels(label, outcome).inc(count)
        if counts["killed"]:
            metrics.kills.labels(label).inc(counts["killed"])
        # Row order, so the histogram sums accumulate as before.
        report._burn.extend(burn)
        report._accuracy.extend(accuracy)
        metrics.observe_burn(label, burn)
        metrics.observe_accuracy(label, accuracy)
        violations = int(np.count_nonzero(overdraft))
        if violations:
            report.budget_violations += violations
            metrics.budget_violations.labels(label).inc(violations)
        report.hard_tier_sessions += int(np.count_nonzero(hard))
        hard_overdraft = int(np.count_nonzero(hard & overdraft))
        if hard_overdraft:
            report.hard_tier_overdraft += hard_overdraft
            cohort_stats["hard_tier_overdraft"] += hard_overdraft
            metrics.hard_overdraft.labels(label).inc(hard_overdraft)
        kept = pool.compact()
        state.bank.keep(~dead)
        state.waste = state.waste.take(kept)

    # -- the run --------------------------------------------------------
    def run(self) -> FleetReport:
        scenario = self.scenario
        if scenario.warm_start:
            self._warm_up()
        trace = scenario.arrival_trace()
        expected = np.asarray(trace.expected, dtype=np.float64)
        mean_expected = float(expected.mean()) if expected.size else 0.0
        # Each cohort draws its weighted slice of the arrival curve
        # from an independent seed.
        arrivals_by_cohort = [
            ArrivalTrace(
                name=trace.name,
                expected=tuple(
                    rate * share for rate in trace.expected
                ),
                seed=scenario.seed + 5000 + offset,
            ).sample()
            for offset, share in enumerate(self._shares)
        ]

        for epoch in range(scenario.n_epochs):
            load = (
                expected[epoch] / mean_expected
                if mean_expected > 0
                else 1.0
            )
            churn_probability = min(
                0.9, load / scenario.mean_lifetime_epochs
            )
            for offset, state in enumerate(self._cohorts):
                count = int(arrivals_by_cohort[offset][epoch])
                headroom = scenario.max_concurrent - state.pool.alive_count
                if count > headroom:
                    self.report.shed += count - headroom
                    count = max(0, headroom)
                self._admit(state, count)
            for _ in range(scenario.steps_per_epoch):
                for state in self._cohorts:
                    if state.pool.alive_count == 0:
                        continue
                    work, energy, rate, power = self._synthesize(
                        state, state.pool, state.bank, state.waste
                    )
                    state.pool.step(work, energy, rate, power)
                    stepped = state.pool.alive_count
                    self.report.device_steps += stepped
                    self.metrics.device_steps.inc(stepped)
                    # Completed and killed sessions leave right away —
                    # a finished session must not keep drawing budget.
                    self._retire(state, 0.0)
            for state in self._cohorts:
                self._retire(state, churn_probability)
                self.metrics.alive.labels(state.scenario.label).set(
                    state.pool.alive_count
                )
            self.report.n_epochs += 1
            self.metrics.epochs.inc()

        self.report.running = sum(
            state.pool.alive_count for state in self._cohorts
        )
        for state in self._cohorts:
            self.metrics.retired.labels(
                state.scenario.label, "running"
            ).inc(state.pool.alive_count)
        return self.report


def preset_scenario(name: str, seed: int = 0) -> FleetScenario:
    """The named scenario presets the CLI exposes.

    ``smoke``
        10k devices, 25 epochs × 2 steps (50 steps total), 10 %
        runaway devices — the CI gate.
    ``city``
        120k devices over a diurnal day, three cohorts.
    ``million``
        1.2M devices over four bursty days, concurrency capped at
        100k live rows.
    """
    # Runaway waste is set well past what compensation can absorb
    # (max speedup × the config space's efficiency spread), so the
    # hard tiers engage; the work multiplier keeps the overdraft
    # forecast alarming until the KILL lands.
    tablet = CohortScenario(
        machine="tablet",
        app="x264",
        weight=3.0,
        runaway_fraction=0.1,
        runaway_waste=25.0,
        runaway_work_multiplier=3.0,
    )
    mobile = CohortScenario(
        machine="mobile",
        app="swaptions",
        weight=2.0,
        runaway_fraction=0.05,
        runaway_waste=25.0,
        runaway_work_multiplier=3.0,
    )
    server = CohortScenario(
        machine="server",
        app="streamcluster",
        weight=1.0,
        min_work=80.0,
        max_work=160.0,
        runaway_fraction=0.02,
        runaway_waste=20.0,
        runaway_work_multiplier=3.0,
    )
    if name == "smoke":
        return FleetScenario(
            name="smoke",
            cohorts=(
                replace(tablet, min_work=20.0, max_work=40.0),
                replace(mobile, min_work=20.0, max_work=40.0),
            ),
            devices=10_000.0,
            n_epochs=25,
            steps_per_epoch=2,
            arrivals="diurnal",
            mean_lifetime_epochs=10.0,
            max_concurrent=20_000,
            seed=seed,
        )
    if name == "city":
        return FleetScenario(
            name="city",
            cohorts=(tablet, mobile, server),
            devices=120_000.0,
            n_epochs=48,
            steps_per_epoch=4,
            arrivals="diurnal",
            max_concurrent=60_000,
            seed=seed,
        )
    if name == "million":
        return FleetScenario(
            name="million",
            cohorts=(tablet, mobile),
            devices=1_200_000.0,
            n_epochs=96,
            steps_per_epoch=4,
            arrivals="bursty",
            mean_lifetime_epochs=12.0,
            max_concurrent=100_000,
            seed=seed,
        )
    raise ValueError(f"unknown preset {name!r}")
