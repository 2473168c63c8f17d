"""Fleet simulator: determinism, scenario serialization, guarantees.

These run small custom scenarios (a few thousand devices) so the suite
stays fast; the full ``smoke`` preset is driven end to end by the CI
fleet-smoke job via ``python -m repro fleet --preset smoke --smoke``.
"""

import dataclasses

import pytest

from repro.fleet import (
    CohortScenario,
    FleetMetrics,
    FleetScenario,
    FleetSimulator,
    preset_scenario,
)
from repro.service import SnapshotStore


def _tiny_scenario(seed=0, **overrides):
    scenario = FleetScenario(
        name="tiny",
        cohorts=(
            CohortScenario(
                machine="tablet",
                app="x264",
                weight=1.0,
                min_work=20.0,
                max_work=30.0,
                runaway_fraction=0.1,
                runaway_waste=25.0,
                runaway_work_multiplier=3.0,
            ),
        ),
        devices=1500,
        n_epochs=12,
        steps_per_epoch=2,
        arrivals="steady",
        mean_lifetime_epochs=6,
        max_concurrent=5000,
        warmup_steps=20,
        seed=seed,
    )
    return dataclasses.replace(scenario, **overrides)


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = FleetSimulator(_tiny_scenario(seed=3)).run()
        second = FleetSimulator(_tiny_scenario(seed=3)).run()
        assert first.as_dict() == second.as_dict()

    def test_different_seed_different_report(self):
        first = FleetSimulator(_tiny_scenario(seed=3)).run()
        second = FleetSimulator(_tiny_scenario(seed=4)).run()
        assert first.as_dict() != second.as_dict()


class TestGuarantees:
    def test_hard_tiers_never_overdraft(self):
        report = FleetSimulator(_tiny_scenario(seed=1)).run()
        assert report.opened > 0
        assert report.killed > 0
        assert report.hard_tier_sessions > 0
        assert report.hard_tier_overdraft == 0

    @pytest.mark.parametrize("seed", [5, 15])
    def test_smoke_preset_regression_seeds_never_overdraft(self, seed):
        # Both seeds once ended a killed runaway over budget: a pinned
        # row's overrun forecast sat below the kill threshold, so the
        # ladder released it and the KILL landed a step too late.
        report = FleetSimulator(preset_scenario("smoke", seed=seed)).run()
        assert report.killed > 0
        assert report.hard_tier_overdraft == 0

    def test_accounting_balances(self):
        report = FleetSimulator(_tiny_scenario(seed=2)).run()
        retired = (
            report.completed
            + report.killed
            + report.churned
            + report.running
        )
        assert retired == report.opened
        assert report.opened + report.shed >= report.opened

    def test_shedding_respects_max_concurrent(self):
        report = FleetSimulator(
            _tiny_scenario(seed=5, max_concurrent=50)
        ).run()
        assert report.shed > 0

    def test_warm_start_toggle(self):
        warm = FleetSimulator(_tiny_scenario(seed=6)).run()
        cold = FleetSimulator(
            _tiny_scenario(seed=6, warm_start=False)
        ).run()
        assert warm.warm_started > 0
        assert cold.warm_started == 0

    def test_warm_snapshots_land_in_store(self):
        store = SnapshotStore()
        FleetSimulator(_tiny_scenario(seed=7), store=store).run()
        assert store.get("tablet", "x264") is not None


class TestMetrics:
    def test_prometheus_families_rendered(self):
        metrics = FleetMetrics()
        FleetSimulator(_tiny_scenario(seed=8), metrics=metrics).run()
        text = metrics.render()
        for family in (
            "jg_fleet_sessions_opened_total",
            "jg_fleet_sessions_retired_total",
            "jg_fleet_device_steps_total",
            "jg_fleet_session_accuracy",
            "jg_fleet_session_burn_fraction",
        ):
            assert family in text

    def test_report_quantiles_present(self):
        report = FleetSimulator(_tiny_scenario(seed=9)).run()
        as_dict = report.as_dict()
        assert "burn_fraction" in as_dict
        assert "accuracy" in as_dict
        assert as_dict["burn_fraction"]["max"] <= 1.5


class TestScenarioSerialization:
    def test_json_round_trip(self):
        scenario = _tiny_scenario(seed=11)
        restored = FleetScenario.from_json(scenario.to_json())
        assert restored == scenario

    def test_presets_round_trip(self):
        for name in ("smoke", "city", "million"):
            scenario = preset_scenario(name, seed=1)
            assert FleetScenario.from_json(scenario.to_json()) == scenario

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_scenario("galaxy")

    def test_million_preset_shape(self):
        scenario = preset_scenario("million")
        assert scenario.devices >= 1_000_000
        assert scenario.max_concurrent <= 100_000
