"""Golden digests of fast-mode fleet output.

``mode="fast"`` makes no promise of scalar equivalence, so the lockstep
rig cannot see it drift; a benchmark that only compares a run with the
run before it cannot either.  These tests pin the sha256 of the
canonical :meth:`FleetReport.as_dict` JSON and of the Prometheus text
that :meth:`FleetMetrics.render` produces, for the ``smoke`` preset and
a three-cohort scenario (one large cohort, two small ones).  A change
that moves any fast-mode decision — an arm, a frontier position, a
tier, a kill, or an ``argmax`` tie broken the other way — moves a
report tally or a metric sample and fails here.

The digests depend on numpy's ``exp``, whose last ulp varies with the
numpy release and the SIMD code path it dispatches to, so they are
checked only on the build they were recorded with (``RECORDED_ON``).
To re-record on another build, print ``_digests(_scenario(name,
seed))`` for each key of ``GOLDEN`` with the program at a commit whose
fast-mode output is trusted.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.fleet import (
    CohortScenario,
    FleetMetrics,
    FleetScenario,
    FleetSimulator,
    preset_scenario,
)


def _three_cohort_scenario(seed):
    runaway = {"runaway_waste": 25.0, "runaway_work_multiplier": 3.0}
    return FleetScenario(
        name="golden-three-cohort",
        cohorts=(
            CohortScenario(
                "tablet", "x264", weight=98.0, min_work=20.0,
                max_work=40.0, runaway_fraction=0.1, **runaway,
            ),
            CohortScenario(
                "mobile", "swaptions", weight=1.0, min_work=20.0,
                max_work=40.0, runaway_fraction=0.05, **runaway,
            ),
            CohortScenario(
                "server", "streamcluster", weight=1.0, min_work=80.0,
                max_work=160.0, runaway_fraction=0.02,
                runaway_waste=20.0, runaway_work_multiplier=3.0,
            ),
        ),
        devices=5000.0,
        n_epochs=10,
        steps_per_epoch=4,
        arrivals="steady",
        mean_lifetime_epochs=40.0,
        max_concurrent=20_000,
        seed=seed,
    )


def _digests(scenario):
    metrics = FleetMetrics()
    report = FleetSimulator(scenario, metrics=metrics).run()
    canonical = json.dumps(
        report.as_dict(), sort_keys=True, separators=(",", ":")
    )
    return (
        hashlib.sha256(canonical.encode()).hexdigest(),
        hashlib.sha256(metrics.render().encode()).hexdigest(),
    )


def _numpy_build():
    """numpy's version and the SIMD extensions it dispatches to."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        simd = []
    return np.__version__, tuple(simd)


RECORDED_ON = ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))

GOLDEN = {
    ("smoke", 0): (
        "bf95c0997c1944c18b04606736df70d2f84d992a489d5a82b713cd7ee1fce520",
        "8a415d439db6fd6ec2ac0c54b5c6c3bcabc03f74772abe19dcd42d4e93e6f04e",
    ),
    ("smoke", 5): (
        "a58a1b444464877938c0b567d4003a9a210f8a9b3f4030a5c855c42668d00a79",
        "7e44904821ff919ef25b5b00e658bd6a34ae87f2485372a1eb2091c309aa1594",
    ),
    ("smoke", 15): (
        "52dda911411406fc0c7db0bf09ac258d1de51399cca0efc06c692c9036a6040c",
        "a82838405846605ec4c6307a83c4cf8cbc28268de6e621d4ef3e67f9ade7b899",
    ),
    ("three-cohort", 3): (
        "1a588ad618a08ab214f67bde3f9967dd22b75e9f221bb8016c0989e1e1018ff1",
        "78ad2372f27a857496c600ad6bc34f8a43eb770ebaf0e950c8b106b98ae7e9ef",
    ),
    ("three-cohort", 6): (
        "4635aa16d9378fac0783f741eac6a0d70c217f58dd355bcd77ba3e110fbd861e",
        "2ba716d96037491ff1dab26b3f7b32ebef3799981834138a9731c38323f7847f",
    ),
    ("three-cohort", 7919): (
        "a26cf4eb050e79ced3a7cdc24cc30101c7e309ee4fd965a333c4bb03b4b9a847",
        "2c83849468ba086c743a99abc20c22ed7f00ceba4952336b50e0c2f918c38497",
    ),
}


def _scenario(name, seed):
    if name == "smoke":
        return preset_scenario("smoke", seed=seed)
    return _three_cohort_scenario(seed)


@pytest.mark.skipif(
    _numpy_build() != RECORDED_ON,
    reason="digests were recorded with another numpy build",
)
@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_fast_mode_digests(name, seed):
    report_digest, metrics_digest = _digests(_scenario(name, seed))
    assert (report_digest, metrics_digest) == GOLDEN[(name, seed)]

