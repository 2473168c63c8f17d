"""Per-call cost of ``SessionPool.step`` and ``SessionPool.compact``.

Steps a fast-mode tablet/x264 pool of a fixed size with the same
measurements over and over, and prints the fastest batch mean per call
(the minimum is the least host-noise-bound estimate of a fixed cost).
The rows mirror the ``fleet`` benchmark workload: one-row warm-up
pools with the ladder off, small cohorts (~20 rows), a mid-size one
and the large one (~2,700 rows), plus ``compact`` dropping every
seventh row of a 2,700-row pool.

    PYTHONPATH=src python tools/pool_call_cost.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps import build_application
from repro.enforce.ladder import DEFAULT_LADDER
from repro.fleet import CohortSpec, SessionPool
from repro.hw import GENERIC_PROFILE, get_machine
from repro.hw.vector import Ar1NoiseBank, MachineTables

MACHINE = get_machine("tablet")
SPEC = CohortSpec.from_pair(MACHINE, build_application("x264"))
TABLES = MachineTables.build(MACHINE, GENERIC_PROFILE)


def _pool(n: int, ladder: bool) -> SessionPool:
    pool = SessionPool(
        SPEC, policy=DEFAULT_LADDER if ladder else None, seed=1
    )
    pool.open(
        np.full(n, 1e9), np.arange(n, dtype=np.int64), factors=np.full(n, 1.5)
    )
    return pool


def _inputs(pool: SessionPool) -> tuple:
    rate_mult, power_mult = Ar1NoiseBank(pool.n, seed=2).sample()
    rate = (
        TABLES.base_rate[pool.d_sys]
        * SPEC.frontier_speedups[pool.d_fpos]
        * rate_mult
    )
    power_w = (
        TABLES.package_power_w[pool.d_sys]
        * SPEC.frontier_power_factors[pool.d_fpos]
    ) * power_mult + TABLES.external_w
    return np.ones(pool.n), power_w / rate, rate, power_w


def step_us(n: int, ladder: bool, batches: int, batch: int = 20) -> float:
    pool = _pool(n, ladder)
    inputs = _inputs(pool)
    for _ in range(30):
        pool.step(*inputs)
    best = float("inf")
    for _ in range(batches):
        started = time.perf_counter_ns()
        for _ in range(batch):
            pool.step(*inputs)
        best = min(best, (time.perf_counter_ns() - started) / batch)
    return best / 1e3


def compact_us(n: int, trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        pool = _pool(n, ladder=True)
        pool.close_rows(np.arange(0, n, 7))
        started = time.perf_counter_ns()
        pool.compact()
        best = min(best, float(time.perf_counter_ns() - started))
    return best / 1e3


def main() -> None:
    rows = [
        ("step, 1 row, ladder off", step_us(1, False, 100)),
        ("step, 20 rows", step_us(20, True, 100)),
        ("step, 700 rows", step_us(700, True, 40)),
        ("step, 2,700 rows", step_us(2700, True, 20)),
        ("compact, 2,700 rows", compact_us(2700, 100)),
    ]
    for label, cost_us in rows:
        print(f"{label:26s} {cost_us:9.1f} us")


if __name__ == "__main__":
    main()
