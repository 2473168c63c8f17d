"""The folded step mask of :meth:`SessionPool.step`.

A step that covers every row skips the ``np.where(mask, new, old)``
blends and keeps each new array as the row state.  These properties
pin that shortcut to the masked arithmetic:

* rows outside a partial mask keep every per-row array bit-identical;
* in ``"exact"`` mode (per-session RNG streams) the rows inside a
  partial mask end bit-identical to the same step taken — through the
  folded path — by a pool holding only those rows;
* after a full-mask step no two row arrays share memory, since
  ``open``, ``adopt`` and ``load_snapshot`` write rows in place.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_application
from repro.fleet import CohortHardwareModel, CohortSpec, SessionPool
from repro.fleet.pool import _ROW_ARRAYS
from repro.hw import GENERIC_PROFILE, get_machine
from repro.hw.vector import MachineTables

_KALMAN = ("value", "variance", "initialized", "updates")


@pytest.fixture(scope="module")
def cohort():
    machine = get_machine("tablet")
    spec = CohortSpec.from_pair(machine, build_application("x264"))
    return spec, MachineTables.build(machine, GENERIC_PROFILE)


def _running_pool(cohort, mode, n, seed, warmup, runaway):
    """A pool ``warmup`` steps into its life, some rows runaways."""
    spec, tables = cohort
    rng = np.random.default_rng(seed)
    pool = SessionPool(spec, mode=mode, seed=seed)
    pool.open(
        rng.uniform(20.0, 60.0, n),
        np.arange(n, dtype=np.int64) + seed,
        factors=rng.uniform(1.2, 2.5, n),
    )
    waste = np.where(rng.random(n) < runaway, 25.0, 1.0)
    model = CohortHardwareModel(tables, spec, n, waste=waste, seed=seed)
    for t in range(warmup):
        if not pool.alive.any():
            break
        pool.step(*model.measurements(t, pool.d_sys, pool.d_fpos))
    return pool, model.measurements(warmup, pool.d_sys, pool.d_fpos)


def _state(pool):
    """Every per-row array, Kalman bank included, by name."""
    state = {name: getattr(pool, name) for name in _ROW_ARRAYS}
    for name in _KALMAN:
        state[f"kalman.{name}"] = getattr(pool.energy_kalman, name)
    return state


def _draw_mask(data, n):
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return np.asarray(data.draw(flags), dtype=bool)


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


pools = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=2, max_value=8),
        "seed": st.integers(min_value=0, max_value=2**16),
        "warmup": st.integers(min_value=0, max_value=40),
        "runaway": st.sampled_from([0.0, 0.5, 1.0]),
    }
)
SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(args=pools, mode=st.sampled_from(["exact", "fast"]), data=st.data())
def test_partial_mask_leaves_other_rows_untouched(cohort, args, mode, data):
    pool, inputs = _running_pool(cohort, mode, **args)
    mask = _draw_mask(data, args["n"])
    stepped = pool.alive & mask
    if not stepped.any():
        return
    before = copy.deepcopy(_state(pool))
    pool.step(*inputs, mask=mask)
    for name, array in _state(pool).items():
        assert _bits(array[~stepped]) == _bits(before[name][~stepped]), name


@SETTINGS
@given(args=pools, data=st.data())
def test_masked_rows_match_a_pool_of_only_those_rows(cohort, args, data):
    pool, inputs = _running_pool(cohort, "exact", **args)
    mask = _draw_mask(data, args["n"])
    stepped = pool.alive & mask
    if not stepped.any():
        return
    alone = copy.deepcopy(pool)
    alone.alive = stepped.copy()
    kept = alone.compact()
    pool.step(*inputs, mask=mask)
    alone.step(*(values[kept] for values in inputs))  # every row: folded
    mine, theirs = _state(pool), _state(alone)
    for name, array in mine.items():
        assert _bits(array[kept]) == _bits(theirs[name]), name


@SETTINGS
@given(args=pools, mode=st.sampled_from(["exact", "fast"]))
def test_full_step_leaves_no_shared_row_memory(cohort, args, mode):
    pool, inputs = _running_pool(cohort, mode, **args)
    kept = pool.compact()
    inputs = tuple(values[kept] for values in inputs)
    if pool.n == 0:
        return
    pool.step(*inputs)
    for (a, x), (b, y) in itertools.combinations(_state(pool).items(), 2):
        assert not np.shares_memory(x, y), (a, b)
