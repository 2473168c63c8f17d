"""Unit tests for the vectorized execution engine.

End-to-end exactness (vector ≡ scalar through real sockets, sharded
and single-process, kills and rebalances included) lives in the
lockstep rig (:mod:`tests.service.test_lockstep`).  These tests pin
the engine's mechanics in isolation: the gather window actually
batches, scalar fallbacks fire for the right reasons and count
themselves, the ``scalar_sync`` hook keeps every scalar read current,
and the async server path keeps the rid idempotency contract.
"""

import asyncio

import pytest

from repro.core.types import Measurement
from repro.service import (
    ServiceServer,
    SessionError,
    SessionManager,
    SnapshotStore,
    VexecEngine,
    encode_message,
)


def _manager(**kwargs):
    kwargs.setdefault("global_budget_j", 1e6)
    kwargs.setdefault("store", SnapshotStore())
    return SessionManager(**kwargs)


def _hb(energy_j=0.5):
    return Measurement(work=1.0, energy_j=energy_j, rate=10.0, power_w=5.0)


def _open(manager, seed=0, total_work=1e4):
    return manager.open_session(
        machine_name="tablet",
        app_name="x264",
        factor=1.5,
        total_work=total_work,
        seed=seed,
    )


class TestEngineLifecycle:
    def test_parameter_validation(self):
        manager = _manager()
        with pytest.raises(ValueError):
            VexecEngine(manager, max_batch=0)
        with pytest.raises(ValueError):
            VexecEngine(manager, max_delay_us=-1.0)

    def test_step_before_start_refused(self):
        manager = _manager()
        engine = VexecEngine(manager)

        async def scenario():
            with pytest.raises(RuntimeError):
                await engine.step_one("s1", _hb())

        asyncio.run(scenario())

    def test_close_detaches_the_scalar_sync_hook(self):
        manager = _manager()
        engine = VexecEngine(manager)
        assert manager.scalar_sync is not None

        async def scenario():
            engine.start()
            await engine.aclose()

        asyncio.run(scenario())
        assert manager.scalar_sync is None


class TestGatherWindow:
    def test_concurrent_heartbeats_share_flushes(self):
        manager = _manager()
        sessions = [_open(manager, seed=i) for i in range(8)]
        engine = VexecEngine(manager, max_batch=8, max_delay_us=2000.0)

        async def scenario():
            engine.start()
            try:
                for _ in range(5):
                    await asyncio.gather(*[
                        engine.step_one(s.session_id, _hb())
                        for s in sessions
                    ])
            finally:
                await engine.aclose()

        asyncio.run(scenario())
        # 40 heartbeats; simultaneous arrival means far fewer flushes
        # than steps (worst realistic case: one warm-up flush per
        # round plus one gathered flush).
        assert engine.flushes < 20
        assert engine.fallbacks == 0

    def test_lone_heartbeat_skips_the_delay_window(self):
        manager = _manager()
        session = _open(manager)
        # An absurd window: if the lone-heartbeat fast path regressed,
        # this test times out instead of passing slowly.
        engine = VexecEngine(manager, max_batch=64, max_delay_us=2e6)

        async def scenario():
            engine.start()
            try:
                entry = await asyncio.wait_for(
                    engine.step_one(session.session_id, _hb()),
                    timeout=1.0,
                )
            finally:
                await engine.aclose()
            return entry

        entry = asyncio.run(scenario())
        assert "decision" in entry

    def test_duplicate_session_in_one_window_carries_over(self):
        manager = _manager()
        session = _open(manager)
        engine = VexecEngine(manager, max_batch=8, max_delay_us=0.0)

        async def scenario():
            engine.start()
            try:
                entries = await asyncio.gather(*[
                    engine.step_one(session.session_id, _hb())
                    for _ in range(4)
                ])
            finally:
                await engine.aclose()
            return entries

        entries = asyncio.run(scenario())
        assert len(entries) == 4
        assert session.steps == 4  # every heartbeat applied, in order


class TestScalarFallback:
    def test_sensor_loss_falls_back_and_counts(self):
        manager = _manager()
        session = _open(manager)
        engine = VexecEngine(manager)

        async def scenario():
            engine.start()
            try:
                await engine.step_one(session.session_id, _hb())
                assert engine.pooled_count == 1
                entry = await engine.step_one(
                    session.session_id, _hb(), sensor_ok=False
                )
            finally:
                await engine.aclose()
            return entry

        entry = asyncio.run(scenario())
        assert "decision" in entry
        assert engine.fallbacks == 1
        samples = {
            (s.name, tuple(sorted(s.labels))): s.value
            for s in manager.telemetry.registry.samples()
        }
        key = (
            "jg_vexec_fallbacks_total",
            tuple(sorted({"reason": "sensor_loss"}.items())),
        )
        assert samples.get(key) == 1.0

    def test_unknown_session_raises_the_scalar_error(self):
        manager = _manager()
        engine = VexecEngine(manager)

        async def scenario():
            engine.start()
            try:
                with pytest.raises(SessionError) as excinfo:
                    await engine.step_one("nope", _hb())
            finally:
                await engine.aclose()
            return excinfo.value

        error = asyncio.run(scenario())
        assert error.code == "unknown_session"


class TestScalarSync:
    def test_scalar_reads_evict_first(self):
        manager = _manager()
        session = _open(manager)
        engine = VexecEngine(manager)

        async def scenario():
            engine.start()
            try:
                await engine.step_one(session.session_id, _hb())
                assert engine.pooled_count == 1
                # Any scalar read of the session must sync it out of
                # the pool so the numbers it reports are current.
                report = manager.report(session.session_id)
                assert engine.pooled_count == 0
                assert report["steps"] == 1
                # The next heartbeat re-adopts transparently.
                await engine.step_one(session.session_id, _hb())
                assert engine.pooled_count == 1
            finally:
                await engine.aclose()

        asyncio.run(scenario())

    def test_pooled_energy_is_visible_to_scalar_reports(self):
        manager = _manager()
        session = _open(manager)
        engine = VexecEngine(manager)

        async def scenario():
            engine.start()
            try:
                for _ in range(5):
                    await engine.step_one(session.session_id, _hb(0.25))
            finally:
                await engine.aclose()

        asyncio.run(scenario())
        report = manager.report(session.session_id)
        assert report["steps"] == 5
        assert report["energy_used_j"] == pytest.approx(1.25)


class TestSoloFastPath:
    def _drive(self, solo_after, steps=6, seed=0):
        manager = _manager()
        session = _open(manager, seed=seed)
        engine = VexecEngine(manager, solo_after=solo_after)
        entries = []
        pooled = []

        async def scenario():
            engine.start()
            try:
                for _ in range(steps):
                    entries.append(
                        await engine.step_one(session.session_id, _hb())
                    )
                pooled.append(engine.pooled_count)
            finally:
                await engine.aclose()

        asyncio.run(scenario())
        return manager, engine, entries, pooled[0]

    def test_streak_of_single_flushes_goes_scalar_side(self):
        manager, engine, _, pooled = self._drive(solo_after=2, steps=6)
        # Flushes 1-2 build the streak in the pool; from the third
        # single-session flush on, heartbeats are served scalar-side
        # and the session is evicted from the pool.
        assert engine.solos == 4
        assert pooled == 0
        assert engine.fallbacks == 0  # a regime, not a fallback
        samples = {
            s.name: s.value
            for s in manager.telemetry.registry.samples()
        }
        assert samples.get("jg_vexec_solo_steps_total") == 4.0

    def test_negative_solo_after_always_pools(self):
        manager, engine, _, pooled = self._drive(solo_after=-1, steps=6)
        assert engine.solos == 0
        assert pooled == 1

    def test_solo_decisions_match_the_pooled_path(self):
        # Same seed, same heartbeats: the solo regime must be
        # decision-for-decision identical to staying in the pool.
        _, _, pooled, _ = self._drive(solo_after=-1, steps=8, seed=3)
        _, _, soloed, _ = self._drive(solo_after=0, steps=8, seed=3)
        for a, b in zip(pooled, soloed):
            assert a["decision"] == b["decision"]
            assert a["enforcement"] == b["enforcement"]

    def test_contended_wave_resets_the_streak_and_repools(self):
        manager = _manager()
        first = _open(manager, seed=0)
        second = _open(manager, seed=1)
        engine = VexecEngine(
            manager, max_batch=8, max_delay_us=2000.0, solo_after=1
        )

        async def scenario():
            engine.start()
            try:
                for _ in range(3):
                    await engine.step_one(first.session_id, _hb())
                assert engine.solos > 0
                assert engine.pooled_count == 0
                # A two-session wave must re-adopt and step the pool.
                await asyncio.gather(
                    engine.step_one(first.session_id, _hb()),
                    engine.step_one(second.session_id, _hb()),
                )
                assert engine.pooled_count == 2
            finally:
                await engine.aclose()

        asyncio.run(scenario())


class TestAsyncServerPath:
    def _line(self, payload):
        return encode_message(payload)

    def test_duplicate_rid_mid_flight_executes_once(self):
        manager = _manager()
        session = _open(manager)
        server = ServiceServer(
            manager, unix_path="/tmp/unused-vexec.sock",
            exec_mode="vector",
        )
        line = self._line({
            "type": "step",
            "rid": "v-retry",
            "session": session.session_id,
            "measurement": {
                "work": 1.0, "energy_j": 0.5,
                "rate": 10.0, "power_w": 5.0,
            },
        })

        async def scenario():
            server.vexec = VexecEngine(manager)
            server.vexec.start()
            try:
                first = asyncio.ensure_future(
                    server.handle_line_async(line)
                )
                await asyncio.sleep(0)
                second = asyncio.ensure_future(
                    server.handle_line_async(line)
                )
                return await asyncio.gather(first, second)
            finally:
                await server.vexec.aclose()

        first, second = asyncio.run(scenario())
        assert first == second
        assert first["rid"] == "v-retry"
        assert session.steps == 1  # the duplicate never re-stepped
        assert server.replayed_responses == 1

    def test_error_responses_are_not_cached(self):
        manager = _manager()
        server = ServiceServer(
            manager, unix_path="/tmp/unused-vexec.sock",
            exec_mode="vector",
        )
        line = self._line({
            "type": "step",
            "rid": "v-err",
            "session": "missing",
            "measurement": {
                "work": 1.0, "energy_j": 0.5,
                "rate": 10.0, "power_w": 5.0,
            },
        })

        async def scenario():
            server.vexec = VexecEngine(manager)
            server.vexec.start()
            try:
                first = await server.handle_line_async(line)
                second = await server.handle_line_async(line)
            finally:
                await server.vexec.aclose()
            return first, second

        first, second = asyncio.run(scenario())
        assert first["ok"] is False and second["ok"] is False
        assert server.replayed_responses == 0
        assert server._rid_cache.inflight == {}
