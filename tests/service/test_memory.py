"""Constant memory per long-lived session.

After warm-up, more heartbeats through ``ServiceServer.handle_line``
must not retain memory that grows with their number: a session keeps
its current state only, and the rid replay cache is bounded by
``RID_CACHE_MAX`` entries of wire size.
"""

import gc
import json
import tracemalloc

from repro.apps import build_application
from repro.hw import get_machine
from repro.runtime.oracle import default_energy_per_work
from repro.service import RID_CACHE_MAX, ServiceServer, SessionManager

FACTOR = 1.2
SESSIONS = 4


def _server_with_sessions():
    server = ServiceServer(
        SessionManager(global_budget_j=1e9), unix_path="/unused"
    )
    sessions = []
    for seed in range(SESSIONS):
        reply = server.handle_line(
            json.dumps(
                {
                    "type": "open_session",
                    "machine": "tablet",
                    "app": "x264",
                    "factor": FACTOR,
                    "total_work": 1e6,
                    "seed": seed,
                    "warm_start": False,
                }
            ).encode()
            + b"\n"
        )
        assert reply["ok"]
        sessions.append(reply["session"])
    return server, sessions


def _frames(sessions):
    """Endless rid-carrying step frames, round-robin over sessions."""
    app = build_application("x264")
    per_work_j = default_energy_per_work(get_machine("tablet"), app) / FACTOR
    work = app.work_per_iteration
    energy_j = 0.9 * per_work_j * work
    measurement = {
        "work": work,
        "energy_j": energy_j,
        "rate": work / 0.05,
        "power_w": energy_j / 0.05,
    }
    n = 0
    while True:
        n += 1
        yield (
            json.dumps(
                {
                    "type": "step",
                    "session": sessions[n % len(sessions)],
                    "measurement": measurement,
                    "rid": f"hb-{n}",
                }
            ).encode()
            + b"\n"
        )


def _serve(server, frames, n):
    for _ in range(n):
        reply = server.handle_line(next(frames))
        assert reply.line.startswith(b'{"decision"')


def test_heartbeats_retain_no_memory_that_grows_with_their_number():
    server, sessions = _server_with_sessions()
    frames = _frames(sessions)
    tracemalloc.start()
    try:
        # Warm-up fills the rid cache to its bound (every entry now
        # traced), so later requests only replace entries in kind.
        _serve(server, frames, RID_CACHE_MAX + 500)
        assert len(server._rid_cache) == RID_CACHE_MAX
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        _serve(server, frames, 1000)
        gc.collect()
        mid = tracemalloc.get_traced_memory()[0]
        _serve(server, frames, 2000)
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Per-heartbeat history would retain hundreds of bytes a step
    # (>250 KB per 1000); a bounded state retains nothing per step,
    # beyond allocator noise.
    assert mid - base < 16 * 1024
    assert end - mid < 16 * 1024
