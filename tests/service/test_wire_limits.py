"""Line limits and byte-identical rid replays on every stream.

Each listener and the router's worker links read with
``MAX_LINE_BYTES`` as their limit: a line the protocol allows (up to
1 MB) is answered, a longer one is refused with ``bad_request`` and the
connection is closed, and no handler crashes.  A retried ``rid`` is
answered with exactly the bytes of its first reply, whichever backend
or hop served it.
"""

import json
import socket

import pytest

from repro.apps import build_application
from repro.hw import get_machine
from repro.runtime.oracle import default_energy_per_work
from repro.service import (
    MAX_BATCH_STEPS,
    ServerThread,
    SessionManager,
    ShardRouter,
    ShardThread,
)
from repro.service import shard
from repro.service.protocol import MAX_LINE_BYTES

FACTOR = 1.2


def _frame(payload):
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def _heartbeat():
    """One x264-on-tablet heartbeat at 90 % of the per-work budget."""
    app = build_application("x264")
    per_work_j = default_energy_per_work(get_machine("tablet"), app) / FACTOR
    work = app.work_per_iteration
    energy_j = 0.9 * per_work_j * work
    return {
        "work": work,
        "energy_j": energy_j,
        "rate": work / 0.05,
        "power_w": energy_j / 0.05,
    }


class Wire:
    """A raw protocol connection: whole lines in, whole lines out."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30.0)
        self.sock.connect(path)
        self.file = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def recv(self):
        return self.file.readline(MAX_LINE_BYTES + 2)

    def ask(self, payload):
        self.send(_frame(payload))
        return self.recv()

    def close(self):
        self.file.close()
        self.sock.close()

    def open_session(self):
        reply = json.loads(
            self.ask(
                {
                    "type": "open_session",
                    "machine": "tablet",
                    "app": "x264",
                    "factor": FACTOR,
                    "total_work": 1e6,
                    "seed": 3,
                    "warm_start": False,
                }
            )
        )
        assert reply["ok"], reply
        return reply["session"]


@pytest.fixture(scope="module", params=["scalar", "vector", "router"])
def daemon(request, tmp_path_factory):
    """A unix-socket path served by each backend in turn."""
    run_dir = tmp_path_factory.mktemp(f"wire-{request.param}")
    path = str(run_dir / "jg.sock")
    if request.param == "router":
        # A rebalance period of a full batch keeps the router from
        # splitting batch_step frames, so the worker's reply to a
        # 256-heartbeat frame is as large as the client's.
        router = ShardRouter(
            n_shards=1,
            budget_j=1e9,
            unix_path=path,
            run_dir=str(run_dir),
            rebalance_period=MAX_BATCH_STEPS,
        )
        with ShardThread(router):
            yield path
        return
    manager = SessionManager(global_budget_j=1e9)
    with ServerThread(manager, unix_path=path, exec_mode=request.param):
        yield path


class TestLineLimits:
    def test_a_70kb_hello_is_answered(self, daemon):
        wire = Wire(daemon)
        try:
            hello = {"type": "hello", "version": 3, "pad": "x" * 70_000}
            reply = json.loads(wire.ask(hello))
            assert reply["ok"] and reply["type"] == "hello"
            # The connection survives and keeps serving.
            assert json.loads(wire.ask({"type": "hello"}))["ok"]
        finally:
            wire.close()

    def test_a_line_just_over_1mb_is_refused_not_crashed(self, daemon):
        wire = Wire(daemon)
        try:
            pad = "x" * (MAX_LINE_BYTES + 16)
            wire.send(_frame({"type": "hello", "pad": pad}))
            reply = json.loads(wire.recv())
            assert not reply["ok"]
            assert reply["error"]["code"] == "bad_request"
            assert str(MAX_LINE_BYTES) in reply["error"]["message"]
            assert wire.recv() == b""  # then the connection closes
        finally:
            wire.close()
        # The daemon serves the next connection as before.
        again = Wire(daemon)
        try:
            assert json.loads(again.ask({"type": "hello"}))["ok"]
        finally:
            again.close()

    def test_a_batch_reply_over_64kib_crosses_every_hop(self, daemon):
        # Through the router this reply comes back over the worker
        # link, whose reader used asyncio's 64 KiB default before.
        wire = Wire(daemon)
        try:
            session = wire.open_session()
            beat = _heartbeat()
            line = wire.ask(
                {
                    "type": "batch_step",
                    "session": session,
                    "measurements": [beat] * MAX_BATCH_STEPS,
                }
            )
            assert len(line) > 64 * 1024
            reply = json.loads(line)
            assert reply["ok"], reply
            assert reply["completed"] == MAX_BATCH_STEPS
        finally:
            wire.close()


def test_an_oversized_worker_reply_fails_the_rebalance_not_the_step(
    tmp_path, monkeypatch
):
    # Shrink the router's line limit so 60 sessions' rebalance inputs
    # (~60 B a session) overflow the worker link; at the shipped 1 MB
    # that takes ~22k sessions on one worker.
    monkeypatch.setattr(shard, "MAX_LINE_BYTES", 2048)
    dials = []
    wait_ready = shard.ShardRouter._wait_ready

    async def counting(self, handle):
        dials.append(handle.name)
        await wait_ready(self, handle)

    monkeypatch.setattr(shard.ShardRouter, "_wait_ready", counting)
    path = str(tmp_path / "router.sock")
    router = ShardRouter(
        n_shards=1,
        budget_j=1e9,
        unix_path=path,
        run_dir=str(tmp_path),
        rebalance_period=5,
    )
    with ShardThread(router):
        wire = Wire(path)
        try:
            sessions = [wire.open_session() for _ in range(60)]
            beat = _heartbeat()
            # Every fifth step ends in a rebalance round that cannot
            # read the worker's inputs: the round skips the worker,
            # the link is re-dialled, and each step is still answered.
            for session in sessions + sessions[:1]:
                reply = json.loads(
                    wire.ask(
                        {
                            "type": "step",
                            "session": session,
                            "measurement": beat,
                        }
                    )
                )
                assert reply["ok"] and "decision" in reply, reply
        finally:
            wire.close()
    # The link was re-dialled after each overflow, but the worker was
    # never restarted: its sessions stayed live throughout.
    assert len(dials) > 1
    assert router.m_restarts.labels("w0").value == 0


class TestReplayIsByteIdentical:
    def test_step_and_batch_step_replay_exact_bytes(self, daemon):
        wire = Wire(daemon)
        try:
            session = wire.open_session()
            beat = _heartbeat()
            step = {
                "type": "step",
                "session": session,
                "measurement": beat,
                "rid": "replay-step",
            }
            batch = {
                "type": "batch_step",
                "session": session,
                "measurements": [beat] * 8,
                "rid": "replay-batch",
            }
            for frame in (step, batch):
                first = wire.ask(frame)
                assert json.loads(first)["ok"], first
                assert json.loads(first)["rid"] == frame["rid"]
                assert wire.ask(frame) == first
            report = json.loads(
                wire.ask({"type": "report", "session": session})
            )
            # The replays executed nothing: 1 step + 8 batched.
            assert report["report"]["steps"] == 9
        finally:
            wire.close()
