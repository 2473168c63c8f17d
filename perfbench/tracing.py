"""Spans around the public calls of each layer, for the traced run.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: the layer name, wall-clock and thread-CPU
start and end (``perf_counter_ns`` is CLOCK_MONOTONIC, so wall stamps
from the daemon, its shard workers and the load generator share one
time axis), the enclosing span, and a request id shared by every span
under one top-level span.  Spans live in a flat ``array('q')`` in
memory and are written out once, when the process exits.

:func:`install_service` wraps the daemon's layers; the bootstrap in
``boot/sitecustomize.py`` calls it inside the daemon and every shard
worker.  :func:`install_fleet` wraps the pool for the in-process fleet
workload.  :func:`load_traces` and :func:`layer_table` turn the dumped
spans into per-layer totals.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import array
import contextvars
import functools
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

#: Fields per span in the flat array.
NAME, WALL0, WALL1, CPU0, CPU1, PARENT, REQUEST = range(7)
FIELDS = 7


class Tracer:
    """Records spans for wrapped callables; dumps them on request."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.async_names: List[bool] = []
        self.spans = array.array("q")
        #: ``(span count, live traced blocks, wall ns)`` per window mark.
        self.marks: List[Tuple[int, int, int]] = []
        self._ids: Dict[str, int] = {}
        self._current: contextvars.ContextVar[Tuple[int, int]] = (
            contextvars.ContextVar("perfbench_span", default=(-1, -1))
        )

    def _name_id(self, name: str, is_async: bool) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.async_names.append(is_async)
        return self._ids[name]

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with a span around every call."""
        is_async = inspect.iscoroutinefunction(fn)
        name_id = self._name_id(name, is_async)
        spans = self.spans
        current = self._current
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def open_span() -> Tuple[int, contextvars.Token]:
            parent, request = current.get()
            index = len(spans) // FIELDS
            if parent < 0:
                request = index
            spans.extend((name_id, wall(), 0, cpu(), 0, parent, request))
            return index, current.set((index, request))

        def close_span(index: int, token: contextvars.Token) -> None:
            base = index * FIELDS
            spans[base + WALL1] = wall()
            spans[base + CPU1] = cpu()
            current.reset(token)

        if is_async:

            async def traced(*args: Any, **kwargs: Any) -> Any:
                index, token = open_span()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close_span(index, token)

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                index, token = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(index, token)

        return functools.wraps(fn)(traced)

    def patch(self, owners: Iterable[Any], attr: str, name: str) -> None:
        """Wrap ``attr`` once and rebind it on every owner that has it.

        A function imported by name into several modules (``from
        .protocol import decode_message``) is one object bound in
        each; every binding must see the wrapper.
        """
        owners = [owner for owner in owners if hasattr(owner, attr)]
        wrapped = self.wrap(getattr(owners[0], attr), name)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def mark(self, blocks: int = -1) -> None:
        """Note a window boundary (span count, live blocks, time)."""
        self.marks.append(
            (len(self.spans) // FIELDS, blocks, time.perf_counter_ns())
        )

    def dump(self, directory: str, label: str) -> None:
        """Write ``<label>-<pid>.bin`` (spans) and ``.json`` (names)."""
        stem = Path(directory) / f"{label}-{os.getpid()}"
        with open(f"{stem}.bin", "wb") as handle:
            self.spans.tofile(handle)
        Path(f"{stem}.json").write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "names": self.names,
                    "async": self.async_names,
                    "marks": self.marks,
                }
            ),
            encoding="utf-8",
        )


def install_service(tracer: Tracer) -> None:
    """Wrap every daemon-side layer the per-layer table names."""
    from repro.core.jouleguard import JouleGuardRuntime
    from repro.enforce.ladder import EnforcementLadder
    from repro.service import lease, protocol, server, sessions, shard, state
    from repro.service import telemetry

    codec_owners = (protocol, server, shard)
    tracer.patch(codec_owners, "decode_message", "protocol.decode")
    tracer.patch(codec_owners, "encode_message", "protocol.encode")
    tracer.patch([server.ServiceServer], "handle_line", "server.handle_line")
    manager = sessions.SessionManager
    for method in (
        "step",
        "open_session",
        "close",
        "snapshot",
        "rebalance",
        "rebalance_inputs",
        "apply_rebalance",
    ):
        tracer.patch([manager], method, f"sessions.{method}")
    tracer.patch([JouleGuardRuntime], "step", "core.runtime_step")
    tracer.patch([EnforcementLadder], "observe", "enforce.ladder")
    tracer.patch(
        [telemetry.ServiceTelemetry], "record_request", "telemetry.request"
    )
    tracer.patch(
        [telemetry.SessionStepRecorder], "record", "telemetry.step"
    )
    tracer.patch((state, sessions), "apply_state", "state.apply")
    tracer.patch((state, sessions), "capture_state", "state.capture")
    tracer.patch([state.SnapshotStore], "put", "state.put")
    router = shard.ShardRouter
    tracer.patch([router], "handle_line", "shard.handle_line")
    tracer.patch([router], "_call_worker", "shard.call_worker")
    tracer.patch([router], "_rebalance", "shard.rebalance")
    tracer.patch([lease.LeaseLedger], "lease", "lease.lease")
    tracer.patch([lease.LeaseLedger], "reclaim", "lease.reclaim")


def install_fleet(tracer: Tracer) -> List[int]:
    """Wrap the vectorized pool's step and compact.

    Returns a one-element list that counts the rows handed to
    ``SessionPool.step`` from now on.
    """
    from repro.fleet.pool import SessionPool

    rows = [0]
    step = SessionPool.step

    def counted(self: SessionPool, *args: Any, **kwargs: Any) -> Any:
        rows[0] += self.n
        return step(self, *args, **kwargs)

    SessionPool.step = functools.wraps(step)(counted)
    tracer.patch([SessionPool], "step", "pool.step")
    tracer.patch([SessionPool], "compact", "pool.compact")
    return rows


# -- reading traces back -----------------------------------------------------
class ProcessTrace:
    """One process's dumped spans as a ``(n, 7)`` int64 matrix."""

    def __init__(self, spans: np.ndarray, meta: Dict[str, Any]) -> None:
        self.spans = spans
        self.names: List[str] = meta["names"]
        self.is_async: List[bool] = meta["async"]
        self.marks: List[List[int]] = meta["marks"]
        self.pid: int = meta["pid"]


def load_traces(directory: Path, label: str) -> List[ProcessTrace]:
    """Every process trace dumped under ``directory`` with ``label``."""
    traces = []
    for meta_path in sorted(directory.glob(f"{label}-*.json")):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        raw = np.fromfile(meta_path.with_suffix(".bin"), dtype=np.int64)
        traces.append(ProcessTrace(raw.reshape(-1, FIELDS), meta))
    return traces


def in_tracer(tracer: Tracer) -> ProcessTrace:
    """The live spans of an in-process tracer, as a trace."""
    raw = np.frombuffer(tracer.spans, dtype=np.int64).copy()
    return ProcessTrace(
        raw.reshape(-1, FIELDS),
        {
            "names": tracer.names,
            "async": tracer.async_names,
            "marks": tracer.marks,
            "pid": os.getpid(),
        },
    )


class LayerTotals:
    """Per-name totals over the spans that started inside a window.

    ``wall``/``cpu`` are inclusive nanoseconds; ``self_wall`` and
    ``self_cpu`` subtract the part of each span its child spans cover.
    Within one task a span's children run one after another inside
    it, so the part they cover is the sum of their durations.  ``covered_cpu`` is the CPU inside synchronous spans
    whose ancestors are all asynchronous (or that have none): counted
    once each, it is the share of a process's CPU the spans explain.
    An asynchronous span's thread CPU includes every task the event
    loop ran while it was suspended, so only its wall time is used.
    """

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.self_wall: Dict[str, float] = {}
        self.self_cpu: Dict[str, float] = {}
        self.covered_cpu = 0.0

    def add(self, trace: ProcessTrace, start_ns: int, end_ns: int) -> None:
        spans = trace.spans
        if not len(spans):
            return
        finished = spans[:, WALL1] > 0
        wall = np.where(finished, spans[:, WALL1] - spans[:, WALL0], 0)
        cpu = np.where(finished, spans[:, CPU1] - spans[:, CPU0], 0)
        child_wall = np.zeros(len(spans), dtype=np.int64)
        child_cpu = np.zeros(len(spans), dtype=np.int64)
        parents = spans[:, PARENT]
        has_parent = parents >= 0
        np.add.at(child_wall, parents[has_parent], wall[has_parent])
        np.add.at(child_cpu, parents[has_parent], cpu[has_parent])
        self_wall = np.maximum(wall - child_wall, 0)
        self_cpu = np.maximum(cpu - child_cpu, 0)
        is_async = np.asarray(trace.is_async, dtype=bool)[spans[:, NAME]]
        # A synchronous span is outermost-synchronous when its parent
        # is asynchronous or absent (synchronous code never suspends,
        # so it cannot be a child of a span on another task).
        parent_async = np.ones(len(spans), dtype=bool)
        parent_async[has_parent] = is_async[parents[has_parent]]
        inside = (
            finished
            & (spans[:, WALL0] >= start_ns)
            & (spans[:, WALL0] < end_ns)
        )
        outer_sync = inside & ~is_async & parent_async
        self.covered_cpu += float(cpu[outer_sync].sum())
        for name_id, name in enumerate(trace.names):
            rows = inside & (spans[:, NAME] == name_id)
            count = int(rows.sum())
            if not count:
                continue
            self.count[name] = self.count.get(name, 0) + count
            for table, values in (
                (self.wall, wall),
                (self.cpu, cpu),
                (self.self_wall, self_wall),
                (self.self_cpu, self_cpu),
            ):
                table[name] = table.get(name, 0.0) + float(values[rows].sum())

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def us(self, table: Dict[str, float], *names: str) -> float:
        """Summed microseconds of ``names`` in one of the tables."""
        return sum(table.get(name, 0.0) for name in names) / 1e3


def layer_table(
    traces: Iterable[ProcessTrace], start_ns: int, end_ns: int
) -> LayerTotals:
    """Totals for spans that started in ``[start_ns, end_ns)``."""
    totals = LayerTotals()
    for trace in traces:
        totals.add(trace, start_ns, end_ns)
    return totals
