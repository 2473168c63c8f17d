"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload heartbeat --seed 1 --seconds 10 --trace 0

Workloads: ``heartbeat``, ``sharded_batch``, ``churn`` (the daemon,
``python -m repro serve``, in its own process, driven closed-loop over
two connections from this one) and ``fleet`` (the fleet simulator in
this process).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced, then traced, then once more
in strict turns for the exact counts, and prints the per-layer table.
The last line of output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A held-out seed: a gain claimed on the seeds a change was tuned on
#: must also hold here.
HELD_OUT_SEED = 7919
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Simulator constructions per run (tens of milliseconds each).
FLEET_SETUPS = 21
WARMUP_S = 1.0
#: The window is cut into slices of this length; rates, CPU and
#: round-trip percentiles are medians over them.  The host this was
#: built on swung by half in CPU time per op from one second to the
#: next, so one run's figure is the median of many short slices.
SLICE_S = 1.0
#: Requests per connection in the strict-turn count pass.
COUNT_REQUESTS = {"heartbeat": 1000, "sharded_batch": 16, "churn": 110}

#: Metric names and units, as ``BENCHMARK.json`` declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

class Shape(NamedTuple):
    """How a service workload runs."""

    shards: int
    #: Live sessions per connection (churn opens its own).
    per_conn: int
    #: Heartbeats per step frame.
    batch: int
    #: Whether the daemon keeps a snapshot directory.
    stateful: bool
    #: The request whose round trip is timed.
    unit: str
    #: What ``cpu_us_per_op`` and the layer metrics divide by.
    op: str


SERVICE = {
    "heartbeat": Shape(1, 16, 1, False, "step", "heartbeat"),
    "sharded_batch": Shape(2, 64, 128, False, "batch", "heartbeat"),
    "churn": Shape(1, 0, 1, True, "open", "lifecycle"),
}


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def tail_fraction(count: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    return max(0.5, 1.0 - 10.0 / count) if count else 0.5


class Run:
    """One invocation: arguments, scratch space, CPU placement, output."""

    def __init__(self, args: argparse.Namespace) -> None:
        from load import cpu_sets, fingerprint

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.sut_cpus, self.gen_cpus = cpu_sets()
        os.sched_setaffinity(0, self.gen_cpus)
        self.host = fingerprint(ROOT, self.sut_cpus, self.gen_cpus)
        self.problems: List[str] = []
        self.lines: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._daemons = 0

    def say(self, text: str) -> None:
        self.lines.append(text)

    def check(self, problems: List[str], what: str) -> None:
        for problem in problems[:5]:
            self.problems.append(f"{what}: {problem}")
        if len(problems) > 5:
            self.problems.append(f"{what}: {len(problems) - 5} more")

    # -- service workloads -----------------------------------------------
    def daemon(self, trace: Optional[Path] = None, alloc: bool = False) -> Any:
        from load import Daemon
        from workloads import BUDGET_J

        shape = SERVICE[self.workload]
        self._daemons += 1
        where = self.work / f"d{self._daemons}"
        return Daemon(
            ROOT,
            where,
            BUDGET_J,
            shards=shape.shards,
            state_dir=where / "state" if shape.stateful else None,
            trace_dir=trace,
            alloc=alloc,
            cpus=self.sut_cpus,
        )

    def scripts(
        self, conns: List[Any], stop: List[bool], snapshot_bytes: Optional[List[int]] = None
    ) -> Tuple[List[Any], Callable[[], List[str]]]:
        """Open sessions / build templates; return scripts + final check."""
        import workloads as w

        shape = SERVICE[self.workload]
        scripts = []
        live: List[List[Any]] = []
        for index, conn in enumerate(conns):
            rids = w.Rids(f"pb{self.seed}c{index}-")
            if self.workload == "churn":
                scripts.append(
                    w.churn_script(
                        w.lifecycles(index, self.seed), rids, stop, snapshot_bytes
                    )
                )
            else:
                sessions = w.open_live(
                    conn, index, shape.per_conn, self.seed, shape.batch
                )
                live.append(sessions)
                scripts.append(w.live_script(sessions, rids, shape.batch, stop))

        def finish() -> List[str]:
            problems: List[str] = []
            for conn, sessions in zip(conns, live):
                problems += w.close_live(conn, sessions)
            return problems

        return scripts, finish

    def service_leg(
        self, setups: int, trace: Optional[Path] = None
    ) -> Dict[str, Any]:
        """Start the daemon, spot-check it, drive the window, check."""
        from load import Connection, drive, proc_sample
        from workloads import spot_check

        setup_s = []
        for _ in range(setups):
            daemon = self.daemon(trace)
            setup_s.append(daemon.start())
            if len(setup_s) < setups:
                daemon.stop()
        conns: List[Any] = []
        try:
            with Connection(daemon.socket_path) as conn:
                self.check(spot_check(conn, self.seed), "lockstep spot check")
            conns = [Connection(daemon.socket_path) for _ in range(2)]
            stop = [False]
            scripts, finish = self.scripts(conns, stop)
            pids = daemon.pids()

            gc.collect()
            outcome = drive(
                conns,
                scripts,
                WARMUP_S,
                self.seconds,
                stop,
                lambda: proc_sample(pids),
                slices=max(1, round(self.seconds / SLICE_S)),
            )
            self.check(outcome.failures, "reply")
            if outcome.applied_heartbeats != outcome.sent_heartbeats:
                self.problems.append(
                    f"applied {outcome.applied_heartbeats} of "
                    f"{outcome.sent_heartbeats} heartbeats"
                )
            self.check(finish(), "after the window")
        finally:
            for conn in conns:
                conn.close()
            daemon.stop()
        return {"outcome": outcome, "setup_s": setup_s}

    def service_end_to_end(self, leg: Dict[str, Any]) -> Dict[str, Tuple[float, int]]:
        """``{metric: (value, samples)}`` from one untraced leg.

        Rates, CPU and round-trip percentiles are medians over the
        window's slices, so a host hiccup in one slice does not move
        the run's figure.
        """
        unit, op = SERVICE[self.workload].unit, SERVICE[self.workload].op
        outcome = leg["outcome"]
        window = outcome.window
        probes = outcome.probes
        per_slice: Dict[str, List[float]] = {}
        for k, part in enumerate(outcome.slices):
            ops = part.lifecycles if op == "lifecycle" else part.heartbeats
            rtts = [ns / 1e6 for ns in part.rtt_ns.get(unit, [])]
            for name, value in (
                ("steps_per_s", part.heartbeats / outcome.slice_s),
                ("sessions_per_s", part.lifecycles / outcome.slice_s),
                ("rtt_p50_ms", percentile(rtts, 0.5)),
                ("rtt_p90_ms", percentile(rtts, 0.9)),
                (
                    "cpu_us_per_op",
                    (probes[k + 1].cpu_s - probes[k].cpu_s) * 1e6 / ops,
                ),
                ("client.cpu_us_per_op", part.busy_ns / 1e3 / ops),
            ):
                per_slice.setdefault(name, []).append(value)
        median = {name: statistics.median(v) for name, v in per_slice.items()}
        ops = window.lifecycles if op == "lifecycle" else window.heartbeats
        rtts = [ns / 1e6 for ns in window.rtt_ns.get(unit, [])]
        self.attempted += window.requests
        self.failed += window.failed
        tail = tail_fraction(len(rtts))
        metrics = {
            "steps_per_s": (median["steps_per_s"], window.heartbeats),
            "rtt_p50_ms": (median["rtt_p50_ms"], len(rtts)),
            "rtt_p90_ms": (median["rtt_p90_ms"], len(rtts)),
            "cpu_us_per_op": (median["cpu_us_per_op"], ops),
            "peak_rss_mb": (probes[-1].peak_rss_mb, 1),
            "setup_s": (statistics.median(leg["setup_s"]), len(leg["setup_s"])),
            "client.cpu_us_per_op": (median["client.cpu_us_per_op"], ops),
        }
        self.say(
            f"unit request      : {unit} ({len(rtts)} round trips, "
            f"medians over {len(outcome.slices)} slices)"
        )
        self.say(f"rtt_p{100 * tail:g}_ms (tail) : {percentile(rtts, tail):.4f}")
        if self.workload == "churn":
            self.say(
                f"sessions_per_s    : {median['sessions_per_s']:.2f} "
                f"lifecycles/s (n={window.lifecycles})"
            )
        self.say(
            f"failed_frac       : {window.failed / max(window.requests, 1):.6f} "
            f"(n={window.requests})"
        )
        self.say(
            f"client.cpu_us_per_op: {median['client.cpu_us_per_op']:.2f} "
            f"(generator, per {op})"
        )
        return metrics

    def service_traced(self) -> Dict[str, float]:
        """Untraced leg, traced leg, strict-turn count pass."""
        from tracing import layer_table, load_traces

        op = SERVICE[self.workload].op
        plain = self.service_leg(1)
        plain_e2e = self.service_end_to_end(plain)
        trace_dir = self.work / "spans"
        trace_dir.mkdir()
        traced = self.service_leg(1, trace=trace_dir)
        outcome = traced["outcome"]
        window = outcome.window
        ops = window.lifecycles if op == "lifecycle" else window.heartbeats
        totals = layer_table(
            load_traces(trace_dir, "spans"), outcome.start_ns, outcome.end_ns
        )
        counts = self.service_counts()
        probes = outcome.probes
        traced_cpu_per_op = (probes[-1].cpu_s - probes[0].cpu_s) * 1e6 / ops
        traced_steps = statistics.median(
            part.heartbeats / outcome.slice_s for part in outcome.slices
        )

        def per_op(table: Dict[str, float], *names: str) -> float:
            return totals.us(table, *names) / ops

        rebalance_us = per_op(totals.self_cpu, "sessions.rebalance") + per_op(
            totals.cpu, "sessions.rebalance_inputs", "sessions.apply_rebalance"
        )
        covered = totals.covered_cpu / 1e3 / ops
        layers = {
            "protocol.decode_us": per_op(totals.cpu, "protocol.decode"),
            "protocol.encode_us": per_op(totals.cpu, "protocol.encode"),
            "server.dispatch_self_us": per_op(totals.self_cpu, "server.handle_line"),
            "server.transport_us": traced_cpu_per_op - covered,
            "sessions.step_self_us": per_op(totals.self_cpu, "sessions.step"),
            "sessions.rebalance_us": rebalance_us,
            "sessions.open_us": per_op(totals.cpu, "sessions.open_session"),
            "sessions.close_us": per_op(totals.cpu, "sessions.close"),
            "core.runtime_step_us": per_op(totals.cpu, "core.runtime_step"),
            "enforce.ladder_us": per_op(totals.cpu, "enforce.ladder"),
            "telemetry.record_us": per_op(
                totals.cpu, "telemetry.request", "telemetry.step"
            ),
            "state.apply_us": per_op(totals.cpu, "state.apply"),
            "state.capture_us": per_op(totals.cpu, "state.capture"),
            "state.put_us": per_op(totals.cpu, "state.put"),
            "shard.router_self_us": per_op(totals.self_wall, "shard.handle_line"),
            "shard.worker_wait_us": per_op(totals.wall, "shard.call_worker"),
            "shard.rebalance_us": per_op(totals.wall, "shard.rebalance"),
            "client.cpu_us_per_op": plain_e2e["client.cpu_us_per_op"][0],
            "trace.covered_share": covered / traced_cpu_per_op,
            "trace.steps_per_s_ratio": traced_steps / plain_e2e["steps_per_s"][0],
        }
        layers.update(counts)
        self.say(
            f"traced window     : {window.heartbeats} heartbeats, "
            f"{ops} {op}s, {sum(totals.count.values())} spans"
        )
        return layers

    def service_counts(self) -> Dict[str, float]:
        """Exact counts: the connections take strict turns for a fixed
        number of requests, so the daemon sees one order every run."""
        import signal as signals

        from load import Connection, drive
        from tracing import layer_table, load_traces

        count_dir = self.work / "counts"
        count_dir.mkdir()
        daemon = self.daemon(count_dir, alloc=True)
        daemon.start()
        conns: List[Any] = []
        snapshot_bytes: List[int] = []
        try:
            conns = [Connection(daemon.socket_path) for _ in range(2)]
            stop = [False]
            scripts, finish = self.scripts(conns, stop, snapshot_bytes)
            limit = COUNT_REQUESTS[self.workload]
            bounded = [_bounded(script, limit, stop) for script in scripts]
            for conn in conns:
                conn.bytes_in = conn.bytes_out = 0

            def pause_mark() -> None:
                daemon.signal_all(signals.SIGUSR1)
                time.sleep(1.0)

            pause_mark()
            outcome = drive(conns, bounded, 0.0, 1e6, stop, lockstep=True)
            wire_bytes = sum(conn.bytes_in + conn.bytes_out for conn in conns)
            pause_mark()
            self.check(outcome.failures, "count pass reply")
            self.check(finish(), "count pass")
        finally:
            for conn in conns:
                conn.close()
            daemon.stop()
        traces = load_traces(count_dir, "spans")
        blocks = 0
        calls: Dict[str, int] = {}
        for trace in traces:
            if len(trace.marks) < 2:
                self.problems.append(f"count pass: pid {trace.pid} missed a mark")
                continue
            (_, before, start_ns), (_, after, end_ns) = trace.marks[:2]
            blocks += after - before
            window = layer_table([trace], start_ns, end_ns)
            for name, count in window.count.items():
                calls[name] = calls.get(name, 0) + count
        beats = outcome.applied_heartbeats
        per_k = 1000.0 / beats
        frames = calls.get("shard.handle_line", 0)
        return {
            "protocol.bytes_per_step": wire_bytes / beats,
            "sessions.rebalances_per_kstep": calls.get("sessions.rebalance_inputs", 0)
            * per_k,
            "state.snapshot_bytes": (
                statistics.fmean(snapshot_bytes) if snapshot_bytes else 0.0
            ),
            "shard.forwards_per_frame": (
                calls.get("shard.call_worker", 0) / frames if frames else 0.0
            ),
            "shard.rebalances_per_kstep": calls.get("shard.rebalance", 0) * per_k,
            "lease.ops_per_kstep": (
                calls.get("lease.lease", 0) + calls.get("lease.reclaim", 0)
            )
            * per_k,
            "alloc.blocks_per_step": blocks / beats,
        }

    # -- fleet --------------------------------------------------------------
    def fleet_leg(self, setups: int) -> Dict[str, Any]:
        """Construct ``setups`` simulators (timed), then run scenarios
        back to back for the window; every report is checked."""
        from load import proc_sample
        from repro.fleet import FleetSimulator
        from workloads import fleet_scenario

        scenario = fleet_scenario(self.seed)
        setup_s = []
        for _ in range(setups):
            started = time.perf_counter()
            FleetSimulator(scenario)
            setup_s.append(time.perf_counter() - started)
        gc.collect()
        run_s: List[float] = []
        run_cpu_s: List[float] = []
        run_steps: List[int] = []
        first: Optional[Dict[str, Any]] = None
        window_start = time.perf_counter_ns()
        while sum(run_s) < self.seconds:
            simulator = FleetSimulator(scenario)
            cpu0 = time.process_time()
            started = time.perf_counter()
            report = simulator.run()
            run_s.append(time.perf_counter() - started)
            run_cpu_s.append(time.process_time() - cpu0)
            run_steps.append(report.device_steps)
            summary = report.as_dict()
            self.attempted += 1
            problems = []
            if summary["hard_tier_overdraft"] != 0:
                problems.append(f"hard-tier overdraft {summary['hard_tier_overdraft']}")
            if summary["killed"] == 0:
                problems.append("no kills")
            if first is None:
                first = summary
            elif summary != first:
                problems.append("report differs from the first run's")
            if problems:
                self.failed += 1
                self.check(problems, "fleet run")
        return {
            "setup_s": setup_s,
            "run_s": run_s,
            "run_cpu_s": run_cpu_s,
            "run_steps": run_steps,
            "window_ns": (window_start, time.perf_counter_ns()),
            "peak_rss_mb": proc_sample([os.getpid()]).peak_rss_mb,
        }

    def fleet_end_to_end(self, leg: Dict[str, Any]) -> Dict[str, Tuple[float, int]]:
        """Rates and CPU are medians over the runs in the window."""
        run_ms = [s * 1e3 for s in leg["run_s"]]
        tail = tail_fraction(len(run_ms))
        self.say(f"unit request      : scenario run ({len(run_ms)} runs)")
        self.say(f"rtt_p{100 * tail:g}_ms (tail) : {percentile(run_ms, tail):.4f}")
        self.say(f"failed_frac       : {self.failed / max(self.attempted, 1):.6f} "
                 f"(n={self.attempted})")
        steps = sum(leg["run_steps"])
        return {
            "steps_per_s": (
                statistics.median(n / s for n, s in zip(leg["run_steps"], leg["run_s"])),
                steps,
            ),
            "rtt_p50_ms": (percentile(run_ms, 0.5), len(run_ms)),
            "rtt_p90_ms": (percentile(run_ms, 0.9), len(run_ms)),
            "cpu_us_per_op": (
                statistics.median(
                    c * 1e6 / n for c, n in zip(leg["run_cpu_s"], leg["run_steps"])
                ),
                steps,
            ),
            "peak_rss_mb": (leg["peak_rss_mb"], 1),
            "setup_s": (statistics.median(leg["setup_s"]), len(leg["setup_s"])),
        }

    def fleet_traced(self) -> Dict[str, float]:
        import tracemalloc

        from repro.fleet import FleetSimulator
        from tracing import Tracer, in_tracer, install_fleet, layer_table
        from workloads import fleet_scenario

        plain = self.fleet_end_to_end(self.fleet_leg(1))
        tracer = Tracer()
        rows = install_fleet(tracer)
        leg = self.fleet_leg(1)
        start_ns, end_ns = leg["window_ns"]
        totals = layer_table([in_tracer(tracer)], start_ns, end_ns)
        calls = totals.calls("pool.step")
        steps = sum(leg["run_steps"])
        step_us = totals.us(totals.cpu, "pool.step")
        traced_steps = statistics.median(
            n / s for n, s in zip(leg["run_steps"], leg["run_s"])
        )
        # Net traced blocks one scenario run leaves behind, per step.
        simulator = FleetSimulator(fleet_scenario(self.seed))
        tracemalloc.start()
        before = len(tracemalloc.take_snapshot().traces)
        report = simulator.run()
        after = len(tracemalloc.take_snapshot().traces)
        tracemalloc.stop()
        covered = totals.covered_cpu / 1e3 / steps
        self.say(f"traced window     : {calls} pool steps, {rows[0]} rows")
        return {
            "pool.step_us_per_call": step_us / calls,
            "pool.rows_per_call": rows[0] / calls,
            "pool.step_ns_per_row": step_us * 1e3 / rows[0],
            "pool.compact_us": totals.us(totals.cpu, "pool.compact")
            / max(totals.calls("pool.compact"), 1),
            "alloc.blocks_per_step": (after - before) / report.device_steps,
            "trace.covered_share": covered / (sum(leg["run_cpu_s"]) * 1e6 / steps),
            "trace.steps_per_s_ratio": traced_steps / plain["steps_per_s"][0],
        }

    # -- orchestration ------------------------------------------------------
    def execute(self, trace: bool) -> Dict[str, Dict[str, Any]]:
        if self.workload == "fleet":
            from workloads import fleet_spot_check

            # The simulator is the system under test: it runs where a
            # daemon would.
            os.sched_setaffinity(0, self.sut_cpus)
            self.check(fleet_spot_check(self.seed), "fleet lockstep spot check")
        if trace:
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(
                self.fleet_traced() if self.workload == "fleet" else self.service_traced()
            )
            return {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
        if self.workload == "fleet":
            metrics = self.fleet_end_to_end(self.fleet_leg(FLEET_SETUPS))
        else:
            metrics = self.service_end_to_end(self.service_leg(SETUPS))
        return {
            name: {"value": float(metrics[name][0]), "unit": unit, "samples": metrics[name][1]}
            for name, unit in END_TO_END.items()
        }


def _bounded(script: Any, limit: int, stop: List[bool]) -> Any:
    """The first ``limit`` requests of ``script``, then let it wind down."""
    reply = None
    for _ in range(limit):
        try:
            item = script.send(reply)
        except StopIteration:
            return
        reply = yield item
    stop[0] = True
    while True:
        try:
            item = script.send(reply)
        except StopIteration:
            return
        reply = yield item


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*SERVICE, "fleet"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    try:
        metrics = run.execute(bool(args.trace))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload          : {args.workload} (seed {args.seed}, "
          f"held-out seed {HELD_OUT_SEED}, trace {args.trace})")
    print(f"host              : {json.dumps(run.host, sort_keys=True)}")
    for line in run.lines:
        print(line)
    for name, entry in metrics.items():
        samples = entry.pop("samples", None)
        suffix = f" (n={samples})" if samples is not None else ""
        print(f"{name:<30}: {entry['value']:.6g} {entry['unit']}{suffix}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
