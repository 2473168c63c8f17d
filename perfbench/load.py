"""Process plumbing for the benchmark: the daemon, /proc, the load loop.

:class:`Daemon` spawns ``python -m repro serve`` as its own process
(optionally with ``--shards``), times its start-up, and stops it.
:func:`proc_sample` reads CPU time and peak RSS of a process tree from
``/proc``.  :func:`drive` is the closed-loop load generator: one
thread, a selector over at most a few connections, each connection
sending its next pre-encoded frame only after reading the reply to the
previous one.
"""

from __future__ import annotations

import json
import os
import platform
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

BOOT_DIR = Path(__file__).resolve().parent / "boot"
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: What a script yields: (kind, frame, n).  ``n`` is the heartbeats a
#: step or batch frame carries, or the steps a close report must show.
Request = Tuple[str, bytes, int]
Script = Generator[Request, Dict[str, Any], None]


# -- CPU placement -------------------------------------------------------------
def cpu_sets() -> Tuple[Set[int], Set[int]]:
    """``(system under test, load generator)`` CPU sets.

    With two or more CPUs the generator gets the lowest one to itself
    (CPU 0 also takes most of the kernel's housekeeping) and the daemon,
    its router and its workers share the rest; on one CPU both get
    everything.
    """
    available = set(os.sched_getaffinity(0))
    if len(available) < 2:
        return available, available
    generator = {min(available)}
    return available - generator, generator


# -- /proc ---------------------------------------------------------------------
def _stat_fields(pid: int) -> List[str]:
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (shard workers of a router)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                kids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return kids


@dataclass(frozen=True)
class ProcSample:
    """CPU seconds and peak RSS summed over a set of processes."""

    cpu_s: float
    peak_rss_mb: float


def proc_sample(pids: List[int]) -> ProcSample:
    """User+sys CPU and VmHWM, summed over ``pids``."""
    cpu_ticks = 0
    hwm_kb = 0
    for pid in pids:
        fields = _stat_fields(pid)
        cpu_ticks += int(fields[11]) + int(fields[12])
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm_kb += int(line.split()[1])
    return ProcSample(cpu_ticks / CLK_TCK, hwm_kb / 1024.0)


# -- the daemon ---------------------------------------------------------------
class Daemon:
    """One ``python -m repro serve`` process (a router when sharded)."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        budget_j: float,
        shards: int = 1,
        state_dir: Optional[Path] = None,
        trace_dir: Optional[Path] = None,
        alloc: bool = False,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # Both sides name the socket by a relative path (the daemon from
        # its working directory, the generator from the checkout root),
        # which stays under the 108-byte Unix socket limit wherever the
        # checkout lives.
        self.socket_path = os.path.relpath(workdir / "d.sock")
        self.shards = shards
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--unix",
            "d.sock",
            "--budget-j",
            repr(budget_j),
        ]
        if shards > 1:
            command += ["--shards", str(shards)]
        if state_dir is not None:
            command += ["--state-dir", str(state_dir)]
        env = dict(os.environ)
        paths = [str(root / "src")]
        if trace_dir is not None:
            paths.insert(0, str(BOOT_DIR))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            if alloc:
                env["PERFBENCH_ALLOC"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(paths)
        tmp = workdir / "t"
        tmp.mkdir(exist_ok=True)
        # The shard router's run directory (worker sockets) comes from
        # tempfile; keep it in the checkout unless the path would pass
        # the Unix socket length limit.
        if len(str(tmp)) < 60:
            env["TMPDIR"] = str(tmp)
        self.command = command
        self.env = env
        self.cpus = cpus
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn; return seconds until ``hello`` answers, workers up."""
        log = open(self.workdir / "daemon.log", "ab")
        mine = os.sched_getaffinity(0)
        started = time.perf_counter()
        try:
            # Children inherit affinity, so switch to the daemon's CPUs
            # for the spawn: the router's workers inherit them in turn.
            if self.cpus is not None:
                os.sched_setaffinity(0, self.cpus)
            self.process = subprocess.Popen(
                self.command,
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            os.sched_setaffinity(0, mine)
            log.close()
        try:
            self._await_hello(started + timeout_s)
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - started

    def _await_hello(self, deadline: float) -> None:
        assert self.process is not None
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}; see "
                    f"{self.workdir / 'daemon.log'}"
                )
            try:
                with Connection(self.socket_path) as conn:
                    hello = conn.request({"type": "hello", "version": 3})
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
        workers = hello.get("workers", [])
        if len(workers) != (self.shards if self.shards > 1 else 0) or not all(
            worker.get("up") for worker in workers
        ):
            raise RuntimeError(f"workers not all up: {workers}")

    def pids(self) -> List[int]:
        """The daemon plus every shard worker."""
        assert self.process is not None
        return [self.process.pid] + children_of(self.process.pid)

    def signal_all(self, signum: int) -> None:
        for pid in self.pids():
            os.kill(pid, signum)

    def stop(self) -> None:
        """SIGTERM and wait; the router reaps its workers first."""
        if self.process is None or self.process.poll() is not None:
            return
        workers = children_of(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for pid in workers:
            # A worker the router failed to reap must not outlive us.
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            _wait_gone(pid)


def _wait_gone(pid: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            state = _stat_fields(pid)[0]
        except (OSError, IndexError):
            return
        if state == "Z":
            return  # reaped by init once its parent is gone
        time.sleep(0.01)


# -- the wire ------------------------------------------------------------------
class Connection:
    """A blocking Unix-socket connection counting bytes both ways."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = bytearray()
        self.bytes_out = 0
        self.bytes_in = 0

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self.sock.close()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)
        self.bytes_out += len(frame)

    def read_lines(self) -> List[bytes]:
        """One ``recv``; return every complete line now buffered."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.bytes_in += len(chunk)
        self.buffer += chunk
        lines = []
        while True:
            end = self.buffer.find(b"\n")
            if end < 0:
                return lines
            lines.append(bytes(self.buffer[: end + 1]))
            del self.buffer[: end + 1]

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Untimed set-up request; raises on an error envelope."""
        self.send(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        lines: List[bytes] = []
        while not lines:
            lines = self.read_lines()
        reply = json.loads(lines[0])
        if not reply.get("ok"):
            raise RuntimeError(f"{payload.get('type')} failed: {reply}")
        return reply


# -- the closed loop -----------------------------------------------------------
@dataclass
class Tally:
    """What a window saw: round trips by kind, ops, failures."""

    rtt_ns: Dict[str, List[int]] = field(default_factory=dict)
    requests: int = 0
    failed: int = 0
    heartbeats: int = 0
    lifecycles: int = 0
    #: Generator time spent checking replies and sending next frames.
    busy_ns: int = 0


@dataclass
class Outcome:
    """A whole drive: the window's tallies plus run-wide checks.

    ``slices`` splits the window into equal parts by completion time;
    ``probes`` holds the probe's reading at each slice edge.
    """

    window: Tally
    slices: List[Tally]
    start_ns: int
    end_ns: int
    sent_heartbeats: int = 0
    applied_heartbeats: int = 0
    failures: List[str] = field(default_factory=list)
    probes: List[Any] = field(default_factory=list)

    @property
    def window_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def slice_s(self) -> float:
        return self.window_s / len(self.slices)


def check_reply(kind: str, reply: Dict[str, Any], heartbeats: int) -> str:
    """Why a reply is wrong for its request ('' when it is right)."""
    if not reply.get("ok"):
        return f"{kind}: {reply.get('error')}"
    if kind == "step":
        if reply.get("killed") or "decision" not in reply:
            return "step: session killed"
        tier = reply["enforcement"]["tier"]
        return "" if tier == "nominal" else f"step: tier {tier}"
    if kind == "batch":
        results = reply.get("results", [])
        if reply.get("killed") or len(results) != heartbeats:
            return f"batch: {len(results)} of {heartbeats} applied"
        tiers = {entry["enforcement"]["tier"] for entry in results}
        return "" if tiers == {"nominal"} else f"batch: tiers {tiers}"
    if kind == "open":
        return "" if isinstance(reply.get("session"), str) else "open: no id"
    if kind == "snapshot":
        return "" if isinstance(reply.get("state"), dict) else "snapshot"
    if kind == "close":
        report = reply["report"]
        if report["hard_overdraft_j"] > 0.0:
            return f"close: overdraft {report['hard_overdraft_j']}"
        if report["steps"] != heartbeats:
            return f"close: {report['steps']} steps, sent {heartbeats}"
        return ""
    return ""


def drive(
    conns: List[Connection],
    scripts: List[Script],
    warmup_s: float,
    window_s: float,
    stop: List[bool],
    probe: Optional[Callable[[], Any]] = None,
    lockstep: bool = False,
    slices: int = 1,
) -> Outcome:
    """Run each script closed-loop on its connection.

    Requests are timed from the write to the end of the reply line.
    The window opens ``warmup_s`` after the start and lasts
    ``window_s``, cut into ``slices`` equal parts; a request counts
    toward the part in which its reply arrived, if it was sent inside
    the window.  ``probe()`` runs at every edge of every part (CPU
    readings).  When the window closes, ``stop[0]`` turns True and each
    script winds down on its own (finishing a lifecycle, say); those
    replies are still checked.  With ``lockstep`` the connections take
    strict turns, one request in flight at a time, so the daemon sees
    one fixed order.  The generator's own cost is ``Tally.busy_ns``:
    it polls its sockets without sleeping, so its process CPU is its
    whole CPU.
    """
    clock = time.perf_counter_ns
    selector = selectors.DefaultSelector()
    pending: Dict[int, Tuple[str, int, int]] = {}
    start_ns = clock() + int(warmup_s * 1e9)
    end_ns = start_ns + int(window_s * 1e9)
    part_ns = (end_ns - start_ns) // slices
    outcome = Outcome(
        Tally(), [Tally() for _ in range(slices)], start_ns, end_ns
    )
    edges = [start_ns + k * part_ns for k in range(slices)] + [end_ns]
    stop[0] = False
    saved: Dict[int, Dict[str, Any]] = {}
    rotation = list(range(len(conns)))

    def issue(index: int, reply: Optional[Dict[str, Any]]) -> bool:
        try:
            kind, frame, heartbeats = scripts[index].send(reply)
        except StopIteration:
            return False
        pending[index] = (kind, heartbeats, clock())
        conns[index].send(frame)
        if kind in ("step", "batch"):
            outcome.sent_heartbeats += heartbeats
        return True

    def next_turn() -> bool:
        while rotation:
            index = rotation.pop(0)
            if issue(index, saved.pop(index, None)):
                rotation.append(index)
                return True
        return False

    def count(tally: Tally, kind: str, rtt_ns: int, n: int, ok: bool) -> None:
        tally.requests += 1
        if not ok:
            tally.failed += 1
            return
        tally.rtt_ns.setdefault(kind, []).append(rtt_ns)
        if kind in ("step", "batch"):
            tally.heartbeats += n
        elif kind == "close":
            tally.lifecycles += 1

    for index, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, index)
    if lockstep:
        active = 1 if next_turn() else 0
    else:
        active = sum(issue(index, None) for index in range(len(conns)))
    while active:
        now = clock()
        while edges and now >= edges[0]:
            edges.pop(0)
            if probe is not None:
                outcome.probes.append(probe())
            stop[0] = not edges
        # Poll without sleeping: an idle vCPU wakes slowly, which put
        # milliseconds of wake-up latency into the round trips and kept
        # the daemon waiting on the generator.
        for key, _ in selector.select(0):
            index = key.data
            for line in conns[index].read_lines():
                done = clock()
                kind, heartbeats, sent = pending.pop(index)
                try:
                    reply = json.loads(line)
                    problem = check_reply(kind, reply, heartbeats)
                except (ValueError, KeyError, TypeError) as exc:
                    reply, problem = {}, f"{kind}: unparsable reply {exc}"
                if problem:
                    outcome.failures.append(problem)
                elif kind in ("step", "batch"):
                    outcome.applied_heartbeats += heartbeats
                part = None
                if sent >= start_ns and start_ns <= done < end_ns:
                    part = outcome.slices[min((done - start_ns) // part_ns, slices - 1)]
                    for tally in (outcome.window, part):
                        count(tally, kind, done - sent, heartbeats, not problem)
                if lockstep:
                    saved[index] = reply
                    active = 1 if next_turn() else 0
                elif not issue(index, reply):
                    active -= 1
                if part is not None:
                    busy = clock() - done
                    outcome.window.busy_ns += busy
                    part.busy_ns += busy
    selector.close()
    for _ in edges:
        if probe is not None:
            outcome.probes.append(probe())
    return outcome


# -- host fingerprint -----------------------------------------------------------
def fingerprint(root: Path, sut: Set[int], generator: Set[int]) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
        # A checkout without .git would report an enclosing repository.
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "REPRO_CONTRACTS": os.environ.get("REPRO_CONTRACTS", "<unset>"),
        "sut_cpus": sorted(sut),
        "generator_cpus": sorted(generator),
    }
