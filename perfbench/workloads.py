"""What each workload sends: seeded inputs, frames, scripts and checks.

Every heartbeat stream and session spec is built from the workload
seed before the measured window opens, and frames are pre-encoded;
inside the window the generator only splices a session id and a
request id (``rid``, as a ``RetryPolicy`` client sends) into bytes it
already holds, so it does no model work there.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import build_application
from repro.fleet import (
    CohortHardwareModel,
    CohortSpec,
    ScalarSessionLoop,
    SessionPool,
    run_lockstep,
)
from repro.fleet.simulator import CohortScenario, FleetScenario
from repro.hw import GENERIC_PROFILE, get_machine
from repro.hw.vector import MachineTables
from repro.runtime.oracle import default_energy_per_work
from repro.service import SessionManager
from repro.service.protocol import decision_payload, measurement_from_payload

from load import Connection, Script, check_reply

#: The service cohorts: (machine, app), all at :data:`FACTOR`.
COHORTS = (
    ("tablet", "x264"),
    ("mobile", "swaptions"),
    ("server", "bodytrack"),
    ("tablet", "ferret"),
)
FACTOR = 1.2
#: Global budget handed to the daemon: far above what the sessions are
#: granted, so admission never refuses for budget.
BUDGET_J = 1e11
#: Work a long-lived session declares (heartbeats of one work unit).
LONG_WORK = 1e6
#: Work a churn session declares; it closes after 8 heartbeats.
CHURN_WORK = 64.0
CHURN_STEPS = 8
SID = b"@SID@"


def body(payload: Dict[str, Any]) -> bytes:
    """A request object's JSON without its closing brace."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()[:-1]


class Rids:
    """Request ids for one connection: ``<token><n>``, n counting up."""

    def __init__(self, token: str) -> None:
        self.prefix = b',"rid":"' + token.encode()
        self.next = 0

    def frame(self, head: bytes) -> bytes:
        self.next += 1
        return b"%s%s%d\"}\n" % (head, self.prefix, self.next)


def heartbeats(cohort: int, rng: random.Random, n: int) -> List[Dict[str, Any]]:
    """``n`` heartbeats spending 85-95% of the per-work budget.

    Below budget, no session leaves the nominal tier, so the ladder's
    throttle sleeps never enter the timings.
    """
    machine, app = COHORTS[cohort]
    application = build_application(app)
    per_work_j = (
        default_energy_per_work(get_machine(machine), application) / FACTOR
    )
    work = application.work_per_iteration
    slice_s = 0.05
    beats = []
    for _ in range(n):
        energy_j = per_work_j * work * rng.uniform(0.85, 0.95)
        beats.append(
            {
                "work": work,
                "energy_j": energy_j,
                "rate": work / slice_s,
                "power_w": energy_j / slice_s,
            }
        )
    return beats


def open_request(
    cohort: int, seed: int, total_work: float, client: str
) -> Dict[str, Any]:
    machine, app = COHORTS[cohort]
    return {
        "type": "open_session",
        "machine": machine,
        "app": app,
        "factor": FACTOR,
        "total_work": total_work,
        "seed": seed,
        "warm_start": True,
        "client": client,
    }


# -- (a) the lockstep spot check ------------------------------------------------
def spot_check(conn: Connection, seed: int, steps: int = 40) -> List[str]:
    """Drive one seeded session alone through the fresh daemon.

    Its decisions must equal, decision for decision, those of an
    in-process ``SessionManager`` with the same budget fed the same
    heartbeats.  Returns the mismatches (empty when equal).
    """
    request = open_request(0, seed, LONG_WORK, "perfbench-spot")
    beats = heartbeats(0, random.Random(f"spot-{seed}"), steps)
    reference = SessionManager(global_budget_j=BUDGET_J)
    session = reference.open_session(
        machine_name=request["machine"],
        app_name=request["app"],
        factor=FACTOR,
        total_work=LONG_WORK,
        seed=seed,
        warm_start=True,
        client=request["client"],
    )

    def wire(payload: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(json.dumps(payload))

    problems = []
    opened = conn.request(request)
    if opened["decision"] != wire(decision_payload(session.decision)):
        problems.append("open decision differs")
    sid = opened["session"]
    for index, beat in enumerate(beats):
        reply = conn.request({"type": "step", "session": sid, "measurement": beat})
        decision = reference.step(
            session.session_id, measurement_from_payload(beat)
        )
        expected = wire(decision_payload(decision))
        enforcement = wire(reference.enforcement_of(session.session_id))
        if reply["decision"] != expected or reply["enforcement"] != enforcement:
            problems.append(f"step {index}: decision differs")
    conn.request({"type": "close", "session": sid})
    return problems


# -- heartbeat / sharded_batch: long-lived sessions -------------------------------
@dataclass
class LiveSession:
    sid: str
    frames: List[bytes]
    sent: int = 0


def open_live(
    conn: Connection,
    conn_index: int,
    count: int,
    seed: int,
    batch: int,
) -> List[LiveSession]:
    """Open ``count`` sessions on ``conn``; pre-encode their frames.

    Heartbeat frames (``batch == 1``) cycle over 64 heartbeats per
    session; batch frames over two 128-heartbeat slices.
    """
    sessions = []
    for k in range(count):
        index = conn_index * count + k
        cohort = index % len(COHORTS)
        beats = heartbeats(
            cohort, random.Random(f"{seed}-{index}"), max(64, 2 * batch)
        )
        reply = conn.request(
            open_request(cohort, seed * 1000 + index, LONG_WORK, f"pb-c{conn_index}")
        )
        sid = reply["session"]
        if batch == 1:
            frames = [
                body({"type": "step", "session": sid, "measurement": beat})
                for beat in beats
            ]
        else:
            frames = [
                body(
                    {
                        "type": "batch_step",
                        "session": sid,
                        "measurements": beats[start : start + batch],
                    }
                )
                for start in range(0, len(beats), batch)
            ]
        sessions.append(LiveSession(sid, frames))
    return sessions


def live_script(
    sessions: List[LiveSession], rids: Rids, batch: int, stop: List[bool]
) -> Script:
    """Round-robin over the sessions, one frame per round trip."""
    kind = "step" if batch == 1 else "batch"
    lap = 0
    while True:
        for session in sessions:
            if stop[0]:
                return
            head = session.frames[lap % len(session.frames)]
            session.sent += batch
            yield kind, rids.frame(head), batch
        lap += 1


def close_live(conn: Connection, sessions: List[LiveSession]) -> List[str]:
    """Close each session; its report must show every heartbeat it was
    sent applied and no hard-tier overdraft."""
    problems = []
    for session in sessions:
        reply = conn.request({"type": "close", "session": session.sid})
        problem = check_reply("close", reply, session.sent)
        if problem:
            problems.append(f"{session.sid}: {problem}")
    return problems


# -- churn: the session lifecycle ---------------------------------------------------
@dataclass(frozen=True)
class Lifecycle:
    open: bytes
    steps: Tuple[bytes, ...]
    snapshot: bytes
    close: bytes


def lifecycles(conn_index: int, seed: int, count: int = 64) -> List[Lifecycle]:
    """``count`` lifecycle templates; the connection loops over them."""
    made = []
    for k in range(count):
        cohort = k % len(COHORTS)
        session_seed = seed * 100_000 + conn_index * 10_000 + k
        beats = heartbeats(
            cohort, random.Random(f"churn-{session_seed}"), CHURN_STEPS
        )
        placeholder = SID.decode()
        made.append(
            Lifecycle(
                open=body(
                    open_request(cohort, session_seed, CHURN_WORK, f"pb-c{conn_index}")
                ),
                steps=tuple(
                    body({"type": "step", "session": placeholder, "measurement": b})
                    for b in beats
                ),
                snapshot=body({"type": "snapshot", "session": placeholder}),
                close=body({"type": "close", "session": placeholder}),
            )
        )
    return made


def churn_script(
    templates: List[Lifecycle],
    rids: Rids,
    stop: List[bool],
    snapshot_bytes: Optional[List[int]] = None,
) -> Script:
    """open -> 8 heartbeats -> snapshot -> close, until stopped.

    A lifecycle under way when the window closes is finished, so every
    session ends with a checked close report.  ``snapshot_bytes``, when
    given, collects the size of each snapshot document as the store
    writes it (compact JSON).
    """
    index = 0
    while not stop[0]:
        template = templates[index % len(templates)]
        index += 1
        reply = yield "open", rids.frame(template.open), 0
        if not reply.get("ok"):
            continue
        sid = reply["session"].encode()
        for step in template.steps:
            yield "step", rids.frame(step.replace(SID, sid)), 1
        reply = yield "snapshot", rids.frame(template.snapshot.replace(SID, sid)), 0
        if snapshot_bytes is not None and reply.get("ok"):
            snapshot_bytes.append(
                len(json.dumps(reply["state"], separators=(",", ":")).encode())
            )
        yield "close", rids.frame(template.close.replace(SID, sid)), CHURN_STEPS


# -- fleet ------------------------------------------------------------------------
def fleet_scenario(seed: int) -> FleetScenario:
    """One large cohort (thousands of live rows), two small (tens).

    The cohorts carry the presets' runaway fractions, so the vector
    ladder kills sessions in every run.
    """
    runaway = {"runaway_waste": 25.0, "runaway_work_multiplier": 3.0}
    return FleetScenario(
        name="perfbench-fleet",
        cohorts=(
            CohortScenario(
                "tablet", "x264", weight=98.0, min_work=20.0, max_work=40.0,
                runaway_fraction=0.1, **runaway,
            ),
            CohortScenario(
                "mobile", "swaptions", weight=1.0, min_work=20.0,
                max_work=40.0, runaway_fraction=0.05, **runaway,
            ),
            CohortScenario(
                "server", "streamcluster", weight=1.0, min_work=80.0,
                max_work=160.0, runaway_fraction=0.02, runaway_waste=20.0,
                runaway_work_multiplier=3.0,
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


def fleet_spot_check(seed: int, n_sessions: int = 8, n_steps: int = 120) -> List[str]:
    """Exact-mode pool vs the scalar runtime + ladder, half runaway."""
    import numpy as np

    machine, app = get_machine("tablet"), build_application("x264")
    spec = CohortSpec.from_pair(machine, app)
    tables = MachineTables.build(machine, GENERIC_PROFILE)
    waste = np.ones(n_sessions)
    waste[n_sessions // 2 :] = 25.0
    model = CohortHardwareModel(tables, spec, n_sessions, waste=waste, seed=seed + 17)
    work = np.full(n_sessions, 40.0)
    seeds = np.arange(n_sessions, dtype=np.int64) * 13 + seed
    factors = np.linspace(1.2, 2.5, n_sessions)
    pool = SessionPool(spec, mode="exact")
    pool.open(work, seeds, factors=factors)
    loops = [
        ScalarSessionLoop(
            machine, app, float(work[i]), int(seeds[i]), factor=float(factors[i])
        )
        for i in range(n_sessions)
    ]
    return run_lockstep(pool, loops, model, n_steps)
