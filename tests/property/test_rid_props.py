"""Stateful property test of the idempotent-request cache.

:class:`~repro.service.rid.RidCache` carries the daemon's and the
router's ``rid`` contract.  The machine below drives it the way the
three dispatch paths do — synchronous ``lookup``/``settle`` and
suspending ``once`` calls whose executions hypothesis finishes, fails,
raises or cancels in any order — with a small cache cap, so least
recently used eviction is reached every few rules.  After every rule:

* a ``rid`` never has two executions in flight, and never executes
  while its reply is cached;
* error envelopes are never cached;
* every replay is byte-identical to the reply that was cached;
* the cache never holds more than its cap.
"""

import asyncio
from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service import rid as rid_module
from repro.service.rid import RidCache

CAP = 3
RIDS = st.sampled_from(("a", "b", "c", "d", "e"))
OUTCOMES = st.sampled_from(("ok", "error", "raise", "cancel"))


class Abandoned(RuntimeError):
    """An execution that failed before it could answer."""


class RidCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.saved_cap = rid_module.RID_CACHE_MAX
        rid_module.RID_CACHE_MAX = CAP
        self.loop = asyncio.new_event_loop()
        self.cache = RidCache()
        # The expected cache: rid -> line, least recently used first.
        self.model = OrderedDict()
        # Executions started but not finished: rid -> (gate, task).
        self.running = {}
        # Started ``once`` calls: (rid, task, line cached at start).
        self.calls = []
        self.seq = 0

    def teardown(self):
        # A waiter cancelled together with the execution it awaits
        # takes the rid over, so cancel until nothing is left.
        while asyncio.all_tasks(self.loop):
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
            self._spin()
        self.loop.close()
        rid_module.RID_CACHE_MAX = self.saved_cap

    # -- helpers ----------------------------------------------------------
    def _spin(self):
        for _ in range(8):
            self.loop.run_until_complete(asyncio.sleep(0))

    def _cached(self, rid, line):
        self.model[rid] = line
        self.model.move_to_end(rid)
        if len(self.model) > CAP:
            self.model.popitem(last=False)

    def _settle(self, rid, ok):
        self.seq += 1
        response = {"ok": ok, "seq": self.seq}
        if not ok:
            response["error"] = {"code": "internal", "message": "x"}
        reply = self.cache.settle(rid, response)
        if ok:
            self._cached(rid, reply.line)
        return reply

    def _execute(self, rid):
        async def execute():
            assert rid not in self.running, "two executions in flight"
            assert rid not in self.model, "executed while cached"
            gate = self.loop.create_future()
            self.running[rid] = (gate, asyncio.current_task())
            try:
                outcome = await gate
            finally:
                del self.running[rid]
            if outcome == "raise":
                raise Abandoned(rid)
            return self._settle(rid, outcome == "ok")

        return execute

    # -- the synchronous path ----------------------------------------------
    @rule(rid=RIDS)
    def lookup(self, rid):
        reply = self.cache.lookup(rid)
        if rid in self.model:
            assert reply is not None
            assert reply.line == self.model[rid]
            self.model.move_to_end(rid)
        else:
            assert reply is None

    @rule(rid=RIDS, ok=st.booleans())
    def settle(self, rid, ok):
        if rid in self.running:
            return  # the executing path owns this rid's settle
        reply = self._settle(rid, ok)
        assert reply["ok"] is ok
        if ok:
            assert reply["rid"] == rid

    # -- the suspending path -------------------------------------------------
    @rule(rid=RIDS)
    def once(self, rid):
        task = self.loop.create_task(
            self.cache.once(rid, self._execute(rid))
        )
        cached_line = self.model.get(rid)
        self.calls.append((rid, task, cached_line))
        self._spin()
        if cached_line is not None:
            self.model.move_to_end(rid)  # a hit is a use

    @precondition(lambda self: self.running)
    @rule(data=st.data(), outcome=OUTCOMES)
    def finish(self, data, outcome):
        rid = data.draw(st.sampled_from(sorted(self.running)))
        gate, task = self.running[rid]
        if outcome == "cancel":
            task.cancel()
        else:
            gate.set_result(outcome)
        self._spin()
        self._collect()

    @precondition(lambda self: self.calls)
    @rule(data=st.data())
    def cancel_caller(self, data):
        _, task, _ = data.draw(st.sampled_from(self.calls))
        task.cancel()
        self._spin()
        self._collect()

    def _collect(self):
        pending = []
        for rid, task, cached_line in self.calls:
            if not task.done():
                pending.append((rid, task, cached_line))
                continue
            if task.cancelled():
                continue
            error = task.exception()
            if error is not None:
                assert isinstance(error, Abandoned)
                continue
            reply = task.result()
            if cached_line is not None:
                # A hit at call time replays the cached bytes.
                assert reply.line == cached_line
            if reply["ok"]:
                assert reply["rid"] == rid
        self.calls = pending

    # -- invariants --------------------------------------------------------
    @invariant()
    def bounded(self):
        assert len(self.cache) <= CAP

    @invariant()
    def matches_model(self):
        assert len(self.cache) == len(self.model)
        for rid in ("a", "b", "c", "d", "e"):
            assert (rid in self.cache) == (rid in self.model)


TestRidCacheMachine = RidCacheMachine.TestCase
TestRidCacheMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_the_real_cap_evicts_the_least_recently_used():
    cache = RidCache()
    cap = rid_module.RID_CACHE_MAX
    for n in range(cap + 5):
        cache.settle(f"r{n}", {"ok": True, "n": n})
        assert len(cache) <= cap
    assert len(cache) == cap
    assert "r4" not in cache and "r5" in cache
    assert cache.lookup(f"r{cap + 4}")["n"] == cap + 4


def test_error_envelopes_are_not_cached():
    cache = RidCache()
    reply = cache.settle("r", {"ok": False, "error": {"code": "internal"}})
    assert reply["ok"] is False
    assert "r" not in cache
    assert cache.lookup("r") is None
