"""Idempotent request ids: one bounded cache of encoded replies.

A request carrying a ``rid`` executes at most once while its reply is
cached: a retry is answered from the cache, byte for byte, without
re-executing.  Error envelopes are never cached — a retry should
re-attempt the operation, since the failure may have been transient.

The single daemon (both dispatch paths) and the shard router share
this one implementation.  The cache keeps each reply as nothing but
the line that went on the wire (a replay re-reads its throttle from
it), bounded by :data:`RID_CACHE_MAX` entries, least recently used
evicted first — so its memory is at most that many replies of wire
size.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional

from .protocol import Reply

__all__ = ["RID_CACHE_MAX", "RidCache"]

#: Upper bound on cached idempotent replies (oldest evicted first).
RID_CACHE_MAX = 1024


class RidCache:
    """Replies by ``rid``, plus the reservations of in-flight rids."""

    def __init__(self) -> None:
        #: Requests answered from the cache or from an in-flight twin.
        self.replayed = 0
        #: Futures of rids whose first execution has not finished.
        self.inflight: Dict[str, "asyncio.Future[Reply]"] = {}
        self._lines: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, rid: object) -> bool:
        return rid in self._lines

    def lookup(self, rid: str) -> Optional[Reply]:
        """The cached reply for ``rid`` (counted as a replay), or None."""
        line = self._lines.get(rid)
        if line is None:
            return None
        self._lines.move_to_end(rid)
        self.replayed += 1
        return Reply.replay(line)

    def settle(
        self, rid: Optional[str], response: Mapping[str, Any]
    ) -> Reply:
        """Encode ``response`` once; cache it under ``rid`` if it is ok.

        The cached and the returned reply are the same bytes, and an
        ok reply to a rid'd request carries that ``rid``.
        """
        if rid is None or not response.get("ok", False):
            return Reply.of(response)
        reply = Reply.of({**response, "rid": rid})
        self._lines[rid] = reply.line
        self._lines.move_to_end(rid)
        if len(self._lines) > RID_CACHE_MAX:
            self._lines.popitem(last=False)
        return reply

    async def once(
        self, rid: str, execute: Callable[[], Awaitable[Reply]]
    ) -> Reply:
        """Run ``execute`` unless ``rid`` is cached or already running.

        For dispatch that suspends (the vector backend's gather window,
        the router's worker round trip), the cache alone cannot make a
        retry idempotent, so the rid is *reserved* before the first
        suspend: a concurrent retry awaits the original execution's
        reply instead of re-executing.  The reservation is dropped on
        every exit path, cancellation included, so an abandoned request
        never parks a rid forever.  A waiter woken by an abandoned
        original re-checks the cache and the reservations before
        executing: another parked retry may have re-reserved the rid
        first, and a second execution would double-step the session.
        """
        while True:
            cached = self.lookup(rid)
            if cached is not None:
                return cached
            inflight = self.inflight.get(rid)
            if inflight is None:
                # Reserve in the same step as the miss: no suspension
                # between them, so no other retry can slip in.
                future: "asyncio.Future[Reply]" = (
                    asyncio.get_running_loop().create_future()
                )
                self.inflight[rid] = future
                break
            self.replayed += 1
            try:
                return await asyncio.shield(inflight)
            except asyncio.CancelledError:
                if not inflight.cancelled():
                    raise  # this waiter was cancelled
                # The original was abandoned; loop to re-check.
        try:
            reply = await execute()
            if not future.done():
                future.set_result(reply)
            return reply
        finally:
            if self.inflight.get(rid) is future:
                del self.inflight[rid]
            if not future.done():
                # Cancelled mid-execution: wake any duplicate waiters
                # rather than leaving them parked forever.
                future.cancel()
