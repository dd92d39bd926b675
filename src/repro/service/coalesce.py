"""In-flight request coalescing.

N identical concurrent requests (same content key) should cost one
compile: the first becomes the *leader* and actually runs; the rest
become *followers* that await the leader's future and share its result
(or its exception — a failure is the result of that key, for everyone
who asked). The map only tracks in-flight work: once the leader
finishes, the next identical request starts fresh (and will typically
hit the artifact store instead).

Correlation: the leader's request ID is kept alongside its future, so
a follower's response (and log line) can carry ``leader_request_id`` —
the N coalesced requests are joinable on one key in the logs.

Single-event-loop discipline: all methods must be called from the
owning loop. ``has``/``join``/``lead`` are split (rather than one
``do``) so the server can make the admission-control decision between
them — a follower consumes no queue slot.

``leads`` and ``coalesced`` count this instance's leaders and followers
for the JSON ``/metrics`` body.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple


class Coalescer:
    """Single-flight execution keyed by content hash."""

    def __init__(self) -> None:
        self._inflight: Dict[
            str, Tuple[asyncio.Future, Optional[str]]
        ] = {}
        self.leads = 0
        self.coalesced = 0

    def has(self, key: str) -> bool:
        """Is a leader currently running this key?"""
        return key in self._inflight

    def leader_id(self, key: str) -> Optional[str]:
        """The in-flight leader's request ID, for follower linkage."""
        entry = self._inflight.get(key)
        return entry[1] if entry else None

    @property
    def depth(self) -> int:
        return len(self._inflight)

    async def join(self, key: str) -> Any:
        """Follow the in-flight leader for ``key``. The shield keeps a
        cancelled follower (dropped connection) from cancelling the
        shared future under everyone else."""
        self.coalesced += 1
        return await asyncio.shield(self._inflight[key][0])

    async def lead(
        self,
        key: str,
        thunk: Callable[[], Awaitable[Any]],
        request_id: Optional[str] = None,
    ) -> Any:
        """Run ``thunk`` as the leader for ``key``, publishing its
        outcome to every follower that joined meanwhile."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = (future, request_id)
        self.leads += 1
        try:
            result = await thunk()
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # Mark retrieved: with zero followers nobody awaits the
                # future, and an unretrieved exception would warn at GC.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result
        finally:
            del self._inflight[key]


__all__ = ["Coalescer"]
