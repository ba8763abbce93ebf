"""Closed-loop load for the serving workload.

A closed loop sends a client's next request only after its previous one
returned, so each slot has at most one request in flight.  Two load loops:

* :class:`ClosedLoop` — many in-process clients on one generator thread,
  through ``PolicyServer.submit_async``.  Completion callbacks (run on the
  batcher's worker thread) only stamp the time and hand the slot back.
* :func:`socket_loop` — one blocking socket client, for a fixed number of
  requests.

Latency runs from just before submit to the completion stamp.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field


@dataclass
class LoopStats:
    """What one window of load produced."""

    completed: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    elapsed_s: float = 0.0


class ClosedLoop:
    """``slots`` closed-loop clients driven from the calling thread.

    ``submit(request) -> Future``; ``next_request(slot) -> request``;
    ``check(slot, result) -> bool`` validates a response.
    """

    def __init__(self, submit, next_request, check, slots, timeout_s: float = 30.0):
        self._submit = submit
        self._next_request = next_request
        self._check = check
        self.slots = list(slots)
        self.timeout_s = timeout_s
        self.in_flight: dict[int, float] = {}

    def _launch(self, slot: int, done: queue.SimpleQueue) -> None:
        if slot in self.in_flight:
            raise RuntimeError(f"slot {slot} already has a request in flight")
        request = self._next_request(slot)
        self.in_flight[slot] = time.perf_counter()
        future = self._submit(request)
        future.add_done_callback(
            lambda fut, slot=slot: done.put((slot, fut, time.perf_counter()))
        )

    def run(self, requests: int | None = None, seconds: float | None = None) -> LoopStats:
        """Send ``requests`` requests in all (or keep sending for ``seconds``),
        then drain: nothing is left in flight when this returns."""
        if (requests is None) == (seconds is None):
            raise ValueError("give exactly one of requests or seconds")
        stats = LoopStats()
        done: queue.SimpleQueue = queue.SimpleQueue()
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        sent = 0

        def more() -> bool:
            if deadline is not None:
                return time.perf_counter() < deadline
            return sent < requests

        for slot in self.slots:
            if not more():
                break
            self._launch(slot, done)
            sent += 1
        while self.in_flight:
            slot, future, t_done = done.get(timeout=self.timeout_s)
            t0 = self.in_flight.pop(slot)
            try:
                ok = bool(self._check(slot, future.result()))
            except Exception:  # a failed request is counted, not fatal
                ok = False
            if ok:
                stats.completed += 1
                stats.latencies_s.append(t_done - t0)
            else:
                stats.failed += 1
            if more():
                self._launch(slot, done)
                sent += 1
        stats.elapsed_s = time.perf_counter() - start
        return stats


def socket_loop(act, next_request, check, slot: int, requests: int) -> LoopStats:
    """One blocking client: ``act(request) -> result`` back to back, ``requests`` times."""
    stats = LoopStats()
    start = time.perf_counter()
    for _ in range(requests):
        request = next_request(slot)
        t0 = time.perf_counter()
        try:
            ok = bool(check(slot, act(request)))
        except Exception:  # a failed request is counted, not fatal
            ok = False
        t1 = time.perf_counter()
        if ok:
            stats.completed += 1
            stats.latencies_s.append(t1 - t0)
        else:
            stats.failed += 1
    stats.elapsed_s = time.perf_counter() - start
    return stats
