"""Tests for the benchmark's closed-loop load generator."""

import random
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perf_loadgen import ClosedLoop, socket_loop  # noqa: E402


class FakeServer:
    """Completes each request on a worker thread after a random short delay,
    in an order unrelated to submission, and records any slot that was
    submitted while it still had a request in flight."""

    def __init__(self, fail_every: int = 0):
        self.lock = threading.Lock()
        self.in_flight: set[int] = set()
        self.violations: list[int] = []
        self.pending: list = []
        self.submitted = 0
        self.fail_every = fail_every
        self.stop = False
        self.worker = threading.Thread(target=self._run, daemon=True)
        self.worker.start()

    def submit(self, slot: int) -> Future:
        future: Future = Future()
        with self.lock:
            if slot in self.in_flight:
                self.violations.append(slot)
            self.in_flight.add(slot)
            self.submitted += 1
            self.pending.append((slot, future, self.submitted))
        return future

    def _run(self):
        rng = random.Random(0)
        while not self.stop:
            with self.lock:
                batch, self.pending = self.pending, []
            rng.shuffle(batch)
            for slot, future, number in batch:
                time.sleep(rng.random() * 1e-4)
                with self.lock:
                    self.in_flight.discard(slot)
                if self.fail_every and number % self.fail_every == 0:
                    future.set_exception(RuntimeError("injected"))
                else:
                    future.set_result(("action", slot))
            time.sleep(1e-4)

    def close(self):
        self.stop = True
        self.worker.join(timeout=5)


@pytest.fixture
def server():
    srv = FakeServer()
    yield srv
    srv.close()


def test_closed_loop_never_has_two_requests_in_flight_per_slot(server):
    loop = ClosedLoop(server.submit, lambda slot: slot, lambda slot, r: r == ("action", slot),
                      range(8))
    stats = loop.run(requests=2000)
    assert server.violations == []
    assert stats.completed == 2000 and stats.failed == 0
    assert len(stats.latencies_s) == 2000 and min(stats.latencies_s) >= 0
    assert loop.in_flight == {} and server.in_flight == set()


def test_closed_loop_by_time_drains_before_returning(server):
    loop = ClosedLoop(server.submit, lambda slot: slot, lambda slot, r: True, range(4))
    stats = loop.run(seconds=0.2)
    assert server.violations == []
    assert stats.completed == server.submitted > 0
    assert loop.in_flight == {}


def test_closed_loop_counts_failures_and_bad_results():
    srv = FakeServer(fail_every=5)
    try:
        loop = ClosedLoop(srv.submit, lambda slot: slot, lambda slot, r: slot != 0, range(4))
        stats = loop.run(requests=400)
    finally:
        srv.close()
    assert stats.completed + stats.failed == 400
    assert stats.failed >= 400 // 5
    assert srv.violations == []


def test_launch_refuses_a_second_request_for_a_busy_slot():
    loop = ClosedLoop(lambda r: Future(), lambda slot: slot, lambda slot, r: True, [0])
    import queue

    done = queue.SimpleQueue()
    loop._launch(0, done)
    with pytest.raises(RuntimeError, match="in flight"):
        loop._launch(0, done)


def test_run_needs_exactly_one_budget():
    loop = ClosedLoop(lambda r: Future(), lambda slot: slot, lambda slot, r: True, [0])
    with pytest.raises(ValueError):
        loop.run()
    with pytest.raises(ValueError):
        loop.run(requests=1, seconds=1.0)


def test_socket_loop_sends_its_budget():
    calls = []

    def act(request):
        calls.append(request)
        if len(calls) % 10 == 0:
            raise ConnectionError("dropped")
        return request

    stats = socket_loop(act, lambda slot: slot, lambda slot, r: r == slot, 3, 50)
    assert stats.completed + stats.failed == len(calls) == 50
    assert stats.failed == 5
    assert len(stats.latencies_s) == stats.completed
