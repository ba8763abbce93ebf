"""Tests for the message bus, agent nodes and the async-stack primitives
(shared-memory parameter server, transition queue, RNG codec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    DistributedObservationService,
    MessageBus,
    OptionAnnouncement,
    ParameterServer,
    QueueClosed,
    RolloutPayload,
    ShmRingQueue,
    decode_rng_state,
    encode_rng_state,
    load_rng_state,
)


def announcement(sender: str, option: int = 0, timestamp: int = 0):
    return OptionAnnouncement(
        sender=sender, timestamp=timestamp, option=option, state=np.zeros(2)
    )


class TestMessageBus:
    def test_register_and_nodes(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        assert bus.nodes == ["a", "b"]

    def test_double_register_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(ValueError):
            bus.register("a")

    def test_unknown_recipient_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(KeyError):
            bus.send("ghost", announcement("a"))

    def test_zero_latency_delivers_next_step(self):
        bus = MessageBus(latency_steps=0)
        bus.register("a")
        bus.register("b")
        bus.send("b", announcement("a", option=2))
        assert bus.pending("b") == 0
        bus.step()
        messages = bus.receive("b")
        assert len(messages) == 1
        assert messages[0].option == 2

    def test_latency_delays_delivery(self):
        bus = MessageBus(latency_steps=3)
        bus.register("a")
        bus.register("b")
        bus.send("b", announcement("a"))
        for _ in range(3):
            assert bus.receive("b") == []
            bus.step()
        assert len(bus.receive("b")) == 1

    def test_broadcast_excludes_sender(self):
        bus = MessageBus()
        for node in ("a", "b", "c"):
            bus.register(node)
        bus.broadcast(announcement("a"))
        bus.step()
        assert bus.receive("a") == []
        assert len(bus.receive("b")) == 1
        assert len(bus.receive("c")) == 1

    def test_drop_probability_loses_messages(self):
        bus = MessageBus(drop_probability=0.5, seed=0)
        bus.register("a")
        bus.register("b")
        for _ in range(200):
            bus.send("b", announcement("a"))
        bus.step()
        received = len(bus.receive("b"))
        assert 60 < received < 140  # ~100 expected
        assert bus.stats()["dropped"] == 200 - received

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MessageBus(latency_steps=-1)
        with pytest.raises(ValueError):
            MessageBus(drop_probability=1.0)

    def test_messages_to_unregistered_node_vanish(self):
        bus = MessageBus(latency_steps=1)
        bus.register("a")
        bus.register("b")
        bus.send("b", announcement("a"))
        bus.unregister("b")
        bus.step()
        bus.step()
        assert bus.stats()["delivered"] == 0

    def test_fifo_order_preserved(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        for option in (1, 2, 3):
            bus.send("b", announcement("a", option=option))
        bus.step()
        options = [m.option for m in bus.receive("b")]
        assert options == [1, 2, 3]


class TestAgentNode:
    def test_exchange_updates_last_known(self):
        service = DistributedObservationService(["a", "b", "c"], latency_steps=0)
        service.exchange(
            {
                "a": (1, np.zeros(2)),
                "b": (3, np.zeros(2)),
                "c": (2, np.zeros(2)),
            },
            timestamp=0,
        )
        np.testing.assert_array_equal(service.observed_options("a"), [3, 2])
        np.testing.assert_array_equal(service.observed_options("b"), [1, 2])

    def test_latency_shows_stale_options(self):
        service = DistributedObservationService(["a", "b"], latency_steps=2)
        service.exchange({"a": (1, np.zeros(1)), "b": (2, np.zeros(1))}, 0)
        # Not yet delivered: defaults (0) still visible.
        np.testing.assert_array_equal(service.observed_options("a"), [0])
        service.exchange({"a": (1, np.zeros(1)), "b": (3, np.zeros(1))}, 1)
        service.exchange({"a": (1, np.zeros(1)), "b": (3, np.zeros(1))}, 2)
        # Now the first announcement (option 2) has arrived — stale by design.
        assert service.observed_options("a")[0] in (2, 3)

    def test_lossy_bus_keeps_last_known(self):
        service = DistributedObservationService(
            ["a", "b"], latency_steps=0, drop_probability=0.9, seed=3
        )
        for t in range(50):
            service.exchange({"a": (1, np.zeros(1)), "b": (2, np.zeros(1))}, t)
        # Even at 90% loss, some message got through eventually.
        assert service.observed_options("a")[0] == 2


class TestRngCodec:
    def test_roundtrip_preserves_stream(self):
        gen = np.random.default_rng(42)
        gen.uniform(size=17)  # advance off the seed state
        words = encode_rng_state(gen)
        expected = gen.uniform(size=5)  # consumes the encoded state

        fresh = np.random.default_rng(0)
        load_rng_state(fresh, words)
        np.testing.assert_array_equal(fresh.uniform(size=5), expected)

    def test_decode_matches_bit_generator_state(self):
        gen = np.random.default_rng(7)
        state = decode_rng_state(encode_rng_state(gen))
        assert state == gen.bit_generator.state

    def test_load_is_in_place(self):
        # Components share Generator objects (agent + opponent model), so
        # restoring state must not swap the Generator out from under them.
        gen = np.random.default_rng(1)
        alias = gen
        load_rng_state(gen, encode_rng_state(np.random.default_rng(2)))
        assert alias is gen
        np.testing.assert_array_equal(
            alias.uniform(size=3), np.random.default_rng(2).uniform(size=3)
        )

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            decode_rng_state(np.zeros(4, dtype=np.uint64))


class TestParameterServer:
    def test_publish_read_roundtrip(self):
        server = ParameterServer({"actor": 5, "critic": 3})
        try:
            assert server.version == -1
            vectors = {"actor": np.arange(5.0), "critic": np.ones(3)}
            assert server.publish(vectors) == 0
            version, read, _ = server.read()
            assert version == 0
            np.testing.assert_array_equal(read["actor"], np.arange(5.0))
            np.testing.assert_array_equal(read["critic"], np.ones(3))
        finally:
            server.release()

    def test_versions_increment_and_buffers_alternate(self):
        server = ParameterServer({"w": 2})
        try:
            for expected in range(4):
                assert server.publish({"w": np.full(2, float(expected))}) == expected
                version, read, _ = server.read(min_version=expected)
                assert version == expected
                np.testing.assert_array_equal(read["w"], np.full(2, float(expected)))
        finally:
            server.release()

    def test_read_returns_copies(self):
        server = ParameterServer({"w": 2})
        try:
            server.publish({"w": np.zeros(2)})
            _, read, _ = server.read()
            read["w"][:] = 99.0
            _, again, _ = server.read()
            np.testing.assert_array_equal(again["w"], np.zeros(2))
        finally:
            server.release()

    def test_read_times_out_without_version(self):
        server = ParameterServer({"w": 1})
        try:
            server.publish({"w": np.zeros(1)})
            with pytest.raises(TimeoutError):
                server.read(min_version=5, timeout=0.1)
        finally:
            server.release()

    def test_stop_interrupts_waiting_reader(self):
        server = ParameterServer({"w": 1})
        try:
            server.request_stop()
            with pytest.raises(RuntimeError, match="stopped"):
                server.read(min_version=0, timeout=5.0)
        finally:
            server.release()

    def test_read_poll_backs_off_and_checks_stop_and_abort_every_slice(
        self, monkeypatch
    ):
        """Waits start near-spin (0.1 ms) and double up to the 10 ms cap;
        every slice still polls the stop flag and the abort callback."""
        from repro.distributed import parameter_server

        server = ParameterServer({"w": 1})
        delays, abort_polls = [], []

        def fake_sleep(delay):
            delays.append(delay)
            if len(delays) == 12:
                server.request_stop()

        def abort():
            abort_polls.append(len(delays))
            return None

        monkeypatch.setattr(parameter_server.time, "sleep", fake_sleep)
        try:
            with pytest.raises(RuntimeError, match="stopped"):
                server.read(min_version=0, abort=abort)
            expected, delay = [], 1e-4
            for _ in range(12):
                expected.append(delay)
                delay = min(delay * 2.0, 0.01)
            assert delays == expected
            assert delays[0] == 1e-4 and max(delays) == 0.01
            # Abort was polled before every sleep; the stop set during the
            # 12th sleep is seen on the very next slice.
            assert abort_polls == list(range(12))
        finally:
            server.release()

    def test_rng_sidecar_roundtrip(self):
        server = ParameterServer({"w": 1}, num_rngs=2)
        try:
            words = np.stack(
                [
                    encode_rng_state(np.random.default_rng(3)),
                    encode_rng_state(np.random.default_rng(4)),
                ]
            )
            server.publish({"w": np.zeros(1)}, words)
            _, _, read_words = server.read()
            np.testing.assert_array_equal(read_words, words)
        finally:
            server.release()

    def test_missing_rng_sidecar_rejected(self):
        server = ParameterServer({"w": 1}, num_rngs=1)
        try:
            with pytest.raises(ValueError, match="RNG state"):
                server.publish({"w": np.zeros(1)})
        finally:
            server.release()

    def test_wrong_slot_keys_rejected(self):
        server = ParameterServer({"w": 1})
        try:
            with pytest.raises(ValueError):
                server.publish({"v": np.zeros(1)})
        finally:
            server.release()

    def test_wrong_slot_size_rejected(self):
        server = ParameterServer({"w": 2})
        try:
            with pytest.raises(ValueError):
                server.publish({"w": np.zeros(3)})
        finally:
            server.release()

    def test_pickled_handle_sees_publishes(self):
        import pickle

        server = ParameterServer({"w": 2})
        reader = None
        try:
            reader = pickle.loads(pickle.dumps(server))
            server.publish({"w": np.array([5.0, 6.0])})
            version, read, _ = reader.read()
            assert version == 0
            np.testing.assert_array_equal(read["w"], [5.0, 6.0])
        finally:
            if reader is not None:
                reader.release()
            server.release()


class TestShmRingQueue:
    def test_fifo_roundtrip(self):
        queue = ShmRingQueue(capacity=1 << 16)
        try:
            for i in range(5):
                queue.put({"index": i, "data": np.arange(i)})
            for i in range(5):
                frame = queue.get(timeout=1.0)
                assert frame["index"] == i
                np.testing.assert_array_equal(frame["data"], np.arange(i))
        finally:
            queue.release()

    def test_wraparound(self):
        # Capacity fits ~2 frames, so repeated put/get must wrap the ring.
        queue = ShmRingQueue(capacity=4096)
        try:
            payload = np.arange(128)
            for i in range(20):
                queue.put((i, payload))
                index, data = queue.get(timeout=1.0)
                assert index == i
                np.testing.assert_array_equal(data, payload)
            assert queue.qsize_bytes() == 0
        finally:
            queue.release()

    def test_oversized_frame_rejected(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(ValueError, match="exceeds queue capacity"):
                queue.put(np.zeros(10_000))
        finally:
            queue.release()

    def test_put_times_out_when_full(self):
        queue = ShmRingQueue(capacity=256)
        try:
            queue.put(b"x" * 150)
            with pytest.raises(TimeoutError):
                queue.put(b"y" * 150, timeout=0.2)
        finally:
            queue.release()

    def test_get_times_out_when_empty(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(TimeoutError):
                queue.get(timeout=0.2)
        finally:
            queue.release()

    def test_close_drains_then_raises(self):
        queue = ShmRingQueue(capacity=1 << 12)
        try:
            queue.put("last-frame")
            queue.close()
            with pytest.raises(QueueClosed):
                queue.put("rejected")
            assert queue.get(timeout=1.0) == "last-frame"
            with pytest.raises(QueueClosed):
                queue.get(timeout=1.0)
        finally:
            queue.release()

    def test_abort_callback_raises(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(RuntimeError, match="peer died"):
                queue.get(timeout=5.0, abort=lambda: "peer died")
        finally:
            queue.release()

    def test_payload_dataclass_roundtrip(self):
        queue = ShmRingQueue(capacity=1 << 12)
        try:
            sent = RolloutPayload(
                round_index=3,
                version_used=2,
                data={"stats": [1, 2]},
                rng_states=[encode_rng_state(np.random.default_rng(0))],
            )
            queue.put(sent)
            got = queue.get(timeout=1.0)
            assert got.round_index == 3
            assert got.version_used == 2
            assert got.data == {"stats": [1, 2]}
            np.testing.assert_array_equal(got.rng_states[0], sent.rng_states[0])
        finally:
            queue.release()


@settings(max_examples=25, deadline=None)
@given(
    latency=st.integers(0, 5),
    n_messages=st.integers(1, 20),
    seed=st.integers(0, 1000),
)
def test_property_lossless_bus_conserves_messages(latency, n_messages, seed):
    bus = MessageBus(latency_steps=latency, drop_probability=0.0, seed=seed)
    bus.register("a")
    bus.register("b")
    for i in range(n_messages):
        bus.send("b", announcement("a", option=i % 4))
    received = []
    for _ in range(latency + 1):
        bus.step()
        received.extend(bus.receive("b"))
    assert len(received) == n_messages


@settings(max_examples=25, deadline=None)
@given(drop=st.floats(0.0, 0.9), seed=st.integers(0, 1000))
def test_property_stats_balance(drop, seed):
    bus = MessageBus(drop_probability=drop, seed=seed)
    bus.register("a")
    bus.register("b")
    for _ in range(50):
        bus.send("b", announcement("a"))
    bus.step()
    bus.receive("b")
    stats = bus.stats()
    assert stats["sent"] == stats["dropped"] + stats["delivered"] + stats["in_flight"]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), draws=st.integers(0, 40))
def test_property_rng_codec_roundtrip(seed, draws):
    gen = np.random.default_rng(seed)
    gen.uniform(size=draws)
    words = encode_rng_state(gen)
    clone = np.random.default_rng(0)
    load_rng_state(clone, words)
    np.testing.assert_array_equal(
        clone.integers(0, 1 << 30, size=8), gen.integers(0, 1 << 30, size=8)
    )
