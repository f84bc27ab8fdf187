"""Property tests for the length-prefixed frame transport.

The contract under test (see :mod:`repro.serving.transport`): well-formed
frames round-trip bitwise (floats travel as shortest round-tripping JSON),
and every malformed input — truncated, oversized, desynchronized,
non-JSON, or plain garbage — fails with a *named* ``TransportError``
subclass instead of hanging the reader.  Every receiving socket in these
tests carries a timeout, so a regression toward "hangs forever" fails the
test rather than the suite.
"""
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.serving.transport import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    FrameProtocolError,
    FrameTooLargeError,
    TransportError,
    TruncatedFrameError,
    encode_frame,
    recv_frame,
    send_frame,
    shard_for,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


def _random_payload(rng: np.random.Generator, depth: int = 0):
    """A random JSON-able value (nested dicts/lists/strings/numbers/null)."""
    kind = rng.integers(0, 6 if depth < 3 else 4)
    if kind == 0:
        return int(rng.integers(-(2**40), 2**40))
    if kind == 1:
        # Raw f64 bit patterns (finite only): the harshest round-trip test.
        while True:
            value = float(np.random.default_rng(int(rng.integers(2**32))).standard_normal() * 10 ** int(rng.integers(-30, 30)))
            if np.isfinite(value):
                return value
    if kind == 2:
        return "".join(chr(int(c)) for c in rng.integers(32, 0x2FFF, size=int(rng.integers(0, 40))))
    if kind == 3:
        return rng.random() < 0.5 or None
    if kind == 4:
        return [_random_payload(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    return {f"k{i}": _random_payload(rng, depth + 1) for i in range(int(rng.integers(0, 5)))}


class TestRoundTrip:
    def test_fuzzed_payloads_round_trip(self, pair):
        a, b = pair
        rng = np.random.default_rng(0)
        for _ in range(60):
            payload = {"body": _random_payload(rng), "id": int(rng.integers(0, 2**31))}
            send_frame(a, payload)
            assert recv_frame(b) == payload

    def test_f64_scores_cross_bitwise(self, pair):
        a, b = pair
        scores = np.random.default_rng(7).standard_normal(256)
        send_frame(a, {"scores": [float(s) for s in scores]})
        back = np.asarray(recv_frame(b)["scores"])
        assert np.array_equal(back, scores)  # exact, not approx

    def test_many_frames_in_flight_stay_ordered(self, pair):
        a, b = pair
        got = []
        reader = threading.Thread(
            target=lambda: got.extend(recv_frame(b)["seq"] for _ in range(100))
        )
        reader.start()  # drains concurrently: socketpair buffers are small
        for i in range(100):
            send_frame(a, {"seq": i})
        reader.join(timeout=5.0)
        assert got == list(range(100))

    def test_large_frame_under_cap(self, pair):
        a, b = pair
        payload = {"blob": "x" * 200_000}
        send_frame(a, payload)
        assert recv_frame(b) == payload


class TestNamedFailures:
    def test_send_rejects_oversized_payload(self, pair):
        a, _ = pair
        with pytest.raises(FrameTooLargeError):
            send_frame(a, {"blob": "x" * 64}, max_bytes=32)

    def test_recv_rejects_oversized_declared_length(self, pair):
        a, b = pair
        # Header declares more than the cap; recv must refuse *before*
        # trying to buffer the payload.
        a.sendall(struct.pack("!4sI", FRAME_MAGIC, MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameTooLargeError):
            recv_frame(b)

    @pytest.mark.parametrize("cut", [0, 1, 7])
    def test_truncated_header(self, pair, cut):
        a, b = pair
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[:cut])
        a.close()
        with pytest.raises(TruncatedFrameError):
            recv_frame(b)

    def test_truncated_payload(self, pair):
        a, b = pair
        frame = encode_frame({"op": "adapt", "indices": list(range(50))})
        a.sendall(frame[:-10])
        a.close()
        with pytest.raises(TruncatedFrameError):
            recv_frame(b)

    def test_peer_close_mid_stream_is_truncation_not_hang(self, pair):
        a, b = pair
        send_frame(a, {"ok": 1})
        a.sendall(b"\x00\x01")  # two stray bytes, then death
        a.close()
        assert recv_frame(b) == {"ok": 1}
        with pytest.raises(TruncatedFrameError):
            recv_frame(b)

    def test_bad_magic(self, pair):
        a, b = pair
        a.sendall(struct.pack("!4sI", b"HTTP", 4) + b"oops")
        with pytest.raises(FrameProtocolError, match="magic"):
            recv_frame(b)

    def test_non_json_payload(self, pair):
        a, b = pair
        junk = b"\xff\xfe not json"
        a.sendall(struct.pack("!4sI", FRAME_MAGIC, len(junk)) + junk)
        with pytest.raises(FrameProtocolError, match="JSON"):
            recv_frame(b)

    def test_interleaved_writes_desynchronize_loudly(self, pair):
        """A frame whose payload was interrupted by another frame: the
        reader consumes the interloper's bytes as payload (bad JSON), and
        the stream stays permanently desynced (bad magic) — both named."""
        a, b = pair
        good = encode_frame({"op": "adapt", "device": "fpga"})
        a.sendall(good[: len(good) // 2])
        a.sendall(encode_frame({"op": "ping"}))  # interleaved second frame
        a.sendall(encode_frame({"op": "ping"}))
        with pytest.raises(TransportError):
            recv_frame(b)

    def test_stalled_peer_times_out_instead_of_hanging(self, pair):
        a, b = pair
        b.settimeout(0.2)
        a.sendall(encode_frame({"op": "ping"})[:6])  # header never completes
        with pytest.raises(TimeoutError):
            recv_frame(b)

    def test_garbage_fuzz_never_hangs_or_crashes(self):
        """Random byte streams: recv must either decode a (miraculously)
        valid frame or raise a named TransportError / timeout — nothing
        else, and within the socket deadline."""
        rng = np.random.default_rng(42)
        for _ in range(80):
            a, b = socket.socketpair()
            try:
                b.settimeout(0.5)
                blob = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
                a.sendall(blob)
                if rng.random() < 0.5:
                    a.close()
                try:
                    recv_frame(b)
                except (TransportError, TimeoutError):
                    pass
            finally:
                a.close()
                b.close()


class TestShardHash:
    def test_deterministic_and_in_range(self):
        devices = [f"device-{i}" for i in range(200)]
        for n in (1, 2, 3, 4, 7):
            shards = [shard_for(d, n) for d in devices]
            assert shards == [shard_for(d, n) for d in devices]
            assert all(0 <= s < n for s in shards)

    def test_spreads_across_shards(self):
        from repro.hardware.registry import list_devices

        shards = {shard_for(d, 4) for d in list_devices()}
        assert shards == {0, 1, 2, 3}  # real device roster hits every shard

    def test_matches_across_processes(self):
        """crc32 is stable — unlike hash(), which is salted per process."""
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.serving.transport import shard_for;"
             "print([shard_for(f'device-{i}', 4) for i in range(32)])"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == [shard_for(f"device-{i}", 4) for i in range(32)]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for("fpga", 0)


class TestConcurrentReaderSafety:
    def test_reader_thread_survives_malformed_then_serves_next_connection(self):
        """The routing pattern: a reader loop that hits a malformed frame
        must surface the named error and move on, never wedge."""
        results = []

        def reader(sock):
            try:
                results.append(("ok", recv_frame(sock)))
            except TransportError as exc:
                results.append(("err", type(exc).__name__))

        for blob, expected in [
            (encode_frame({"fine": True}), ("ok", {"fine": True})),
            (struct.pack("!4sI", b"XXXX", 0), ("err", "FrameProtocolError")),
            (encode_frame({"x": 1})[:5], ("err", "TruncatedFrameError")),
        ]:
            a, b = socket.socketpair()
            b.settimeout(5.0)
            t = threading.Thread(target=reader, args=(b,))
            t.start()
            a.sendall(blob)
            a.close()
            t.join(timeout=5.0)
            assert not t.is_alive(), "reader thread hung on malformed frame"
            b.close()
        assert results == [
            ("ok", {"fine": True}),
            ("err", "FrameProtocolError"),
            ("err", "TruncatedFrameError"),
        ]
