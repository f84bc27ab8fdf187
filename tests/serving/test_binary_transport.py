"""Property tests for the RSF2 binary frame codec.

The contract (see :mod:`repro.serving.transport`): predict requests and
score replies cross the wire as raw little-endian numpy buffers and
round-trip **bitwise** (f64 and f32 alike); every malformed shape —
truncated array bytes, trailing garbage, unknown dtype tag or kind,
oversize, byte-order abuse — fails with a *named* ``TransportError``
within the socket deadline; and the one frame reader demultiplexes RSF1
JSON and RSF2 binary frames off the same stream.
"""
import socket
import struct

import numpy as np
import pytest

from repro.serving.transport import (
    BIN_PREDICT,
    BIN_SCORES,
    FRAME_MAGIC2,
    MAX_FRAME_BYTES,
    BinaryMessage,
    FrameProtocolError,
    FrameTooLargeError,
    TransportError,
    TruncatedFrameError,
    _BIN_HEADER,
    _HEADER,
    decode_binary_payload,
    encode_binary_frame,
    recv_frame,
    send_binary_frame,
    send_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestRoundTrip:
    def test_predict_request_round_trips(self, pair):
        a, b = pair
        idx = np.random.default_rng(0).integers(0, 10**6, size=257)
        send_binary_frame(a, BIN_PREDICT, 41, idx, device="raspi4")
        msg = recv_frame(b)
        assert isinstance(msg, BinaryMessage)
        assert (msg.kind, msg.request_id, msg.device) == (BIN_PREDICT, 41, "raspi4")
        assert msg.array.dtype == np.int64
        np.testing.assert_array_equal(msg.array, idx)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scores_cross_bitwise(self, pair, dtype):
        a, b = pair
        scores = np.random.default_rng(7).standard_normal(300).astype(dtype)
        send_binary_frame(a, BIN_SCORES, 9, scores)
        msg = recv_frame(b)
        assert msg.array.dtype == dtype
        # Bitwise, not allclose: the binary wire's whole point.
        assert msg.array.tobytes() == scores.tobytes()

    def test_empty_array(self, pair):
        a, b = pair
        send_binary_frame(a, BIN_SCORES, 1, np.empty(0))
        msg = recv_frame(b)
        assert msg.array.size == 0 and msg.array.dtype == np.float64

    def test_unicode_device_name(self, pair):
        a, b = pair
        send_binary_frame(a, BIN_PREDICT, 2, np.arange(4), device="gpu-β/0")
        msg = recv_frame(b)
        assert msg.device == "gpu-β/0"

    def test_big_endian_input_is_normalized(self):
        scores = np.arange(8, dtype=">f8")  # big-endian source array
        frame = encode_binary_frame(BIN_SCORES, 3, scores)
        msg = decode_binary_payload(frame[_HEADER.size :])
        np.testing.assert_array_equal(msg.array, scores.astype("<f8"))

    def test_mixed_json_and_binary_frames_one_stream(self, pair):
        a, b = pair
        send_frame(a, {"op": "ping", "id": 1})
        send_binary_frame(a, BIN_PREDICT, 2, np.arange(6), device="fpga")
        send_frame(a, {"op": "metrics", "id": 3})
        first, second, third = (recv_frame(b) for _ in range(3))
        assert first == {"op": "ping", "id": 1}
        assert isinstance(second, BinaryMessage) and second.device == "fpga"
        assert third == {"op": "metrics", "id": 3}

    def test_each_frame_decodes_into_its_own_buffer(self, pair):
        a, b = pair
        send_binary_frame(a, BIN_SCORES, 1, np.full(16, 1.5))
        first = recv_frame(b)
        send_binary_frame(a, BIN_SCORES, 2, np.full(16, -2.5))
        recv_frame(b)
        np.testing.assert_array_equal(first.array, np.full(16, 1.5))


class TestNamedFailures:
    def _frame(self, payload: bytes) -> bytes:
        return _HEADER.pack(FRAME_MAGIC2, len(payload)) + payload

    def test_truncated_array_bytes(self, pair):
        a, b = pair
        frame = encode_binary_frame(BIN_SCORES, 5, np.arange(32, dtype=np.float64))
        a.sendall(frame[:-16])
        a.close()
        with pytest.raises(TruncatedFrameError):
            recv_frame(b)

    def test_payload_shorter_than_declared_array(self, pair):
        # Outer length is consistent, but the binary header promises more
        # elements than the payload holds: named, not a buffer over-read.
        a, b = pair
        payload = _BIN_HEADER.pack(BIN_SCORES, 1, 0, 7, 100) + b"\x00" * 24
        a.sendall(self._frame(payload))
        with pytest.raises(FrameProtocolError, match="truncated array|declares"):
            recv_frame(b)

    def test_garbage_after_header(self, pair):
        a, b = pair
        good = encode_binary_frame(BIN_SCORES, 1, np.arange(4, dtype=np.float64))
        payload = good[_HEADER.size :] + b"JUNK"
        a.sendall(self._frame(payload))
        with pytest.raises(FrameProtocolError, match="trailing garbage|declares"):
            recv_frame(b)

    def test_unknown_dtype_tag(self, pair):
        a, b = pair
        payload = _BIN_HEADER.pack(BIN_SCORES, 99, 0, 7, 0)
        a.sendall(self._frame(payload))
        with pytest.raises(FrameProtocolError, match="dtype tag"):
            recv_frame(b)

    def test_unknown_kind(self, pair):
        a, b = pair
        payload = _BIN_HEADER.pack(77, 1, 0, 7, 0)
        a.sendall(self._frame(payload))
        with pytest.raises(FrameProtocolError, match="kind"):
            recv_frame(b)

    def test_payload_shorter_than_binary_header(self, pair):
        a, b = pair
        a.sendall(self._frame(b"\x01\x01"))
        with pytest.raises(FrameProtocolError):
            recv_frame(b)

    def test_oversize_declared_length_refused_before_buffering(self, pair):
        a, b = pair
        a.sendall(_HEADER.pack(FRAME_MAGIC2, MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameTooLargeError):
            recv_frame(b)

    def test_encode_rejects_oversize(self):
        with pytest.raises(FrameTooLargeError):
            encode_binary_frame(BIN_SCORES, 1, np.zeros(64), max_bytes=64)

    def test_encode_rejects_unsupported_dtype(self):
        with pytest.raises(FrameProtocolError, match="wire tag"):
            encode_binary_frame(BIN_SCORES, 1, np.zeros(4, dtype=np.complex128))

    def test_non_utf8_device_name(self, pair):
        a, b = pair
        payload = _BIN_HEADER.pack(BIN_PREDICT, 0, 2, 1, 0) + b"\xff\xfe"
        a.sendall(self._frame(payload))
        with pytest.raises(FrameProtocolError, match="UTF-8"):
            recv_frame(b)

    def test_stalled_peer_times_out_within_deadline(self, pair):
        a, b = pair
        b.settimeout(0.2)
        frame = encode_binary_frame(BIN_SCORES, 1, np.arange(8, dtype=np.float64))
        a.sendall(frame[:12])  # binary payload never completes
        with pytest.raises(TimeoutError):
            recv_frame(b)

    def test_garbage_fuzz_never_hangs_or_crashes(self):
        """Random byte streams against the frame reader: a named
        TransportError or timeout within the deadline, nothing else."""
        rng = np.random.default_rng(1234)
        for trial in range(80):
            a, b = socket.socketpair()
            try:
                b.settimeout(0.5)
                blob = rng.integers(0, 256, size=int(rng.integers(0, 96)), dtype=np.uint8).tobytes()
                if trial % 3 == 0:  # bias toward almost-valid binary frames
                    blob = _HEADER.pack(FRAME_MAGIC2, int(rng.integers(0, 64))) + blob
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


class TestWireLayout:
    def test_header_layout_is_pinned(self):
        """The wire format is an ABI: kind u8, dtype tag u8, device-len u16,
        request-id u32, element-count u32 — all little-endian."""
        assert _BIN_HEADER.format == "<BBHII"
        frame = encode_binary_frame(BIN_PREDICT, 0x01020304, np.arange(2), device="ab")
        magic, length = _HEADER.unpack(frame[: _HEADER.size])
        assert magic == FRAME_MAGIC2
        assert length == len(frame) - _HEADER.size
        kind, tag, dlen, rid, count = _BIN_HEADER.unpack_from(frame, _HEADER.size)
        assert (kind, tag, dlen, rid, count) == (BIN_PREDICT, 0, 2, 0x01020304, 2)
        body = frame[_HEADER.size + _BIN_HEADER.size :]
        assert body[:2] == b"ab"
        assert body[2:] == np.arange(2, dtype="<i8").tobytes()

    def test_i64_f64_f32_tags(self):
        tags = {}
        for dtype in (np.int64, np.float64, np.float32):
            frame = encode_binary_frame(BIN_SCORES, 1, np.zeros(1, dtype=dtype))
            tags[np.dtype(dtype).str] = struct.unpack_from("<BB", frame, _HEADER.size)[1]
        assert tags == {"<i8": 0, "<f8": 1, "<f4": 2}
