"""Length-prefixed frame transport for router <-> worker IPC.

The worker pool speaks a deliberately tiny wire protocol over stream
sockets (``socketpair`` between the router and each worker process): every
message is one *frame* —

::

    +----------+----------------+------------------+
    | magic    | payload length | payload          |
    | 4 bytes  | 4 bytes, BE    | codec per magic  |
    +----------+----------------+------------------+

and the magic names the payload's codec.  ``RSF1`` frames carry UTF-8
JSON: every control message (ready handshake, adapt, readapt, metrics,
ping, sleep, shutdown) and every error reply.  ``RSF2`` frames carry the
predict traffic (an i64 index buffer in, a raw f64/f32 score buffer out),
so a score crosses the process boundary **bitwise**, with no
float -> decimal -> float round trip.  Both ends are always the same build
(workers are forked from the router), so there is nothing to negotiate.

Failure behavior is the contract here, not a detail.  A reader must never
hang on a malformed frame and must never mistake one failure for another,
so every way a frame can be bad has a *named* error:

* :class:`TruncatedFrameError` — the peer closed (or the stream ended) mid
  frame.  This is how a SIGKILL'd worker announces itself to the router.
* :class:`FrameTooLargeError` — declared payload length exceeds the cap;
  raised *before* reading (or sending) the payload, so a corrupt length
  can't make the reader try to buffer gigabytes.
* :class:`FrameProtocolError` — bad magic (stream desync, e.g. after
  interleaved writes), a payload that is not valid JSON, or a malformed
  binary payload.

All three subclass :class:`TransportError`.  Socket timeouts propagate as
``socket.timeout`` (``TimeoutError``) — a slow peer is the caller's policy
decision, not a protocol violation.
"""
from __future__ import annotations

import json
import socket
import struct
import zlib
from dataclasses import dataclass

import numpy as np

#: Frame magic of a JSON control frame ("Repro Serving Frame", revision 1).
#: A reader that sees neither magic is desynchronized and must drop the
#: connection.
FRAME_MAGIC = b"RSF1"

#: Frame magic of a binary predict frame: a struct-packed header plus a raw
#: little-endian numpy payload.
FRAME_MAGIC2 = b"RSF2"

_HEADER = struct.Struct("!4sI")  # magic + unsigned big-endian payload length

#: Default cap on a single frame's payload.  Generous for this protocol
#: (a 4096-index predict request is 32 KB) while keeping a corrupt length
#: prefix from turning into an unbounded buffer.
MAX_FRAME_BYTES = 16 << 20


class TransportError(RuntimeError):
    """Base class for frame-protocol failures."""


class TruncatedFrameError(TransportError):
    """The stream ended before a complete frame arrived (peer died/closed)."""


class FrameTooLargeError(TransportError):
    """A frame declared (or would need) a payload above the size cap."""


class FrameProtocolError(TransportError):
    """The stream is not speaking this protocol (bad magic / bad JSON /
    malformed binary payload)."""


def shard_for(device: str, n_shards: int) -> int:
    """Stable shard index for ``device`` — crc32, identical across processes
    and Python runs (unlike ``hash``, which is salted per process)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(device.encode()) % n_shards


def encode_frame(obj, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message to its wire bytes (header + JSON payload)."""
    payload = json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()
    if len(payload) > max_bytes:
        raise FrameTooLargeError(
            f"frame payload is {len(payload)} bytes; cap is {max_bytes}"
        )
    return _HEADER.pack(FRAME_MAGIC, len(payload)) + payload


def send_frame(sock: socket.socket, obj, max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Write one frame to ``sock`` (blocking, honors the socket timeout)."""
    sock.sendall(encode_frame(obj, max_bytes))


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into a fresh buffer or raise
    :class:`TruncatedFrameError`.

    ``recv_into`` returning 0 means the peer is gone; a loop that ignored
    it would spin forever — the "reader thread hangs on a dead worker"
    failure mode this module exists to rule out.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        chunk = sock.recv_into(view[got:], n - got)
        if not chunk:
            raise TruncatedFrameError(
                f"stream ended after {got} of {n} expected bytes"
            )
        got += chunk
    return buf


def recv_frame(sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES):
    """Read one frame from ``sock`` and return the decoded message.

    An RSF1 frame returns its JSON value; an RSF2 frame returns a
    :class:`BinaryMessage` whose array views the frame's own buffer, so it
    stays valid after later reads.  Raises the named
    :class:`TransportError` subclasses on malformed input and
    ``socket.timeout`` if the socket has a timeout and the peer stalls.
    """
    magic, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic not in (FRAME_MAGIC, FRAME_MAGIC2):
        raise FrameProtocolError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r} or "
            f"{FRAME_MAGIC2!r}); stream is desynchronized"
        )
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame declares a {length}-byte payload; cap is {max_bytes}"
        )
    payload = _recv_exact(sock, length)
    if magic == FRAME_MAGIC2:
        return decode_binary_payload(payload)
    try:
        return json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FrameProtocolError(f"frame payload is not valid JSON: {exc}") from None


# --------------------------------------------------------------------------
# RSF2: binary data-plane frames
#
#     +----------+----------------+--------------------------------------+
#     | "RSF2"   | payload length | kind | dtype | dev len | id | count  |
#     | 4 bytes  | 4 bytes, BE    | u8   | u8    | u16     | u32 | u32   |  <- _BIN_HEADER, LE
#     +----------+----------------+--------------------------------------+
#                                 | device (UTF-8) | raw LE array bytes  |
#                                 +----------------+---------------------+
#
# The outer (magic, length) prefix is shared with RSF1, so one reader
# demultiplexes both from the same stream.  Array bytes are the native
# little-endian buffer: no per-element decode.

#: Binary message kinds.
BIN_PREDICT = 1  # router -> worker: device + i64 architecture indices
BIN_SCORES = 2  # worker -> router: f64/f32 score buffer

_BIN_HEADER = struct.Struct("<BBHII")  # kind, dtype tag, device len, request id, element count

#: Wire dtype tags.  Explicitly little-endian: the tag names the byte
#: order, not the host's, so a big-endian peer converts rather than
#: corrupts.
_TAG_TO_DTYPE = {
    0: np.dtype("<i8"),
    1: np.dtype("<f8"),
    2: np.dtype("<f4"),
}
_KIND_NAMES = {BIN_PREDICT: "predict", BIN_SCORES: "scores"}


def _wire_tag(dtype: np.dtype) -> int:
    for tag, wire in _TAG_TO_DTYPE.items():
        if wire == dtype.newbyteorder("<"):
            return tag
    raise FrameProtocolError(
        f"dtype {dtype} has no RSF2 wire tag (supported: i8/f8/f4)"
    )


@dataclass(frozen=True)
class BinaryMessage:
    """One decoded RSF2 frame.  ``array`` is a view over the frame's
    payload buffer."""

    kind: int
    request_id: int
    device: str
    array: np.ndarray


def encode_binary_frame(
    kind: int,
    request_id: int,
    array: np.ndarray,
    device: str = "",
    max_bytes: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one RSF2 message to its wire bytes."""
    if kind not in _KIND_NAMES:
        raise FrameProtocolError(f"unknown binary message kind {kind}")
    arr = np.asarray(array)
    if arr.ndim != 1:
        arr = arr.ravel()
    tag = _wire_tag(arr.dtype)
    wire = np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[tag])
    device_b = device.encode()
    if len(device_b) > 0xFFFF:
        raise FrameProtocolError(f"device name is {len(device_b)} bytes; cap is 65535")
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise FrameProtocolError(f"request id {request_id} out of u32 range")
    if wire.size > 0xFFFFFFFF:
        raise FrameTooLargeError(f"array has {wire.size} elements; cap is u32")
    payload_len = _BIN_HEADER.size + len(device_b) + wire.nbytes
    if payload_len > max_bytes:
        raise FrameTooLargeError(
            f"frame payload is {payload_len} bytes; cap is {max_bytes}"
        )
    return b"".join(
        (
            _HEADER.pack(FRAME_MAGIC2, payload_len),
            _BIN_HEADER.pack(kind, tag, len(device_b), request_id, wire.size),
            device_b,
            wire.tobytes(),
        )
    )


def send_binary_frame(
    sock: socket.socket,
    kind: int,
    request_id: int,
    array: np.ndarray,
    device: str = "",
    max_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Write one RSF2 frame to ``sock`` (blocking, honors the socket timeout)."""
    sock.sendall(encode_binary_frame(kind, request_id, array, device, max_bytes))


def decode_binary_payload(payload) -> BinaryMessage:
    """Decode one RSF2 payload (everything after the outer header).

    ``payload`` is any bytes-like object; the returned array is a
    zero-copy view over it.  Every malformed shape has a named error:
    short header, unknown kind, unknown dtype tag, and any length mismatch
    (truncated array or trailing garbage) all raise
    :class:`FrameProtocolError` immediately — never a hang, never a
    silently wrong array.
    """
    view = memoryview(payload)
    if len(view) < _BIN_HEADER.size:
        raise FrameProtocolError(
            f"binary payload is {len(view)} bytes; header alone is {_BIN_HEADER.size}"
        )
    kind, tag, device_len, request_id, count = _BIN_HEADER.unpack_from(view)
    if kind not in _KIND_NAMES:
        raise FrameProtocolError(f"unknown binary message kind {kind}")
    wire_dtype = _TAG_TO_DTYPE.get(tag)
    if wire_dtype is None:
        raise FrameProtocolError(
            f"unknown dtype tag {tag} (supported: 0=i8, 1=f8, 2=f4)"
        )
    expected = _BIN_HEADER.size + device_len + count * wire_dtype.itemsize
    if len(view) != expected:
        raise FrameProtocolError(
            f"binary payload is {len(view)} bytes but the header declares "
            f"{expected} (truncated array or trailing garbage)"
        )
    try:
        device = bytes(view[_BIN_HEADER.size : _BIN_HEADER.size + device_len]).decode()
    except UnicodeDecodeError as exc:
        raise FrameProtocolError(f"device name is not valid UTF-8: {exc}") from None
    array = np.frombuffer(
        view, dtype=wire_dtype, count=count, offset=_BIN_HEADER.size + device_len
    )
    return BinaryMessage(kind=kind, request_id=request_id, device=device, array=array)
