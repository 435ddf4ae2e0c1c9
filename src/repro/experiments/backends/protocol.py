"""Wire protocol for the remote sweep fabric.

One frame = one message, length-prefixed over a stream socket, in one
revision (CFW2)::

    | 4-byte magic b"CFW2" | >B codec | >I body length | body |

where the body is ``pickle((kind, payload))`` — ``kind`` a short
string, ``payload`` a dict — run through the frame's codec (``0`` =
raw, ``1`` = zlib, ``2`` = zstd). An uncompressed channel sends every
frame raw (codec id 0). Small frames ship raw even on a compressed
channel (compression below :data:`COMPRESS_MIN_BYTES` costs more than
it saves), so heartbeats stay a handful of bytes. Any other magic is a
:class:`ProtocolError`.

The conversation:

========== =========== ====================================================
kind       direction   payload
========== =========== ====================================================
hello      worker → s  ``worker`` id, ``pid``, ``version``, ``slots``,
                       ``wire`` (must equal :data:`WIRE_REVISION`),
                       ``codecs`` the worker can decode
hello      s → worker  the acknowledgement: the negotiated
                       ``codec`` (both directions), the scheduler's
                       ``codecs``, ``wire``, and ``heartbeat_s`` — the
                       interval at which the scheduler promises to
                       pulse, arming the worker's scheduler-silence
                       deadline.
task       s → worker  ``tid``, ``index``, ``task`` (SweepTask), ``scale``,
                       ``seed``, ``capture``, ``digest`` (content
                       address, or None when uncached), ``have`` (the
                       scheduler's store already holds this digest's
                       blob — a hash-only ``cached`` reply suffices)
result     worker → s  ``tid``, ``index``, ``payload`` = the
                       ``execute_task`` tuple — data, metrics snapshot,
                       trace events, elapsed (the result blob the
                       scheduler writes through the shared cache)
cached     worker → s  ``tid``, ``index``, ``digest`` — the worker
                       confirms the task without shipping the blob;
                       the scheduler serves it from its own store
error      worker → s  ``tid``, ``index``, ``kind`` (taxonomy), ``message``
heartbeat  either      (empty) — worker → scheduler liveness while a
                       long task runs; scheduler → worker the promised
                       pulse behind the silence deadline
bye        either      polite close (a worker serving ``--listen`` goes
                       back to accepting; ``--once`` exits)
========== =========== ====================================================

Unknown kinds are ignored by both sides. A hello whose ``wire`` is not
:data:`WIRE_REVISION` (or that has none) is refused by the scheduler,
the same way version skew is.

Frames are pickled, so the fabric assumes *mutual trust*: anything that
can connect to the scheduler's listen port (or that a worker dials) can
execute code on the other side. Bind to loopback, a private network, or
tunnel over SSH — never a public interface.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import zlib
from typing import Any, Optional

MAGIC = b"CFW2"
_HEADER = struct.Struct(">4sBI")

#: Current protocol revision advertised in hellos.
WIRE_REVISION = 2

#: Refuse frames over this size — a corrupt header read as a length
#: must not trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 30

#: Frames smaller than this ship raw even on a compressed channel:
#: zlib on a 100-byte heartbeat costs CPU to *grow* the frame.
COMPRESS_MIN_BYTES = 512

try:  # pragma: no cover - exercised only where zstandard is installed
    import zstandard as _zstd
except ImportError:
    _zstd = None


class ProtocolError(RuntimeError):
    """A malformed frame (bad magic, oversized length, torn pickle)."""


def _inflate_zlib(blob: bytes, limit: int) -> bytes:
    """Decompress a zlib body, never producing more than ``limit + 1``
    bytes: a small bomb frame must not allocate its full inflated size
    before the size check."""
    d = zlib.decompressobj()
    out = d.decompress(blob, limit + 1)
    if len(out) > limit:
        raise ProtocolError(f"frame decompresses to over {limit} bytes")
    if d.unconsumed_tail or d.unused_data or not d.eof:
        raise ProtocolError("zlib frame body is truncated or has "
                            "trailing bytes")
    return out


def _inflate_zstd(blob: bytes,
                  limit: int) -> bytes:  # pragma: no cover - optional
    """The zstd twin of :func:`_inflate_zlib`: a bounded streaming read."""
    with _zstd.ZstdDecompressor().stream_reader(blob) as reader:
        out = reader.read(limit + 1)
    if len(out) > limit:
        raise ProtocolError(f"frame decompresses to over {limit} bytes")
    return out


#: codec name -> (frame codec id, compress, bounded decompress). Order
#: is preference order for negotiation (best first).
_CODECS: dict[str, tuple] = {}
if _zstd is not None:  # pragma: no cover - optional dependency
    _CODECS["zstd"] = (2,
                       lambda b: _zstd.ZstdCompressor().compress(b),
                       _inflate_zstd)
_CODECS["zlib"] = (1, lambda b: zlib.compress(b, 6), _inflate_zlib)

_CODEC_BY_ID = {cid: (name, comp, decomp)
                for name, (cid, comp, decomp) in _CODECS.items()}


def available_codecs() -> tuple[str, ...]:
    """Codecs this interpreter can encode/decode, best first."""
    return tuple(_CODECS)


def negotiate_codec(preference: Optional[str],
                    peer_codecs) -> Optional[str]:
    """Pick the frame codec for a channel.

    ``preference`` is the local ``compress`` policy: ``"auto"`` takes
    the best codec both sides support, an explicit codec name requires
    exactly that codec, ``"none"``/``None`` disables compression.
    Returns the codec name, or ``None`` when the channel stays
    uncompressed.
    """
    if preference in (None, "none"):
        return None
    peers = tuple(peer_codecs or ())
    if preference == "auto":
        for name in _CODECS:
            if name in peers:
                return name
        return None
    if preference in _CODECS and preference in peers:
        return preference
    return None


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (host defaults to loopback).

    IPv6 literals use the bracketed URI form: ``"[::1]:9000"`` ->
    ``("::1", 9000)``; an unbracketed multi-colon host is rejected
    rather than silently mangled.
    """
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {addr!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"empty bracketed host in {addr!r}")
    elif ":" in host:
        raise ValueError(
            f"bare IPv6 literal in {addr!r}: bracket it, e.g. [::1]:9000")
    return (host or "127.0.0.1", int(port))


def format_addr(addr: tuple) -> str:
    """Inverse of :func:`parse_addr` (brackets IPv6 hosts)."""
    host, port = addr[0], addr[1]
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


def _sendall_scatter(sock: socket.socket, header: bytes,
                     blob: bytes) -> None:
    """Write ``header + blob`` without concatenating them.

    ``socket.sendmsg`` takes a buffer list (one syscall, zero copies);
    short writes resume from the right offset via ``memoryview``
    slicing, and platforms without ``sendmsg`` fall back to two
    ``sendall`` calls — still copy-free.
    """
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - every POSIX has sendmsg
        sock.sendall(header)
        sock.sendall(blob)
        return
    buffers = [memoryview(header), memoryview(blob)]
    while buffers:
        sent = sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if buffers and sent:
            buffers[0] = buffers[0][sent:]


def send_frame(sock: socket.socket, kind: str,
               payload: Optional[dict] = None,
               codec: Optional[str] = None) -> int:
    """Serialize and send one ``(kind, payload)`` frame.

    ``codec=None`` sends a raw frame (codec id 0); a codec name
    compresses with it (frames under :data:`COMPRESS_MIN_BYTES`, or
    that compression fails to shrink, still ship raw). Returns the
    frame's size in bytes — the wire-byte accounting the fabric
    benchmarks read.
    """
    blob = pickle.dumps((kind, payload or {}),
                        protocol=pickle.HIGHEST_PROTOCOL)
    codec_id = 0
    if codec is not None and len(blob) >= COMPRESS_MIN_BYTES:
        cid, compress, _decomp = _CODECS[codec]
        packed = compress(blob)
        if len(packed) < len(blob):
            blob, codec_id = packed, cid
    header = _HEADER.pack(MAGIC, codec_id, len(blob))
    _sendall_scatter(sock, header, blob)
    return len(header) + len(blob)


def recv_frame(sock: socket.socket) -> tuple[str, dict[str, Any]]:
    """Receive one frame; raises :class:`EOFError` on a clean close at
    a frame boundary, :class:`ProtocolError` on a malformed frame."""
    kind, payload, _n = recv_frame_sized(sock)
    return kind, payload


def recv_frame_sized(
        sock: socket.socket) -> tuple[str, dict[str, Any], int]:
    """:func:`recv_frame` plus the frame's size in bytes."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    magic, codec_id, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    blob = _recv_exact(sock, length)
    if codec_id:
        entry = _CODEC_BY_ID.get(codec_id)
        if entry is None:
            raise ProtocolError(
                f"frame compressed with unknown codec id {codec_id} "
                f"(decodable here: {', '.join(_CODECS) or 'none'})")
        try:
            blob = entry[2](blob, MAX_FRAME_BYTES)
        except ProtocolError:
            raise
        except Exception as exc:
            raise ProtocolError(
                f"undecompressable {entry[0]} frame: {exc}") from exc
    try:
        kind, payload = pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    return kind, payload, _HEADER.size + length


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool = False) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if eof_ok and got == 0:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class Channel:
    """One peer connection: socket + negotiated codec + byte meters.

    ``send`` is serialized by an internal lock so a worker's heartbeat
    thread, result callbacks and main loop (or the scheduler's idle
    heartbeat pump and select loop) can share the connection without
    interleaving frames. ``codec`` is the *transmit* codec — each
    received frame names its own codec id, so either side may upgrade
    the moment negotiation completes without racing frames already in
    flight.
    """

    __slots__ = ("sock", "codec", "bytes_in", "bytes_out", "_lock")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.codec: Optional[str] = None
        self.bytes_in = 0
        self.bytes_out = 0
        self._lock = threading.Lock()

    def send(self, kind: str, payload: Optional[dict] = None) -> int:
        with self._lock:
            n = send_frame(self.sock, kind, payload, codec=self.codec)
        self.bytes_out += n
        return n

    def recv(self) -> tuple[str, dict[str, Any]]:
        kind, payload, n = recv_frame_sized(self.sock)
        self.bytes_in += n
        return kind, payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
