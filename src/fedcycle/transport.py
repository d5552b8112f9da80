"""Bit-exact model serialization and the sequential hand-off channel.

Wire layout (little-endian throughout):

    magic            4 bytes  b"FWT1"
    format_version   u16
    arch_hash        u64      hash of the layer-spec sequence
    global_epoch     u32
    origin           u16      institution index of the sender
    opt_flag         u8       0 = no optimizer state, 1 = sgd-momentum, 2 = adam
    payload          per tensor: rows u32, cols u32, then rows*cols f64
    crc              u32      CRC-32 (IEEE) of all preceding bytes

Socket transfers are length-prefixed frames (u64 length, then the packet),
acknowledged with a single status byte before the sender proceeds.
"""
from __future__ import annotations

import functools
import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import OPT_ROLES, Layout, ModelState, OptState, layout_of

if TYPE_CHECKING:
    import socket

MAGIC = b"FWT1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQIHB")
_SHAPE = struct.Struct("<II")
_CRC = struct.Struct("<I")
_OPT_FLAGS = {None: 0, "sgd-momentum": 1, "adam": 2}
_OPT_KINDS = {v: k for k, v in _OPT_FLAGS.items()}


class TransportError(Exception):
    pass


class FormatError(TransportError):
    pass


class CorruptionError(TransportError):
    pass


class ArchitectureMismatchError(TransportError):
    pass


class TruncationError(TransportError):
    pass


class TransferFailedError(TransportError):
    pass


@dataclass(frozen=True)
class PacketMeta:
    format_version: int
    arch_hash: int
    global_epoch: int
    origin: int
    opt_kind: str | None
    payload_tensors: int


def arch_hash(specs) -> int:
    # int() and float() + 0.0 spell every spec the same way as any spec equal
    # to it (1 and True, 0.5 and np.float64(0.5), 0.0 and -0.0), so the hash
    # is a function of what the layout cache keys on.
    text = ";".join(
        f"{s.kind}:{int(s.in_dim)}:{int(s.out_dim)}:{float(s.dropout_rate) + 0.0!r}"
        for s in specs)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _WirePlan:
    """The fixed part of every packet of one (architecture, optimizer kind).

    The payload is a run of 8-byte words: per tensor one (rows, cols) header
    word, then rows*cols f64 values. `template` has every header word filled
    in and the values zeroed; `index` holds, per vector a packet carries
    (theta, the running statistics, then each optimizer role's vector), the
    word of each of its elements. The step count, with an optimizer kind, is
    word `step_word`.
    """
    arch_hash: int
    table: tuple          # (rows, cols, data offset) per tensor, as _read_table reads it
    template: np.ndarray  # f64 words, read-only
    index: tuple          # int64 word indexes per vector, read-only
    step_word: int | None


@functools.lru_cache(maxsize=128)
def _wire_plan(layout: Layout, opt_kind: str | None) -> _WirePlan:
    """Canonical tensor order: params, batch-norm running stats, then with
    an optimizer kind the (1, 1) step and each param's role buffers."""
    table, heads, words = [], [], 0

    def tensor(rows, cols):
        """Append a tensor; return the words of its values."""
        nonlocal words
        heads.append(words)
        table.append((rows, cols, _HEADER.size + 8 * words + _SHAPE.size))
        words += 1 + rows * cols
        return np.arange(words - rows * cols, words)

    theta_idx = np.concatenate([tensor(*p.shape) for p in layout.params])
    running_idx = np.concatenate([tensor(*s.shape) for s in layout.running] or [np.arange(0)])
    role_idx, step_word = {}, None
    if opt_kind is not None:
        (step_word,) = tensor(1, 1)
        roles = OPT_ROLES[opt_kind]
        per_param = [[tensor(*p.shape) for _ in roles] for p in layout.params]
        role_idx = {role: np.concatenate([idx[k] for idx in per_param])
                    for k, role in enumerate(roles)}
    template = np.zeros(words, dtype="<u8")
    template[heads] = [rows | cols << 32 for rows, cols, _ in table]
    template = template.view("<f8")
    # serialize and deserialize check finiteness over whole payloads, header
    # words included; only a width of 0x7FF00000 or more reads as inf or NaN.
    if not np.isfinite(template).all():
        raise ValueError("layer too wide for the wire format")
    index = tuple(_read_only(a) for a in (theta_idx, running_idx, *role_idx.values()))
    return _WirePlan(arch_hash=arch_hash(layout.specs), table=tuple(table),
                     template=_read_only(template), index=index,
                     step_word=None if step_word is None else int(step_word))


def serialize(model: ModelState, *, global_epoch: int = 0, origin: int = 0,
              carry_opt_state: bool = True) -> bytes:
    opt = model.opt_state
    opt_kind = opt.kind if carry_opt_state else None
    plan = _wire_plan(model.layout, opt_kind)
    vectors = [model.theta, model.running,
               *[opt.flat[role] for role in OPT_ROLES.get(opt_kind, ())]]
    words = plan.template.copy()
    for index, vec in zip(plan.index, vectors):
        if vec.shape != index.shape:
            raise ValueError("model arrays do not match the model's layer specs")
        words[index] = vec
    if opt_kind is not None:
        words[plan.step_word] = float(opt.step)
    if not np.isfinite(words).all():
        raise ValueError("refusing to serialize non-finite parameters")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, plan.arch_hash,
                          global_epoch, origin, _OPT_FLAGS[opt_kind])
    crc = zlib.crc32(words, zlib.crc32(header))
    return b"".join((header, words, _CRC.pack(crc)))


def _read_table(data: bytes):
    """Parse and verify the header and CRC; return the metadata and the
    tensor table, one (rows, cols, data offset) per tensor."""
    if len(data) < _HEADER.size + 4:
        raise TruncationError("packet shorter than header + checksum")
    magic, version, ahash, epoch, origin, opt_flag = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if opt_flag not in _OPT_KINDS:
        raise FormatError(f"unknown optimizer flag {opt_flag}")
    # Walk the tensor table before the CRC so a cut-off stream reports as
    # truncation rather than a checksum mismatch.
    table = []
    offset, end = _HEADER.size, len(data) - 4
    while offset < end:
        if offset + _SHAPE.size > len(data):
            raise TruncationError("packet ends inside a tensor header")
        rows, cols = _SHAPE.unpack_from(data, offset)
        offset += _SHAPE.size
        table.append((rows, cols, offset))
        offset += rows * cols * 8
        if offset > len(data):
            raise TruncationError("packet ends inside tensor data")
    (crc,) = struct.unpack_from("<I", data, end)
    if zlib.crc32(memoryview(data)[:end]) != crc:
        raise CorruptionError("CRC-32 mismatch")
    meta = PacketMeta(version, ahash, epoch, origin, _OPT_KINDS[opt_flag], len(table))
    return meta, table


def read_meta(data: bytes) -> PacketMeta:
    """Parse and verify the header + CRC without reconstructing a model."""
    return _read_table(data)[0]


def _table_error(table: list, plan: _WirePlan) -> TransportError:
    """The error for a tensor table that differs from the plan's."""
    for (rows, cols, _), (want_rows, want_cols, _) in zip(table, plan.table):
        if (rows, cols) != (want_rows, want_cols):
            return FormatError(
                f"tensor shape {(rows, cols)} != expected {(want_rows, want_cols)}")
    if len(table) < len(plan.table):
        return TruncationError(f"packet holds {len(table)} of {len(plan.table)} tensors")
    return FormatError("trailing bytes after expected payload")


def deserialize(data: bytes, specs) -> tuple[ModelState, PacketMeta]:
    """Rebuild a ModelState; the receiver's specs gate architecture."""
    layout = layout_of(specs)
    meta, table = _read_table(data)
    plan = _wire_plan(layout, meta.opt_kind)
    if meta.arch_hash != plan.arch_hash:
        raise ArchitectureMismatchError(
            "packet architecture hash does not match receiver layer specs")
    if tuple(table) != plan.table:
        raise _table_error(table, plan)
    # An aligned copy of the payload (it starts at byte 21 of the packet);
    # each gather from it is a fresh array the model owns.
    words = np.frombuffer(data, dtype="<f8", count=len(plan.template),
                          offset=_HEADER.size).copy()
    theta, running, *roles = [words[index] for index in plan.index]
    kind = meta.opt_kind
    model = ModelState(layout, theta, running,
                       OptState(kind, 0, dict(zip(OPT_ROLES.get(kind, ()), roles))))
    if any(np.any(run["var"] <= 0) for run in model.stats if run):
        raise FormatError("non-positive running variance")
    if not np.isfinite(words).all():
        raise CorruptionError("non-finite value in payload")
    if kind is not None:
        step = float(words[plan.step_word])
        if not (0 <= step <= 2 ** 53 and step.is_integer()):
            raise FormatError(f"optimizer step count {step!r} is not an integer in 0..2**53")
        model.opt_state.step = int(step)
    return model, meta


# --- channels -------------------------------------------------------------

_LEN = struct.Struct("<Q")
ACK_OK = b"\x00"
# Longest wait, in seconds, for any one socket operation of a hand-off. The
# courier answers at once, so only a dead or stalled one reaches it.
HANDOFF_TIMEOUT_S = 30.0


def send_frame(sock: socket.socket, data: bytes) -> None:
    """Length-prefixed send; blocks until the receiver acknowledges."""
    try:
        sock.sendall(_LEN.pack(len(data)) + data)
        status = _recv_exact(sock, 1)
    except (OSError, TruncationError) as exc:
        raise TransferFailedError(f"send failed: {exc}") from exc
    if status != ACK_OK:
        raise TransferFailedError(f"receiver reported status {status!r}")


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TruncationError(f"connection closed after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    data = _recv_exact(sock, length)
    sock.sendall(ACK_OK)
    return data


class MemoryChannel:
    """In-process hand-off by value."""

    def handoff(self, data: bytes) -> bytes:
        return bytes(data)

    def close(self):
        pass


def _no_delay(sock: socket.socket) -> socket.socket:
    """Send each write at once. Otherwise Nagle's algorithm holds the 1-byte
    ACK after a frame until the peer's delayed ACK, about 40 ms per hand-off."""
    import socket

    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class SocketChannel:
    """Hand-off over a loopback TCP connection.

    A courier thread accepts one connection and returns each frame it
    receives, so every transfer crosses a real socket in both directions.
    """

    def __init__(self):
        # Imported here so that a run over MemoryChannel never loads socket code.
        import socket
        import threading

        self._server = socket.create_server(("127.0.0.1", 0))
        port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=HANDOFF_TIMEOUT_S)
        except OSError:
            # close() alone does not wake the courier's accept(); shutdown does
            self._server.shutdown(socket.SHUT_RDWR)
            self._server.close()
            self._thread.join(timeout=5)
            raise
        self._sock = _no_delay(sock)

    def _serve(self):
        try:
            conn, _ = self._server.accept()
        except OSError:  # the server was shut down before a connection came
            return
        self._courier = _no_delay(conn)
        with conn:
            while True:
                try:
                    data = recv_frame(conn)
                except (TruncationError, OSError):
                    return
                try:
                    send_frame(conn, data)
                except TransferFailedError:
                    return

    def handoff(self, data: bytes) -> bytes:
        send_frame(self._sock, data)
        try:
            back = recv_frame(self._sock)
        except (OSError, TruncationError) as exc:
            raise TransferFailedError(f"receive failed: {exc}") from exc
        if back != data:
            raise CorruptionError("loopback frame mismatch")
        return back

    def close(self):
        try:
            self._sock.close()
        finally:
            self._server.close()
        self._thread.join(timeout=5)


# The transports a run may name, by the name it gives.
CHANNELS = {"memory": MemoryChannel, "socket": SocketChannel}
