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
acknowledged with a single status byte before the sender proceeds. The same
byte layout is written to disk as ``.fwt`` checkpoint files.
"""
from __future__ import annotations

import hashlib
import socket
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .nn import OPT_ROLES, ModelState, fresh_opt_state, param_count, validate_specs

MAGIC = b"FWT1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQIHB")
_SHAPE = struct.Struct("<II")
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
    text = ";".join(
        f"{s.kind}:{s.in_dim}:{s.out_dim}:{s.dropout_rate!r}" for s in specs)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _model_tensors(model: ModelState, opt_kind: str | None, step: np.ndarray):
    """Canonical tensor order: params, batch-norm running stats, then with
    an optimizer kind the (1, 1) `step` and each param's role buffers."""
    for i, name, w in model.param_items():
        yield w
    for spec, run in zip(model.specs, model.bn_running):
        if spec.kind == "batchnorm":
            yield run["mean"]
            yield run["var"]
    if opt_kind is not None:
        yield step
        for i, name, _ in model.param_items():
            bufs = model.opt_state["slots"][i][name]
            for role in OPT_ROLES[opt_kind]:
                yield bufs[role]


def _vectors(model: ModelState, opt_kind: str | None, step: np.ndarray) -> list:
    """Every array a packet carries, flat vectors whole: the finiteness
    checks run once per entry."""
    out = [model.theta] + [a for run in model.bn_running for a in run.values()]
    if opt_kind is not None:
        out += [step, *model.opt_state["flat"].values()]
    return out


def serialize(model: ModelState, *, global_epoch: int = 0, origin: int = 0,
              carry_opt_state: bool = True) -> bytes:
    opt_kind = model.opt_state["kind"] if carry_opt_state else None
    step = np.array([[float(model.opt_state["step"])]])
    if not all(np.isfinite(a).all() for a in _vectors(model, opt_kind, step)):
        raise ValueError("refusing to serialize non-finite parameters")
    chunks = [_HEADER.pack(MAGIC, FORMAT_VERSION, arch_hash(model.specs),
                           global_epoch, origin, _OPT_FLAGS[opt_kind])]
    for tensor in _model_tensors(model, opt_kind, step):
        chunks.append(_SHAPE.pack(*tensor.shape))
        chunks.append(tensor.astype("<f8", copy=False).tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body))


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


def deserialize(data: bytes, specs) -> tuple[ModelState, PacketMeta]:
    """Rebuild a ModelState; the receiver's specs gate architecture."""
    specs = validate_specs(specs)
    meta, table = _read_table(data)
    if meta.arch_hash != arch_hash(specs):
        raise ArchitectureMismatchError(
            "packet architecture hash does not match receiver layer specs")

    kind = meta.opt_kind
    bn_running = [{"mean": np.empty((1, s.out_dim)), "var": np.empty((1, s.out_dim))}
                  if s.kind == "batchnorm" else {} for s in specs]
    opt_state = fresh_opt_state(kind, specs) if kind is not None else \
        {"kind": None, "step": 0, "flat": {}, "slots": []}
    model = ModelState(specs=specs, theta=np.empty(param_count(specs)),
                       bn_running=bn_running, opt_state=opt_state)
    step = np.zeros((1, 1))
    dests = list(_model_tensors(model, kind, step))
    for (rows, cols, offset), dest in zip(table, dests):
        if (rows, cols) != dest.shape:
            raise FormatError(f"tensor shape {(rows, cols)} != expected {dest.shape}")
        dest[...] = np.frombuffer(data, dtype="<f8", count=rows * cols,
                                  offset=offset).reshape(rows, cols)
    if len(table) < len(dests):
        raise TruncationError(f"packet holds {len(table)} of {len(dests)} tensors")
    if len(table) > len(dests):
        raise FormatError("trailing bytes after expected payload")
    if any(np.any(run["var"] <= 0) for run in bn_running if run):
        raise FormatError("non-positive running variance")
    if not all(np.isfinite(a).all() for a in _vectors(model, kind, step)):
        raise CorruptionError("non-finite value in payload")
    opt_state["step"] = int(step[0, 0])
    return model, meta


def write_packet(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def read_packet(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


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


@dataclass(frozen=True)
class TransferRecord:
    index: int
    origin: int
    destination: int
    global_epoch: int
    nbytes: int


class MemoryChannel:
    """In-process hand-off by value."""

    def __init__(self):
        self.log = []

    def handoff(self, data: bytes, *, origin: int, destination: int,
                global_epoch: int) -> bytes:
        self.log.append(TransferRecord(len(self.log), origin, destination,
                                       global_epoch, len(data)))
        return bytes(data)

    def close(self):
        pass


class SocketChannel:
    """Hand-off over a loopback TCP connection.

    A courier thread accepts one connection and returns each frame it
    receives, so every transfer crosses a real socket in both directions.
    """

    def __init__(self):
        self.log = []
        self._server = socket.create_server(("127.0.0.1", 0))
        port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=HANDOFF_TIMEOUT_S)

    def _serve(self):
        conn, _ = self._server.accept()
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

    def handoff(self, data: bytes, *, origin: int, destination: int,
                global_epoch: int) -> bytes:
        send_frame(self._sock, data)
        try:
            back = recv_frame(self._sock)
        except (OSError, TruncationError) as exc:
            raise TransferFailedError(f"receive failed: {exc}") from exc
        if back != data:
            raise CorruptionError("loopback frame mismatch")
        self.log.append(TransferRecord(len(self.log), origin, destination,
                                       global_epoch, len(data)))
        return back

    def close(self):
        try:
            self._sock.close()
        finally:
            self._server.close()
        self._thread.join(timeout=5)


def make_channel(kind: str):
    if kind == "memory":
        return MemoryChannel()
    if kind == "socket":
        return SocketChannel()
    raise ValueError(f"unknown transport {kind!r}")
