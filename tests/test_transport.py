import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from fedcycle import transport
from fedcycle.nn import LayerSpec, ModelState, OptimizerConfig, init_model
from fedcycle.transport import (ArchitectureMismatchError, CorruptionError,
                                FormatError, MemoryChannel, SocketChannel,
                                TransferFailedError, TruncationError,
                                arch_hash, deserialize,
                                make_channel, read_meta, read_packet,
                                recv_frame, send_frame, serialize,
                                write_packet)

SPECS = [LayerSpec("affine", 3, 4), LayerSpec("batchnorm", 4, 4),
         LayerSpec("relu", 4, 4), LayerSpec("dropout", 4, 4, 0.5),
         LayerSpec("sigmoid-head", 4, 1)]


def make_model(seed=0, opt="adam", specs=SPECS):
    return init_model(specs, OptimizerConfig(opt, 1e-3), np.random.default_rng(seed))


def models_equal(a: ModelState, b: ModelState) -> bool:
    for (i, n, wa), (_, _, wb) in zip(a.param_items(), b.param_items()):
        if not np.array_equal(wa, wb):
            return False
    for ra, rb in zip(a.bn_running, b.bn_running):
        for key in ra:
            if not np.array_equal(ra[key], rb[key]):
                return False
    if a.opt_state["kind"] != b.opt_state["kind"]:
        return False
    if a.opt_state["step"] != b.opt_state["step"]:
        return False
    for sa, sb in zip(a.opt_state["slots"], b.opt_state["slots"]):
        for name in sa:
            for bname in sa[name]:
                if not np.array_equal(sa[name][bname], sb[name][bname]):
                    return False
    return True


class TestSerialize:
    def test_roundtrip_bitwise(self):
        m = make_model()
        back, meta = deserialize(serialize(m), SPECS)
        assert models_equal(m, back)
        assert meta.opt_kind == "adam"

    def test_serialize_is_deterministic_and_idempotent(self):
        m = make_model()
        data = serialize(m, global_epoch=7, origin=2)
        assert data == serialize(m, global_epoch=7, origin=2)
        back, _ = deserialize(data, SPECS)
        assert serialize(back, global_epoch=7, origin=2) == data

    def test_payload_contains_ieee754_one(self):
        specs = [LayerSpec("sigmoid-head", 1, 1)]
        m = make_model(specs=specs, opt="sgd-momentum")
        m.params[0]["W"][0, 0] = 1.0
        data = serialize(m, carry_opt_state=False)
        assert bytes.fromhex("000000000000f03f") in data

    def test_differing_weight_differs_in_bytes_and_crc(self):
        a, b = make_model(), make_model()
        b.params[0]["W"][0, 0] += 1e-9
        da, db = serialize(a), serialize(b)
        assert da != db
        assert da[-4:] != db[-4:]

    def test_nonfinite_refused(self):
        m = make_model()
        m.params[0]["W"][0, 0] = np.nan
        with pytest.raises(ValueError):
            serialize(m)

    def test_meta_fields(self):
        data = serialize(make_model(), global_epoch=41, origin=3)
        meta = read_meta(data)
        assert meta.format_version == 1
        assert meta.global_epoch == 41
        assert meta.origin == 3
        assert meta.arch_hash == arch_hash(SPECS)

    def test_opt_state_optional(self):
        m = make_model()
        slim = serialize(m, carry_opt_state=False)
        full = serialize(m, carry_opt_state=True)
        assert len(slim) < len(full)
        back, meta = deserialize(slim, SPECS)
        assert meta.opt_kind is None
        for (i, n, wa), (_, _, wb) in zip(m.param_items(), back.param_items()):
            assert np.array_equal(wa, wb)


def split_packet(data):
    """A packet's header bytes and its tensors, in wire order."""
    offset = struct.calcsize("<4sHQIHB")
    header, tensors = data[:offset], []
    while offset < len(data) - 4:
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        tensors.append(np.frombuffer(data, "<f8", rows * cols, offset)
                       .reshape(rows, cols).copy())
        offset += rows * cols * 8
    return header, tensors


def join_packet(header, tensors):
    """The inverse of split_packet, with a freshly computed CRC."""
    body = header + b"".join(struct.pack("<II", *t.shape) + t.astype("<f8").tobytes()
                             for t in tensors)
    return body + struct.pack("<I", zlib.crc32(body))


class TestDeserializeStructure:
    """Well-formed packets (valid CRC) whose tensors do not fit the specs.
    Wire order for SPECS with Adam: 6 params, running mean and variance,
    the step count, then m and v per param."""
    N_PARAMS = 6

    def tensors(self):
        m = make_model()
        data = serialize(m)
        header, tensors = split_packet(data)
        assert join_packet(header, tensors) == data
        assert len(tensors) == self.N_PARAMS + 2 + 1 + 2 * self.N_PARAMS
        return header, tensors

    def test_views_after_deserialize(self):
        back, _ = deserialize(serialize(make_model()), SPECS)
        for i, name, w in back.param_items():
            assert np.shares_memory(w, back.theta)
            for role, buf in back.opt_state["slots"][i][name].items():
                assert np.shares_memory(buf, back.opt_state["flat"][role])

    def test_wrong_tensor_shape(self):
        header, tensors = self.tensors()
        tensors[0] = tensors[0].reshape(4, 3)
        with pytest.raises(FormatError, match="shape"):
            deserialize(join_packet(header, tensors), SPECS)

    def test_missing_tensor(self):
        header, tensors = self.tensors()
        with pytest.raises(TruncationError):
            deserialize(join_packet(header, tensors[:-1]), SPECS)

    def test_extra_tensor(self):
        header, tensors = self.tensors()
        with pytest.raises(FormatError, match="trailing"):
            deserialize(join_packet(header, tensors + [np.zeros((1, 1))]), SPECS)

    def test_non_positive_running_variance(self):
        header, tensors = self.tensors()
        tensors[self.N_PARAMS + 1][0, 2] = 0.0
        with pytest.raises(FormatError, match="variance"):
            deserialize(join_packet(header, tensors), SPECS)

    @pytest.mark.parametrize("index", [0, N_PARAMS + 1, N_PARAMS + 2, -1],
                             ids=["param", "running-var", "step", "adam-v"])
    def test_non_finite_value(self, index):
        header, tensors = self.tensors()
        tensors[index][0, 0] = np.nan
        with pytest.raises(CorruptionError, match="non-finite"):
            deserialize(join_packet(header, tensors), SPECS)


class TestDeserializeErrors:
    def test_bad_magic(self):
        data = bytearray(serialize(make_model()))
        data[0:4] = b"NOPE"
        with pytest.raises(FormatError):
            deserialize(bytes(data), SPECS)

    def test_bad_version(self):
        data = bytearray(serialize(make_model()))
        struct.pack_into("<H", data, 4, 99)
        # CRC guards the header too, so recompute it to isolate the version check
        import zlib
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        with pytest.raises(FormatError):
            deserialize(bytes(data), SPECS)

    def test_single_byte_flip_detected(self):
        data = serialize(make_model())
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = int(rng.integers(0, len(data)))
            mutated = bytearray(data)
            mutated[i] ^= 0xFF
            with pytest.raises((CorruptionError, FormatError, TruncationError)):
                deserialize(bytes(mutated), SPECS)

    def test_truncation(self):
        data = serialize(make_model())
        with pytest.raises(TruncationError):
            read_meta(data[: len(data) // 2])

    def test_architecture_mismatch(self):
        data = serialize(make_model())
        other = [LayerSpec("affine", 3, 4), LayerSpec("relu", 4, 4),
                 LayerSpec("sigmoid-head", 4, 1)]
        with pytest.raises(ArchitectureMismatchError):
            deserialize(data, other)

    def test_arch_hash_sensitive_to_dropout_rate(self):
        a = [LayerSpec("dropout", 4, 4, 0.5), LayerSpec("sigmoid-head", 4, 1)]
        b = [LayerSpec("dropout", 4, 4, 0.25), LayerSpec("sigmoid-head", 4, 1)]
        assert arch_hash(a) != arch_hash(b)


class TestPacketFiles:
    def test_fwt_file_roundtrip(self, tmp_path):
        m = make_model()
        data = serialize(m, global_epoch=5)
        path = tmp_path / "checkpoint.fwt"
        write_packet(path, data)
        assert read_packet(path) == data
        back, meta = deserialize(read_packet(path), SPECS)
        assert models_equal(m, back)
        assert meta.global_epoch == 5


class TestFrames:
    def socket_pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_loopback_roundtrip_10kb(self):
        a, b = self.socket_pair()
        payload = bytes(np.random.default_rng(0).integers(0, 256, 10_240, dtype=np.uint8))
        try:
            results = {}

            def receiver():
                results["data"] = recv_frame(b)

            t = threading.Thread(target=receiver)
            t.start()
            send_frame(a, payload)
            t.join(timeout=5)
            assert results["data"] == payload
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises(self):
        a, b = self.socket_pair()
        try:
            a.sendall(struct.pack("<Q", 1000) + b"x" * 500)
            a.close()
            with pytest.raises(TruncationError):
                recv_frame(b)
        finally:
            b.close()

    def test_four_node_ring_twelve_transfers(self):
        """Token ring of 4 socket-linked workers, 3 full cycles."""
        n, cycles = 4, 3
        pairs = [socket.socketpair() for _ in range(n)]  # pair[i]: i -> (i+1)%n
        hops = []
        lock = threading.Lock()

        def worker(i):
            recv_sock = pairs[(i - 1) % n][1]
            send_sock = pairs[i][0]
            for _ in range(cycles):
                token = recv_frame(recv_sock)
                with lock:
                    hops.append((int(token.decode()), i))
                send_frame(send_sock, str(i).encode())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(1, n)]
        for t in threads:
            t.start()
        # node 0 starts the token and receives it back once per cycle
        recv_sock = pairs[n - 1][1]
        send_sock = pairs[0][0]
        for _ in range(cycles):
            send_frame(send_sock, b"0")
            token = recv_frame(recv_sock)
            with lock:
                hops.append((int(token.decode()), 0))
        for t in threads:
            t.join(timeout=5)
        for s in [s for p in pairs for s in p]:
            s.close()
        assert len(hops) == n * cycles  # 12 transfers
        # single possession: every hop goes origin -> (origin+1) % n
        for origin, dest in hops:
            assert dest == (origin + 1) % n


class TestChannels:
    @pytest.mark.parametrize("kind", ["memory", "socket"])
    def test_handoff_returns_identical_bytes(self, kind):
        channel = make_channel(kind)
        try:
            data = serialize(make_model())
            back = channel.handoff(data, origin=0, destination=1, global_epoch=3)
            assert back == data
            assert len(channel.log) == 1
            rec = channel.log[0]
            assert (rec.origin, rec.destination, rec.global_epoch) == (0, 1, 3)
            assert rec.nbytes == len(data)
        finally:
            channel.close()

    def test_channel_log_indexes_sequentially(self):
        channel = MemoryChannel()
        for i in range(5):
            channel.handoff(b"abc", origin=i, destination=i + 1, global_epoch=i)
        assert [r.index for r in channel.log] == list(range(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_channel("carrier-pigeon")

    @pytest.mark.parametrize("returns_ack", [False, True])
    def test_stalled_courier_times_out(self, monkeypatch, returns_ack):
        """A courier that never acknowledges the frame, or acknowledges it
        but never sends it back, fails the hand-off instead of hanging."""
        class StalledChannel(SocketChannel):
            def _serve(self):
                conn, _ = self._server.accept()
                with conn:
                    if returns_ack:
                        recv_frame(conn)
                    while conn.recv(65536):
                        pass

        monkeypatch.setattr(transport, "HANDOFF_TIMEOUT_S", 0.2)
        channel = StalledChannel()
        try:
            with pytest.raises(TransferFailedError):
                channel.handoff(b"abc", origin=0, destination=1, global_epoch=0)
            assert channel.log == []
        finally:
            channel.close()
        assert not channel._thread.is_alive()

    def test_socket_channel_many_handoffs(self):
        channel = SocketChannel()
        try:
            data = serialize(make_model())
            for i in range(10):
                assert channel.handoff(data, origin=i % 4, destination=(i + 1) % 4,
                                       global_epoch=i) == data
            assert len(channel.log) == 10
        finally:
            channel.close()
