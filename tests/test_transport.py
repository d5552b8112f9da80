import hashlib
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from fedcycle import transport
from fedcycle.heuristics import ExperimentConfig, mlp_specs
from fedcycle.nn import (LayerSpec, ModelState, OptimizerConfig, init_model,
                         layout_of, opt_step)
from fedcycle.schedule import PlateauPolicy
from fedcycle.transport import (ArchitectureMismatchError, CorruptionError,
                                FormatError, SocketChannel,
                                TransferFailedError, TruncationError,
                                arch_hash, deserialize, read_meta,
                                recv_frame, send_frame, serialize)

SPECS = [LayerSpec("affine", 3, 4), LayerSpec("batchnorm", 4, 4),
         LayerSpec("relu", 4, 4), LayerSpec("dropout", 4, 4, 0.5),
         LayerSpec("sigmoid-head", 4, 1)]


def make_model(seed=0, opt="adam", specs=SPECS):
    return init_model(specs, OptimizerConfig(opt, 1e-3), np.random.default_rng(seed))


def models_equal(a: ModelState, b: ModelState) -> bool:
    if not np.array_equal(a.theta, b.theta):
        return False
    if not np.array_equal(a.running, b.running):
        return False
    if a.opt_state.kind != b.opt_state.kind:
        return False
    if a.opt_state.step != b.opt_state.step:
        return False
    if a.opt_state.flat.keys() != b.opt_state.flat.keys():
        return False
    for role, vec in a.opt_state.flat.items():
        for va, vb in zip(a.layout.views(vec), b.layout.views(b.opt_state.flat[role])):
            for name in va:
                if not np.array_equal(va[name], vb[name]):
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

    @pytest.mark.parametrize("role", ["m", "v"])
    def test_wrong_size_opt_state_refused(self, role):
        m = make_model()
        m.opt_state.flat[role] = np.zeros(m.layout.size + 1)
        with pytest.raises(ValueError, match="model arrays do not match the model's layer specs"):
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
        assert np.array_equal(m.theta, back.theta)


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
        flat = back.opt_state.flat
        role_views = {role: back.layout.views(vec) for role, vec in flat.items()}
        assert set(role_views) == {"m", "v"}
        for i, name, *_ in back.layout.params:
            w = back.params[i][name]
            assert np.shares_memory(w, back.theta)
            for role, views in role_views.items():
                assert views[i][name].shape == w.shape
                assert np.shares_memory(views[i][name], flat[role])
        assert [sorted(run) for run in back.stats] == [[], ["mean", "var"], [], [], []]
        for run in back.stats:
            for stat in run.values():
                assert stat.shape == (1, 4) and np.shares_memory(stat, back.running)

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

    @pytest.mark.parametrize("step", [-1.0, 2.5, 1e300, 2.0 ** 53 + 2])
    def test_bad_step_count(self, step):
        header, tensors = self.tensors()
        tensors[self.N_PARAMS + 2][0, 0] = step
        with pytest.raises(FormatError, match="step count"):
            deserialize(join_packet(header, tensors), SPECS)

    @pytest.mark.parametrize("step", [0, 1, 2 ** 53])
    def test_step_count_bounds_kept(self, step):
        m = make_model()
        m.opt_state.step = step
        back, _ = deserialize(serialize(m), SPECS)
        assert back.opt_state.step == step and type(back.opt_state.step) is int


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

    def test_magic_alone_is_truncated(self):
        with pytest.raises(TruncationError, match="packet shorter than header \\+ checksum"):
            read_meta(b"FWT1")

    def test_tensor_header_running_into_crc(self):
        """Three bytes between the last tensor and the CRC start a tensor
        header that the packet's end cuts off."""
        body = serialize(make_model())[:-4] + b"\x01\x00\x00"
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(TruncationError, match="packet ends inside a tensor header"):
            read_meta(data)

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


GOLDEN_MODELS = {
    "demo-sgd": (mlp_specs(4, [16], 2), "sgd-momentum"),
    "ordering-adam": (mlp_specs(32, [32, 32], 2), "adam"),
    "batchnorm-dropout-adam": (SPECS, "adam"),
}
# sha256 of serialize(golden_model(name), global_epoch=12, origin=1,
# carry_opt_state=carry): FWT1 bytes that no rewrite of the codec may change.
GOLDEN_SHA256 = {
    ("demo-sgd", True): "d6bf92330f4e84d25f78906f9767533970786c996f74281a806a82621a336d70",
    ("demo-sgd", False): "a9a75748208fb32936682676fca2480cffc3b582696da8114afb9968251939e1",
    ("ordering-adam", True): "1c9ba66e6911a3fb209dd357802663b3edb9a95b29cbc0ffd9a2b94552f8b0ce",
    ("ordering-adam", False): "2475a5f2efd68e2825b3f28c12d193ed0fa14091f286fc2d1d6964c8eaf4c110",
    ("batchnorm-dropout-adam", True):
        "2b20346d8d16a8aa480789e1addcd14c71fd29e68ff832c6f84ce944529a9449",
    ("batchnorm-dropout-adam", False):
        "2fb04c8fdc89ae0c5bdfe59a7018958cbf1a7e1b8a5e154bd79a3a7f1c88006c",
}


def golden_model(name):
    """A seeded model whose optimizer vectors, running statistics and step
    count are all set away from their initial values."""
    specs, kind = GOLDEN_MODELS[name]
    m = init_model(specs, OptimizerConfig(kind, 1e-3), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for vec in m.opt_state.flat.values():
        vec[...] = rng.uniform(-1.0, 1.0, vec.size)
    for run in m.stats:
        for key, (lo, hi) in zip(("mean", "var"), ((-1.0, 1.0), (0.5, 2.0))):
            if key in run:
                run[key][...] = rng.uniform(lo, hi, run[key].shape)
    m.opt_state.step = 7
    return m


@pytest.mark.parametrize("name,carry", list(GOLDEN_SHA256))
def test_golden_bytes(name, carry):
    data = serialize(golden_model(name), global_epoch=12, origin=1, carry_opt_state=carry)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name, carry]
    back, meta = deserialize(data, GOLDEN_MODELS[name][0])
    assert serialize(back, global_epoch=meta.global_epoch, origin=meta.origin,
                     carry_opt_state=carry) == data


def with_opt_flag(data, flag):
    """`data` with its optimizer flag replaced and the CRC recomputed."""
    body = bytearray(data[:-4])
    body[struct.calcsize("<4sHQIH")] = flag
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


class TestCachedPlans:
    """Each architecture's layout and wire plan are built once and shared."""
    DROPOUT_025 = SPECS[:3] + [LayerSpec("dropout", 4, 4, 0.25), SPECS[4]]

    def test_layout_shared_by_equal_specs(self):
        assert layout_of(SPECS) is layout_of(list(SPECS))
        assert layout_of(SPECS) is layout_of([LayerSpec(s.kind, s.in_dim, s.out_dim,
                                                        s.dropout_rate) for s in SPECS])

    def test_dropout_rates_get_distinct_plans(self):
        assert layout_of(SPECS) is not layout_of(self.DROPOUT_025)
        plans = [transport._wire_plan(layout_of(specs), "adam")
                 for specs in (SPECS, self.DROPOUT_025)]
        assert plans[0] is not plans[1]
        assert plans[0].arch_hash != plans[1].arch_hash
        for sender, receiver in ((SPECS, self.DROPOUT_025), (self.DROPOUT_025, SPECS)):
            data = serialize(make_model(specs=sender))
            with pytest.raises(ArchitectureMismatchError):
                deserialize(data, receiver)

    def test_equal_specs_hash_alike(self):
        same = [LayerSpec(s.kind, s.in_dim, s.out_dim, np.float64(s.dropout_rate))
                for s in SPECS]
        assert arch_hash(same) == arch_hash(SPECS)

    @pytest.mark.parametrize("sender,flag,error,match", [
        ("adam", 1, FormatError, "tensor shape"),
        ("adam", 0, FormatError, "trailing"),
        ("sgd-momentum", 2, FormatError, "tensor shape"),
        ("sgd-momentum", 0, FormatError, "trailing"),
        ("adam", 3, FormatError, "unknown optimizer flag 3"),
    ])
    def test_rewritten_optimizer_flag_rejected(self, sender, flag, error, match):
        data = with_opt_flag(serialize(make_model(opt=sender)), flag)
        with pytest.raises(error, match=match):
            deserialize(data, SPECS)

    def test_other_optimizer_state_fails_at_the_step(self):
        back, meta = deserialize(serialize(make_model(opt="sgd-momentum")), SPECS)
        assert meta.opt_kind == "sgd-momentum"
        with pytest.raises(ValueError, match="optimizer state is 'sgd-momentum'"):
            opt_step(back, np.zeros(back.theta.size), OptimizerConfig("adam", 1e-3), 1e-3)

    def test_deserialized_arrays_are_owned(self):
        data = serialize(golden_model("batchnorm-dropout-adam"))
        plan = transport._wire_plan(layout_of(SPECS), "adam")

        def arrays(model):
            return [model.theta, model.running, *model.opt_state.flat.values()]
        a, _ = deserialize(data, SPECS)
        b, _ = deserialize(data, SPECS)
        assert len(arrays(a)) == 4
        others = [np.frombuffer(data, np.uint8), plan.template, *plan.index, *arrays(b)]
        for x in arrays(a):
            assert x.flags.writeable
            assert not any(np.shares_memory(x, other) for other in others)
        for x in arrays(a):
            x[...] = 0.5
        again, _ = deserialize(data, SPECS)
        assert models_equal(again, b)
        assert serialize(again) == data

    def test_cached_arrays_are_read_only(self):
        serialize(make_model())
        plan = transport._wire_plan(layout_of(SPECS), "adam")
        for arr in (plan.template, *plan.index):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1


class TestPacketFiles:
    def test_fwt_file_roundtrip(self, tmp_path):
        m = make_model()
        data = serialize(m, global_epoch=5)
        path = tmp_path / "checkpoint.fwt"
        path.write_bytes(data)
        back, meta = deserialize(path.read_bytes(), SPECS)
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
    @pytest.mark.parametrize("kind", list(transport.CHANNELS))
    def test_handoff_returns_identical_bytes(self, kind):
        channel = transport.CHANNELS[kind]()
        try:
            data = serialize(make_model())
            assert channel.handoff(data) == data
        finally:
            channel.close()

    def test_unknown_kind(self):
        """A run's config refuses a transport that CHANNELS does not name,
        and the error lists the ones it does."""
        with pytest.raises(ValueError, match="memory, socket, got 'carrier-pigeon'"):
            ExperimentConfig(SPECS, OptimizerConfig("adam", 1e-3), PlateauPolicy(20, 0.25, 3),
                             transport="carrier-pigeon")

    @pytest.mark.parametrize("target, name, error", [
        (socket, "socketpair", OSError(24, "Too many open files")),
        (threading.Thread, "start", RuntimeError("can't start new thread")),
    ], ids=["socketpair", "thread_start"])
    def test_failed_setup_leaves_nothing_open(self, monkeypatch, target, name, error):
        """A channel that cannot make its socket pair or start its courier
        raises, and leaves no socket open and no courier running."""
        pairs, real_socketpair = [], socket.socketpair

        def socketpair():
            pairs.append(real_socketpair())
            return pairs[-1]

        def fail(*args, **kwargs):
            raise error
        before = set(threading.enumerate())
        monkeypatch.setattr(socket, "socketpair", socketpair)
        monkeypatch.setattr(target, name, fail)
        with pytest.raises(type(error), match=str(error.args[-1])):
            SocketChannel()
        assert all(sock.fileno() == -1 for pair in pairs for sock in pair)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("reads_frame", [False, True], ids=["never_reads", "reads_frame"])
    def test_stalled_courier_times_out(self, monkeypatch, reads_frame):
        """A courier that never reads the frame, so the send stalls once the
        socket buffers fill, or reads it but never echoes it, so the receive
        stalls, fails the hand-off within HANDOFF_TIMEOUT_S instead of hanging."""
        released = threading.Event()

        class StalledChannel(SocketChannel):
            def _serve(self, conn):
                with conn:
                    if reads_frame:
                        recv_frame(conn)
                    released.wait()

        monkeypatch.setattr(transport, "HANDOFF_TIMEOUT_S", 0.2)
        channel = StalledChannel()
        try:
            start = time.monotonic()
            with pytest.raises(TransferFailedError, match="hand-off failed: timed out"):
                channel.handoff(bytes(4 << 20))  # many times a socket buffer
            assert time.monotonic() - start < 10 * transport.HANDOFF_TIMEOUT_S
        finally:
            released.set()
            channel.close()
        assert not channel._thread.is_alive()

    def test_altered_echo_is_corruption(self):
        """A courier that returns other bytes than it was given fails the
        hand-off with CorruptionError."""
        class AlteringChannel(SocketChannel):
            def _serve(self, conn):
                with conn:
                    frame = recv_frame(conn)
                    send_frame(conn, frame[:-1] + bytes([frame[-1] ^ 1]))

        channel = AlteringChannel()
        try:
            with pytest.raises(CorruptionError, match="loopback frame mismatch"):
                channel.handoff(serialize(make_model()))
        finally:
            channel.close()
        assert not channel._thread.is_alive()

    def test_socket_channel_large_packets(self):
        """A 4 MiB packet, many times a socket buffer, makes 20 round trips
        without a stall: each end reads while the other writes."""
        data = bytes(np.random.default_rng(0).integers(0, 256, 4 << 20, dtype=np.uint8))
        channel = SocketChannel()
        try:
            for _ in range(20):
                assert channel.handoff(data) == data
        finally:
            channel.close()

    def test_socket_channel_many_handoffs(self):
        channel = SocketChannel()
        try:
            data = serialize(make_model())
            for i in range(10):
                assert channel.handoff(data) == data
        finally:
            channel.close()
