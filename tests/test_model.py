import hashlib
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import model as md
from ecgres import nn
from ecgres import segment as sg
from ecgres.errors import CheckpointError, NumericError, ShapeError, SizeError
from ecgres.wfdb_io import BeatClass

from conftest import fd_gradient, rel_error
from test_segment import make_segment


# the config block of a seed-0 checkpoint: the fixed architecture, then the seed
CONFIG_BLOCK = "".join(
    f"{k}={v}\n" for k, v in {**md.ARCHITECTURE, "seed": 0}.items()).encode()


@pytest.fixture
def small_model():
    return md.build_model(md.ModelConfig(seed=1))


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "m.ecgm"
    md.save_checkpoint(md.build_model(md.ModelConfig(seed=0)), path)
    return path.read_bytes()


class TestBuildModel:
    def test_length_chain(self, small_model):
        h, seen = np.zeros((2, 1, 180)), [180]
        for layer in small_model.layers:
            h = layer.forward(h)
            if h.ndim == 3 and h.shape[2] != seen[-1]:
                seen.append(h.shape[2])
        assert seen == [180, 90, 45, 23, 12, 6]
        assert small_model.fc1.params["w"].shape == (64, 18 * 6)
        assert h.shape == (2, len(BeatClass))

    def test_seed_determinism(self):
        m1 = md.build_model(md.ModelConfig(seed=9))
        m2 = md.build_model(md.ModelConfig(seed=9))
        for k, v in m1.params().items():
            assert np.array_equal(v, m2.params()[k]), k

    def test_different_seeds_differ(self):
        m1 = md.build_model(md.ModelConfig(seed=1))
        m2 = md.build_model(md.ModelConfig(seed=2))
        assert not np.array_equal(m1.params()["conv1.w"], m2.params()["conv1.w"])

    def test_layer_list_covers_named_layers(self, small_model):
        names = ["conv1", "pool1", "relu1", "conv2", "pool2", "relu2", "res_conv1",
                 "res_relu", "res_conv2", "res_proj", "relu3", "fc1", "relu4", "fc2"]
        assert list(small_model._named) == names
        assert all(getattr(small_model, n) is small_model._named[n] for n in names)
        assert list(small_model.params()) == [
            f"{n}.{p}" for n in ("conv1", "conv2", "res_conv1", "res_conv2", "res_proj",
                                 "fc1", "fc2") for p in ("w", "b")]

    def test_backward_returns_input_shaped_gradient(self, small_model):
        # every named layer's backward returns a gradient shaped like its
        # forward input; perfbench counts conv MACs from that shape
        seen = {}
        for name, layer in small_model._named.items():
            def fwd(x, *args, name=name, f=layer.forward, **kwargs):
                seen[name] = [x.shape]
                return f(x, *args, **kwargs)

            def bwd(g, name=name, b=layer.backward):
                gx = b(g)
                seen[name].append(gx.shape)
                return gx

            layer.forward, layer.backward = fwd, bwd
        x = np.random.default_rng(3).standard_normal((4, 1, 180))
        small_model.backward(np.ones_like(small_model.forward(x)))
        assert len(seen) == 14
        for name, (x_shape, gx_shape) in seen.items():
            assert gx_shape == x_shape, name

    def test_biases_zero(self, small_model):
        for name, arr in small_model.params().items():
            if name.endswith(".b"):
                assert np.all(arr == 0)


class TestForward:
    def test_zero_input_equal_logits(self):
        # fresh zero-bias model: zeros propagate, every class gets the same logit
        m = md.build_model(md.ModelConfig(seed=3))
        logits = m.forward(np.zeros((2, 1, 180), dtype=np.float32))
        assert np.allclose(logits, logits[:, :1], atol=1e-7)

    def test_softmax_rows_sum(self, small_model):
        x = np.random.default_rng(0).standard_normal((8, 1, 180)).astype(np.float32)
        probs = nn.softmax(small_model.forward(x))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_batch_independence(self, small_model):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((32, 1, 180)).astype(np.float32)
        full = small_model.forward(batch)
        single = small_model.forward(batch[7:8])
        assert np.abs(full[7] - single[0]).max() < 1e-6

    def test_pinned_logits_seed0(self):
        # float64 forward of a fixed 256-beat batch: any change to the
        # forward arithmetic (summation order included) shows here
        m = md.build_model(md.ModelConfig(seed=0))
        x = np.random.default_rng(0).standard_normal((256, 1, 180)).astype(np.float32)
        logits = m.forward(x)
        assert logits.dtype == np.float64
        assert hashlib.sha256(logits.tobytes()).hexdigest() == (
            "38ff7987040a36510132010f35dbc3b6e9b5d36806ba7cf0ba96b5a7c3574e26")

    def test_bad_shape(self, small_model):
        with pytest.raises(ShapeError):
            small_model.forward(np.zeros((1, 1, 100)))


class TestEndToEndGradient:
    def test_all_parameters_match_finite_differences(self):
        m = md.build_model(md.ModelConfig(seed=5))
        # float64 everywhere so the finite-difference probe is meaningful
        for layer in m._named.values():
            layer.params = {k: v.astype(np.float64) for k, v in layer.params.items()}
            for k in layer.params:
                if k == "b":
                    layer.params[k] = 0.01 * np.random.default_rng(0).standard_normal(
                        layer.params[k].shape
                    )
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 1, 180))
        labels = np.array([0, 1, 2, 4])

        def loss_fn():
            logits = m.forward(x)
            return nn.softmax_cross_entropy(logits, labels)[0]

        logits = m.forward(x)
        _, _, grad = nn.softmax_cross_entropy(logits, labels)
        m.backward(grad)
        analytic = {k: v.copy() for k, v in m.grads().items()}

        params = m.params()
        rng2 = np.random.default_rng(7)
        for name, p in params.items():
            # probe a random subset of coordinates per tensor
            flat = p.reshape(-1)
            n_probe = min(6, flat.size)
            coords = rng2.choice(flat.size, size=n_probe, replace=False)
            for idx in coords:
                orig = flat[idx]
                h = 1e-5
                flat[idx] = orig + h
                fp = loss_fn()
                flat[idx] = orig - h
                fm = loss_fn()
                flat[idx] = orig
                fd = (fp - fm) / (2 * h)
                an = analytic[name].reshape(-1)[idx]
                denom = max(abs(fd), abs(an), 1e-4)
                assert abs(fd - an) / denom < 1e-3, (name, idx, fd, an)


class TestTrain:
    def _toy_split(self, n=10, seed=0):
        segs = [make_segment(label=BeatClass(i % 5), ann=i, seed=i) for i in range(n)]
        return sg.DatasetSplit(segs, [], seed)

    def test_one_step_for_small_set(self):
        m = md.build_model(md.ModelConfig(seed=0))
        log = md.train(m, self._toy_split(10), md.TrainConfig(epochs=1))
        assert len(log.epochs) == 1

    def test_empty_training_set_rejected(self):
        # segments_to_arrays refuses an empty set, before any training
        with pytest.raises(SizeError, match="the dataset is empty"):
            md.train(md.build_model(), sg.DatasetSplit([], [], 0))

    def test_loss_decreases(self, synth_segments):
        segs = synth_segments[:200]
        split = sg.DatasetSplit(segs, [], 0)
        m = md.build_model(md.ModelConfig(seed=0))
        log = md.train(m, split, md.TrainConfig(epochs=20, shuffle_seed=0))
        assert log.epochs[-1].train_loss < log.epochs[0].train_loss

    def test_reproducible(self):
        split = self._toy_split(40)
        logs = []
        finals = []
        for _ in range(2):
            m = md.build_model(md.ModelConfig(seed=4))
            log = md.train(m, split, md.TrainConfig(epochs=3, shuffle_seed=4))
            logs.append([(e.train_loss, e.train_accuracy) for e in log.epochs])
            finals.append({k: v.copy() for k, v in m.params().items()})
        assert logs[0] == logs[1]
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k]), k

    def test_pinned_parameters_after_toy_run(self):
        # float64 compute with deterministic reductions: any change to the
        # forward/backward arithmetic or the Adam update shows here
        m = md.build_model(md.ModelConfig(seed=0))
        md.train(m, self._toy_split(40), md.TrainConfig(epochs=3, shuffle_seed=0))
        digest = hashlib.sha256(b"".join(p.tobytes() for p in m.params().values()))
        assert digest.hexdigest() == (
            "4358f7d30a95d88d17e3f379a09e12f54a44c188dfd984484a61eed1aef78552")

    def test_predict_between_epochs_keeps_pinned_parameters(self):
        # eval_each_epoch runs a cache-free predict_batch after every epoch;
        # the next epoch's cached forwards must leave training unchanged
        split = self._toy_split(40)
        split.test = self._toy_split(300).train
        m = md.build_model(md.ModelConfig(seed=0))
        log = md.train(m, split, md.TrainConfig(epochs=3, shuffle_seed=0,
                                                eval_each_epoch=True))
        assert all(e.test_accuracy is not None for e in log.epochs)
        digest = hashlib.sha256(b"".join(p.tobytes() for p in m.params().values()))
        assert digest.hexdigest() == (
            "4358f7d30a95d88d17e3f379a09e12f54a44c188dfd984484a61eed1aef78552")

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        # fc2's backward turns non-finite on its 7th call (epoch 2, batch 1 of
        # 5); the Adam step rejects the gradient and says where it was
        m = md.build_model(md.ModelConfig(seed=0))
        real, calls = m.fc2.backward, []

        def backward(g):
            calls.append(g)
            return real(g) * (np.inf if len(calls) == 7 else 1.0)

        monkeypatch.setattr(m.fc2, "backward", backward)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=r"^epoch 2, batch 1: non-finite values in gradient of "):
            md.train(m, self._toy_split(40),
                     md.TrainConfig(epochs=2, batch_size=8))
        assert len(calls) == 7

    def test_overfits_small_subset(self, synth_segments):
        # capacity check: 50 beats to 100% train accuracy within 200 epochs
        rng = np.random.default_rng(0)
        idx = rng.choice(len(synth_segments), 50, replace=False)
        split = sg.DatasetSplit([synth_segments[i] for i in idx], [], 0)
        m = md.build_model(md.ModelConfig(seed=0))
        log = md.train(m, split, md.TrainConfig(epochs=200, shuffle_seed=0))
        assert max(e.train_accuracy for e in log.epochs) == 1.0


class TestPredictBatch:
    @pytest.fixture(scope="class")
    def beats(self):
        return np.random.default_rng(0).standard_normal((4100, 1, 180)).astype(np.float32)

    @pytest.mark.parametrize("n", [1, 255, 256, 300, 513, 4100])
    def test_logits_bit_equal_to_one_cached_forward(self, beats, n, monkeypatch):
        # chunks of >= PREDICT_ROWS rows keep every GEMM on the kernels a
        # single whole-batch forward uses; a short tail chunk would not
        m = md.build_model(md.ModelConfig(seed=0))
        x = beats[:n]
        want = m.forward(x)
        seen = []
        softmax = nn.softmax
        monkeypatch.setattr(nn, "softmax", lambda z: seen.append(z) or softmax(z))
        pred, probs = md.predict_batch(m, x)
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        assert np.array_equal(probs, softmax(want))
        assert np.array_equal(pred, want.argmax(axis=1))

    def test_keeps_no_backward_state(self, beats, small_model):
        small_model.forward(beats[:4])  # a cached forward, as training leaves it
        small_model.backward(np.ones((4, 5)))
        md.predict_batch(small_model, beats[:300])
        for name, layer in small_model._named.items():
            for attr in ("_cols", "_mask", "_arg", "_x"):
                assert getattr(layer, attr, None) is None, (name, attr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_the_input_unchanged(self, beats, small_model, dtype):
        # uncached ReLUs write in place; none of them may reach the caller's x
        x = beats[:300].astype(dtype)
        before = x.tobytes()
        md.predict_batch(small_model, x)
        assert x.tobytes() == before
        small_model.forward(x, cache=False)
        assert x.tobytes() == before

    @pytest.mark.parametrize("cache", [True, False])
    def test_activations_are_channel_major(self, beats, small_model, cache, monkeypatch):
        # every conv, ReLU and pool output before Flatten is a (batch,
        # channels, length) view of a C-ordered (channels, batch, length) array
        seen = {}
        for name, layer in small_model._named.items():
            def forward(x, cache=True, name=name, inner=layer.forward):
                seen[name] = inner(x, cache=cache)
                return seen[name]
            monkeypatch.setattr(layer, "forward", forward)
        small_model.forward(beats[:8], cache=cache)
        before_flatten = [n for n in seen if seen[n].ndim == 3]
        assert before_flatten == ["conv1", "pool1", "relu1", "conv2", "pool2", "relu2",
                                  "res_conv1", "res_relu", "res_conv2", "res_proj", "relu3"]
        for name in before_flatten:
            assert seen[name].transpose(1, 0, 2).flags.c_contiguous, name

    def test_two_threads_match_a_serial_run(self, beats, small_model):
        # uncached forwards keep no shared state, so two threads may run one
        # model at once; each thread has its own rows, and any memory the two
        # shared would show as wrong bytes
        xs = [beats[:512], beats[512:1024]]
        want = [md.predict_batch(small_model, x)[1].tobytes() for x in xs]
        got = [[], []]
        start = threading.Barrier(2, timeout=10)

        def work(i):
            start.wait()
            for _ in range(4):
                got[i].append(md.predict_batch(small_model, xs[i])[1].tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[0]] * 4, [want[1]] * 4]

    def test_evaluate_accuracy_is_share_of_predictions(self, beats, small_model):
        x = beats[:300]
        pred, _ = md.predict_batch(small_model, x)
        labels = np.arange(300) % 5
        assert md.evaluate_accuracy(small_model, x, labels) == (
            int((pred == labels).sum()) / 300)
        assert md.evaluate_accuracy(small_model, x, pred) == 1.0


class TestPredict:
    def test_probabilities_valid(self, small_model):
        x, _ = sg.segments_to_arrays(make_segment(seed=3))
        pred, probs = md.predict_batch(small_model, x)
        assert pred.shape == (1,) and 0 <= pred[0] < len(BeatClass)
        assert probs.shape == (1, len(BeatClass))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_shift_invariance(self, small_model):
        x = np.random.default_rng(2).standard_normal((1, 1, 180)).astype(np.float32)
        logits = small_model.forward(x)
        p1 = nn.softmax(logits)
        p2 = nn.softmax(logits + 123.0)
        assert np.allclose(p1, p2, atol=1e-9)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, small_model, tmp_path):
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(small_model, path)
        loaded = md.load_checkpoint(path)
        assert loaded.config == small_model.config
        for k, v in small_model.params().items():
            assert np.array_equal(v, loaded.params()[k]), k

    def test_pinned_bytes_seed0(self, tmp_path):
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(md.build_model(md.ModelConfig(seed=0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "588457c83490774d1c85d72329d36e6fc6d3515cef7cf56c52c18f8e08acbd86")

    def test_truncated_rejected(self, small_model, tmp_path):
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(small_model, path)
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(CheckpointError):
            md.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ecgm"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(CheckpointError):
            md.load_checkpoint(path)

    def test_config_mismatch_named(self, small_model, tmp_path):
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(small_model, path)
        # corrupt the config echo: claim a different hidden width
        data = path.read_bytes()
        data = data.replace(b"fc_hidden=64", b"fc_hidden=32")
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="fc_hidden"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("field", list(md.ARCHITECTURE))
    def test_other_architecture_rejected(self, small_model, tmp_path, monkeypatch, field):
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(small_model, path)
        value = md.ARCHITECTURE[field]
        path.write_bytes(path.read_bytes().replace(f"{field}={value}\n".encode(),
                                                   f"{field}={value + 1}\n".encode()))
        monkeypatch.setattr(md.Model, "__init__", refuse_model)
        with pytest.raises(CheckpointError, match=f"config {field}: '{field}={value + 1}'"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("block, named", [
        (b"", "seed"),
        (b"seed=0\n", "input_length"),
        (b"fc_hidden=64\nseed=0\n", "input_length"),
        (CONFIG_BLOCK.replace(b"fc_hidden=64\n", b""), "fc_hidden"),
        (CONFIG_BLOCK.replace(b"fc_hidden=64", b"fc_hidden=+64"), "fc_hidden"),
        (CONFIG_BLOCK.replace(b"fc_hidden=64", b"fc_hidden=64\nfc_hidden=64"), "num_classes"),
        (CONFIG_BLOCK.replace(b"conv_filters=18\nconv_kernel=3",
                              b"conv_kernel=3\nconv_filters=18"), "conv_filters"),
        (CONFIG_BLOCK.replace(b"seed=", b"dropout=1\nseed="), "dropout"),
        (CONFIG_BLOCK + b"dropout=1\n", "seed"),
        (CONFIG_BLOCK.replace(b"seed=0\n", b""), "seed"),
        (CONFIG_BLOCK.replace(b"seed=0", b"seed=-1"), "seed"),
        (CONFIG_BLOCK.replace(b"seed=0", b"seed=1.5"), "seed"),
        (CONFIG_BLOCK.replace(b"seed=0", b"seed="), "seed"),
    ])
    def test_config_block_rejected(self, checkpoint_bytes, tmp_path, monkeypatch, block,
                                   named):
        path = tmp_path / "m.ecgm"
        path.write_bytes(with_config(checkpoint_bytes, block))
        monkeypatch.setattr(md.Model, "__init__", refuse_model)
        with pytest.raises(CheckpointError, match=f"config {named}: "):
            md.load_checkpoint(path)

    def test_config_block_is_architecture_then_seed(self, checkpoint_bytes, tmp_path):
        assert checkpoint_bytes[10 : 10 + len(CONFIG_BLOCK)] == CONFIG_BLOCK
        path = tmp_path / "m.ecgm"
        path.write_bytes(with_config(checkpoint_bytes, CONFIG_BLOCK.replace(b"seed=0",
                                                                            b"seed=12")))
        assert md.load_checkpoint(path).config == md.ModelConfig(seed=12)

    def test_repeated_tensor_rejected(self, checkpoint_bytes, tmp_path):
        # fc2.b, the last record, once more after a full set of tensors
        record = checkpoint_bytes[-(2 + 5 + 1 + 4 + 4 * 5):]
        assert record[2:7] == b"fc2.b"
        path = tmp_path / "m.ecgm"
        path.write_bytes(checkpoint_bytes + record)
        with pytest.raises(CheckpointError, match="32 trailing bytes after tensor fc2.b"):
            md.load_checkpoint(path)

    def test_reordered_tensors_rejected(self, checkpoint_bytes, tmp_path):
        # the same two records the writer gives, conv1.b before conv1.w
        head, (w, b, *rest) = split_records(checkpoint_bytes)
        path = tmp_path / "m.ecgm"
        path.write_bytes(head + b + w + b"".join(rest))
        with pytest.raises(CheckpointError, match="tensor conv1.w") as e:
            md.load_checkpoint(path)
        assert e.value.exit_code == 5

    @pytest.mark.parametrize("edit", ["unknown", "misshapen", "missing"])
    def test_other_records_named(self, checkpoint_bytes, tmp_path, edit):
        head, records = split_records(checkpoint_bytes)
        name = "conv2.b"
        at = list(SHAPES).index(name)
        if edit == "unknown":
            records[at] = records[at].replace(b"conv2.b", b"conv2.c")
        elif edit == "misshapen":
            records[at] = struct.pack("<H7sBI", 7, b"conv2.b", 1, 19) + bytes(4 * 19)
        else:
            del records[at]
        path = tmp_path / "m.ecgm"
        path.write_bytes(head + b"".join(records))
        with pytest.raises(CheckpointError, match=f"tensor {name} "):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, small_model, tmp_path, value):
        small_model.fc2.params["b"][2] = value
        path = tmp_path / "m.ecgm"
        md.save_checkpoint(small_model, path)
        with pytest.raises(CheckpointError, match="tensor fc2.b holds non-finite values"):
            md.load_checkpoint(path)


def refuse_model(*args):
    raise AssertionError("Model built from a rejected config block")


def split_records(data: bytes) -> tuple[bytes, list[bytes]]:
    """Checkpoint bytes `data` as the bytes up to the first tensor record and
    the list of tensor records, each header plus data, in file order."""
    (size,) = struct.unpack_from("<I", data, 6)
    pos, records = 10 + size, []
    for name, shape in SHAPES.items():
        end = pos + 2 + len(name) + 1 + 4 * len(shape) + 4 * int(np.prod(shape))
        records.append(data[pos:end])
        pos = end
    assert pos == len(data)
    return data[:10 + size], records


def with_config(data: bytes, block: bytes) -> bytes:
    """Checkpoint bytes `data` with `block` in place of their config block."""
    (size,) = struct.unpack_from("<I", data, 6)
    return data[:6] + struct.pack("<I", len(block)) + block + data[10 + size:]


SHAPES = {name: arr.shape for name, arr in md.build_model().params().items()}

CONFIG_KEYS = st.sampled_from([*md.ARCHITECTURE, "seed"]) | st.text(max_size=12)
CONFIG_VALUES = (st.integers(-3, 2**40).map(str) | st.text(max_size=12)
                 | st.sampled_from([str(v) for v in md.ARCHITECTURE.values()]))


@st.composite
def config_blocks(draw):
    """Config blocks near the valid one (up to three lines changed, added or
    dropped) and arbitrary ones."""
    if draw(st.booleans()):
        lines = [(k, str(v)) for k, v in {**md.ARCHITECTURE, "seed": 0}.items()]
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(lines)))
            edit = draw(st.sampled_from(["value", "add", "drop"]))
            if edit == "value" and at < len(lines):
                lines[at] = (lines[at][0], draw(CONFIG_VALUES))
            elif edit == "drop" and at < len(lines):
                del lines[at]
            else:
                lines.insert(at, (draw(CONFIG_KEYS), draw(CONFIG_VALUES)))
    else:
        lines = draw(st.lists(st.tuples(CONFIG_KEYS, CONFIG_VALUES), max_size=14))
    return "".join(f"{k}={v}\n" for k, v in lines).encode()


def structural_ends(data: bytes) -> list[int]:
    """Every offset in the header, the config block and each tensor's name,
    rank and dims, and the first and last 8 bytes of each tensor's data."""
    (size,) = struct.unpack_from("<I", data, 6)
    ends, pos = list(range(10 + size)), 10 + size
    for name, shape in SHAPES.items():
        head = 2 + len(name) + 1 + 4 * len(shape)
        end = pos + head + 4 * int(np.prod(shape))
        ends += [*range(pos, pos + head + 8), *range(end - 8, end)]
        pos = end
    assert pos == len(data)
    return ends


class TestLoadCheckpointFuzz:
    """Whatever the bytes, `load_checkpoint` gives a model of the fixed shapes
    with finite parameters or raises a `CheckpointError`."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "m.ecgm"

    @staticmethod
    def _load(path, data):
        """The loaded model, or None after a CheckpointError."""
        path.write_bytes(data)
        try:
            model = md.load_checkpoint(path)
        except CheckpointError:
            return None
        params = model.params()
        assert {name: arr.shape for name, arr in params.items()} == SHAPES
        assert all(np.all(np.isfinite(arr)) for arr in params.values())
        return model

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400) | st.binary(max_size=400).map(
        lambda tail: struct.pack("<H", md.CHECKPOINT_VERSION) + tail))
    def test_arbitrary_bytes_after_magic(self, path, tail):
        self._load(path, md.CHECKPOINT_MAGIC + tail)

    @settings(max_examples=300, deadline=None)
    @given(block=config_blocks())
    def test_arbitrary_config_block(self, checkpoint_bytes, path, block):
        model = self._load(path, with_config(checkpoint_bytes, block))
        if model is not None:
            *lines, seed = block.decode().splitlines()
            assert lines == CONFIG_BLOCK.decode().splitlines()[:-1]
            assert int(seed.removeprefix("seed=")) == model.config.seed

    def test_every_structural_truncation(self, checkpoint_bytes, path):
        for end in structural_ends(checkpoint_bytes):
            assert self._load(path, checkpoint_bytes[:end]) is None, end

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_truncation(self, checkpoint_bytes, path, data):
        end = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
        assert self._load(path, checkpoint_bytes[:end]) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 255))
    def test_single_byte_mutation(self, checkpoint_bytes, path, data, flip):
        mutated = bytearray(checkpoint_bytes)
        mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= flip
        self._load(path, bytes(mutated))
