"""The residual 1D CNN: architecture assembly, training loop, checkpoints.

Layer graph (`ARCHITECTURE`, lengths in parentheses):

    input (1x180)
      -> Conv(18, k3, s2, p1)               (90)
      -> MaxPool(2, 2) + ReLU               (45)
      -> Conv(18, k3, s2, p1)               (23)
      -> MaxPool(2, 2, ceil) + ReLU         (12)
      -> [ Conv(18, k7, s2, p3) + ReLU -> Conv(18, k7, s1, p3) ]   (6)
         + Conv(18, k1, s2) projection shortcut
      -> ReLU -> Flatten (108) -> Dense(64) + ReLU -> Dense(5)

The paper's order is conv -> ReLU -> pool. Here each ReLU runs after its
pool, on half the length, and the network is the same: ReLU is monotone, so
max(relu(a), relu(b)) == relu(max(a, b)) for every input but -0.0, which a
conv output never is (its bias would have to be -0.0, which neither the
initialisation nor Adam makes). In either order the gradient reaches the
first maximum of a window exactly when that maximum is positive; only the
sign of a zero gradient may differ, which Adam's update does not see.
"""
from __future__ import annotations

import itertools
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import atomic, nn
from .errors import CheckpointError, EcgresError, NumericError
from .segment import SEGMENT_SAMPLES, DatasetSplit, segments_to_arrays
from .wfdb_io import BeatClass

# Inference runs in chunks of at least this many rows, so activation memory
# does not grow with the batch. Each chunk allocates its arrays afresh, such
# as conv2's 2.5 MB im2col matrix; glibc reuses arrays above its initial
# 128 KiB mmap threshold only once freeing one has raised that threshold.
# On 4,096 beats a predict_batch call after the first takes no minor page
# faults, but ~57k and 2.4x the time when MALLOC_MMAP_THRESHOLD_ holds the
# threshold fixed. On OpenBLAS's SkylakeX kernels, fc2's
# (rows x 64)·(64 x 5) product switches to a kernel with different rounding
# below ~255 rows, so a short trailing chunk would change logits;
# np.array_split spreads the remainder over the chunks instead.
PREDICT_ROWS = 256


# The paper's network, the only one `Model` builds. A checkpoint's config
# block is these values as "key=value" lines in this order, then its seed.
ARCHITECTURE = {
    "input_length": SEGMENT_SAMPLES, "conv_filters": 18, "conv_kernel": 3,
    "conv_stride": 2, "pool_window": 2, "pool_stride": 2, "res_kernel": 7,
    "res_stride": 2, "res_filters": 18, "fc_hidden": 64, "num_classes": len(BeatClass),
}


@dataclass(frozen=True)
class ModelConfig:
    seed: int = 0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 0.001
    shuffle_seed: int = 0
    eval_each_epoch: bool = False


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float | None
    seconds: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,test_acc,seconds"]
        for e in self.epochs:
            test = "" if e.test_accuracy is None else f"{e.test_accuracy:.6f}"
            lines.append(
                f"{e.epoch},{e.train_loss:.6f},{e.train_accuracy:.6f},{test},{e.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


class Model:
    """Parameter container: one ordered layer list is the whole architecture.

    Each layer is also an attribute (`conv1` ... `fc2`) whose name prefixes
    its tensor names in `params()` and checkpoints. Each `params[k]` is a
    view of one float32 vector `theta`, in `params()` order, which Adam
    updates and `load_checkpoint` fills. Rebinding a `params[k]` detaches it
    from training, as the finite-difference tests do (forward and backward only).
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        # the two _ are pool_window and pool_stride: they name the pool's fixed pair
        n, f, k, s, _, _, rk, rs, r, hidden, classes = ARCHITECTURE.values()
        rng = np.random.default_rng(config.seed)
        self._named: dict[str, nn.Layer] = {}

        def named(name, layer):
            self._named[name] = layer
            setattr(self, name, layer)
            return layer

        self.layers = [
            named("conv1", nn.Conv1d(1, f, k, s, k // 2, rng)),
            named("pool1", nn.MaxPool1d()),
            named("relu1", nn.ReLU()),
            named("conv2", nn.Conv1d(f, f, k, s, k // 2, rng)),
            named("pool2", nn.MaxPool1d()),
            named("relu2", nn.ReLU()),
            nn.Residual(
                [named("res_conv1", nn.Conv1d(f, r, rk, rs, rk // 2, rng)),
                 named("res_relu", nn.ReLU()),
                 named("res_conv2", nn.Conv1d(r, r, rk, 1, rk // 2, rng))],
                named("res_proj", nn.Conv1d(f, r, 1, rs, 0, rng)),
            ),
            named("relu3", nn.ReLU()),
        ]
        # fc1 reads the residual block's output: the shortcut sets its length
        for layer in (self.conv1, self.pool1, self.conv2, self.pool2, self.res_proj):
            n = layer.out_length(n)
        self.layers += [
            nn.Flatten(),
            named("fc1", nn.Dense(r * n, hidden, rng)),
            named("relu4", nn.ReLU()),
            named("fc2", nn.Dense(hidden, classes, rng)),
        ]
        self.theta = np.concatenate([p.ravel() for p in self.params().values()])
        self._gradient = np.empty(self.theta.size)
        views = iter(np.split(self.theta, np.cumsum([p.size for p in self.params().values()])))
        for layer in self._named.values():
            layer.params = {k: next(views).reshape(p.shape) for k, p in layer.params.items()}

    def params(self) -> dict[str, np.ndarray]:
        return {f"{lname}.{pname}": arr for lname, layer in self._named.items()
                for pname, arr in layer.params.items()}

    def gradient(self) -> np.ndarray:
        """The last backward's gradients in `params()` order, in one float64
        vector that the model keeps and the next call writes over."""
        grads = [layer.grads[k] for layer in self._named.values() for k in layer.params]
        np.concatenate([g.ravel() for g in grads], out=self._gradient)
        if not np.all(np.isfinite(self._gradient)):
            for name, g in zip(self.params(), grads):
                nn.check_finite(g, f"gradient of {name}")
        return self._gradient

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Logits; `cache=False` keeps nothing for `backward`. `x` is never
        written: its first reader is conv1."""
        if x.ndim != 3 or x.shape[1:] != (1, SEGMENT_SAMPLES):
            raise EcgresError(f"expected (batch, 1, {SEGMENT_SAMPLES}), got {x.shape}")
        nn.check_finite(x, "model input")
        # a float64 copy in the batch-innermost layout the conv stack keeps
        h = x.transpose(1, 2, 0).astype(np.float64, order="C").transpose(2, 0, 1)
        for layer in self.layers:
            h = layer.forward(h, cache=cache)
        return h

    def backward(self, grad_logits: np.ndarray) -> None:
        g = grad_logits
        for layer in reversed(self.layers):
            g = layer.backward(g)


def build_model(config: ModelConfig = ModelConfig()) -> Model:
    return Model(config)


def evaluate_accuracy(model: Model, x: np.ndarray, labels: np.ndarray) -> float:
    pred, _ = predict_batch(model, x)
    return int((pred == labels).sum()) / len(x)


def predict_batch(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(predicted class ids, per-class probabilities), from a forward
    without backward caches over chunks of at least PREDICT_ROWS rows."""
    chunks = np.array_split(x, max(1, len(x) // PREDICT_ROWS))
    logits = np.concatenate([model.forward(c, cache=False) for c in chunks])
    probs = nn.softmax(logits)
    return probs.argmax(axis=1), probs


def train(model: Model, split: DatasetSplit, tc: TrainConfig = TrainConfig(),
          verbose: bool = False) -> TrainLog:
    x_train, y_train = segments_to_arrays(split.train)
    x_test, y_test = (segments_to_arrays(split.test) if split.test else (None, None))
    opt = nn.Adam(model.theta, lr=tc.learning_rate)
    rng = np.random.default_rng(tc.shuffle_seed)
    log = TrainLog()
    n = len(x_train)
    for epoch in range(1, tc.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            logits = model.forward(xb)
            try:
                loss, probs, grad = nn.softmax_cross_entropy(logits, yb)
                if not np.isfinite(loss):
                    raise NumericError("non-finite loss")
                model.backward(grad)
                opt.step(model.gradient())
            except NumericError as e:
                raise NumericError(
                    f"epoch {epoch}, batch {start // tc.batch_size}: {e}"
                ) from e
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == yb).sum())
        test_acc = None
        if tc.eval_each_epoch and x_test is not None:
            test_acc = evaluate_accuracy(model, x_test, y_test)
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            train_accuracy=correct / n,
            test_accuracy=test_acc,
            seconds=time.perf_counter() - t0,
        )
        log.epochs.append(stats)
        if verbose:
            extra = "" if test_acc is None else f"  test_acc={test_acc:.4f}"
            print(
                f"epoch {epoch:4d}/{tc.epochs}  loss={stats.train_loss:.4f}  "
                f"train_acc={stats.train_accuracy:.4f}{extra}  "
                f"({stats.seconds:.1f}s)",
                flush=True,
            )
    return log


# --- checkpoint file: magic "ECGM", version u16, u32-length config text block
#     ("key=value\n" lines: ARCHITECTURE, then seed), then each tensor of
#     `Model.params()` in its order: u16 name length + name, u8 rank, u32 dims,
#     little-endian float32 data. Nothing may follow the last tensor ---

CHECKPOINT_MAGIC = b"ECGM"
CHECKPOINT_VERSION = 1


def _record_header(name: str, shape: tuple[int, ...]) -> bytes:
    """A tensor record's bytes before its data: name length, name, rank, dims."""
    nb = name.encode()
    return struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape)


def save_checkpoint(model: Model, path) -> None:
    config = {**ARCHITECTURE, "seed": model.config.seed}
    cfg = "".join(f"{k}={v}\n" for k, v in config.items()).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(cfg)), cfg]
    for name, arr in model.params().items():
        parts += [_record_header(name, arr.shape),
                  np.ascontiguousarray(arr, dtype="<f4").tobytes()]
    atomic.write_bytes(path, b"".join(parts))


def _read_config(path, text: str) -> ModelConfig:
    """The config of a block that is ARCHITECTURE's lines in order, then a
    seed >= 0; any other block names its first field that differs."""
    *lines, last = text.splitlines() or [""]
    key, _, seed = last.partition("=")
    if key != "seed" or not seed.isdecimal():
        raise CheckpointError(f"{path}: config seed: {last!r} is not seed=<integer >= 0>")
    want = [f"{k}={v}" for k, v in ARCHITECTURE.items()]
    for line, expected in itertools.zip_longest(lines, want, fillvalue=""):
        if line != expected:
            field = (expected or line).partition("=")[0]
            raise CheckpointError(
                f"{path}: config {field}: {line!r} where this network has {expected!r}")
    return ModelConfig(seed=int(seed))


def load_checkpoint(path) -> Model:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    try:
        (version,) = struct.unpack_from("<H", data, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (cfg_len,) = struct.unpack_from("<I", data, 6)
        model = Model(_read_config(path, data[10 : 10 + cfg_len].decode()))
        pos = 10 + cfg_len
        for name, param in model.params().items():
            head = _record_header(name, param.shape)
            if data[pos : pos + len(head)] != head:
                raise CheckpointError(
                    f"{path}: no record of tensor {name} {param.shape} at byte {pos}")
            pos += len(head)
            arr = np.frombuffer(data, dtype="<f4", count=param.size, offset=pos)
            pos += arr.nbytes
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
            param[...] = arr.reshape(param.shape)
        if pos != len(data):
            raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes after tensor {name}")
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from e
    return model
