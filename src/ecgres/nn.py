"""Minimal deterministic tensor engine with hand-written gradients.

Parameters are stored as float32; layers compute in the dtype of their
input, which the model makes float64. Activations are shaped (batch,
channels, length), or (batch, features) after `Flatten`. Up to `Flatten`
their memory is channel-major: each is a `.transpose(1, 0, 2)` view of a
C-contiguous (channels, batch, length) array, the layout that a conv's GEMM
writes and the next conv's im2col reads; `Flatten` copies into the
(channels, length) feature order. Caching is per call: `forward(x)` keeps
what the next `backward` needs, while `forward(x, cache=False)` computes the
same output, keeps no backward state and drops what an earlier call kept, so
inference holds no activations beyond the one in flight. Parameter gradients
land in the layer's `grads` dict. No autodiff graph: a model is an ordered
layer list, run forward in order and backward in reverse.

An uncached forward keeps nothing, no layer reads in `forward` what it
stores for `backward`, and `nn` keeps no state outside its objects, so
threads may run uncached forwards of one model at once. Each
`Conv1d.forward` builds a fresh im2col matrix, kept only by a cached
forward, and returns its GEMM's fresh output. An uncached `ReLU` writes over
its input (in the model, every ReLU reads an array the layer before it has
just made). The flag and the in-place ReLU are kept for speed: on perfbench
`classify`, inference through cached forwards ran ~30% slower, and an
uncached ReLU that writes a new array ~3% slower.

`Conv1d` is lowered to matrix products (im2col): its forward fills a
(channels*kernel, batch*length) matrix tap by tap with strided slices of the
unpadded input, zeroing the positions that read padding, and multiplies the
(out_channels, channels*kernel) weights by it; its backward is one product
for the weight gradient and one for the window gradients, which one
`np.bincount` adds into the unpadded input gradient (col2im). It adds each
input position's taps in tap order, starting from 0.0, so its sums are
those of a loop of per-tap adds. Its index (the input position of each
im2col entry) depends only on the batch size and length; a conv keeps the
last two it built, training's full and last batch. At batch 32 the model's
five convs hold 100,224 indices, 0.8 MB of intp.
"""
from __future__ import annotations

import numpy as np

from .errors import LabelError, NumericError, ShapeError


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


class Layer:
    """Base: parameterless layers leave params/grads empty."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv1d(Layer):
    """Cross-correlation with bias: y[b,o,i] = b[o] + sum_{c,m} w[o,c,m] x[b,c,i*s+m-p]."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / (in_channels * kernel))
        self.params["w"] = rng.uniform(
            -bound, bound, (out_channels, in_channels, kernel)
        ).astype(np.float32)
        self.params["b"] = np.zeros(out_channels, dtype=np.float32)
        self._col2im: dict[tuple[int, int], np.ndarray] = {}

    def out_length(self, n):
        return (n + 2 * self.padding - self.kernel) // self.stride + 1

    def forward(self, x, cache=True):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv1d expects (batch, {self.in_channels}, length), got {x.shape}"
            )
        if x.shape[2] + 2 * self.padding < self.kernel:
            raise ShapeError(
                f"input length {x.shape[2]} + 2*{self.padding} pad < kernel {self.kernel}"
            )
        b_, c, n = x.shape
        lo, k, o = self.out_length(n), self.kernel, len(self.params["w"])
        # im2col: rows (channel, tap), columns (batch, position); tap m of
        # position i reads x[i*stride + m - padding], and positions outside
        # [0, n) read zero
        cols = np.empty((c, k, b_, lo), dtype=x.dtype)
        xc = x.transpose(1, 0, 2)
        for m, i0, i1, src in self._taps(n, lo):
            cols[:, m, :, :i0] = 0.0
            cols[:, m, :, i0:i1] = xc[:, :, src]
            cols[:, m, :, i1:] = 0.0
        cols = cols.reshape(c * k, b_ * lo)
        self._cols = cols if cache else None
        self._x_shape = x.shape
        # compute in the activation dtype (float64 in the model); the BLAS
        # may still pick its kernel by the batch size, which is why inference
        # splits batches into chunks of at least model.PREDICT_ROWS rows
        w = self.params["w"].astype(x.dtype, copy=False)
        y = w.reshape(o, -1) @ cols
        y += self.params["b"].astype(x.dtype, copy=False)[:, None]
        # the channel-major view costs no copy
        return y.reshape(o, b_, lo).transpose(1, 0, 2)

    def _taps(self, n, lo):
        """(m, i0, i1, src) per tap m: of the lo output positions, positions
        i0 <= i < i1 read an input inside [0, n), namely x[..., src]; i0 == i1
        when none does, and then src is empty."""
        s, p = self.stride, self.padding
        for m in range(self.kernel):
            i0 = min(lo, max(0, -((m - p) // s)))
            i1 = max(i0, min(lo, (n - 1 + p - m) // s + 1))
            j0 = max(0, i0 * s + m - p)
            yield m, i0, i1, slice(j0, j0 + (i1 - i0) * s, s)

    def _col2im_index(self, b_, n, lo):
        """Flat (channels, batch, n) input position of each im2col entry (c, m,
        b, i), in im2col order: c*b_*n + b*n + i*stride + m - padding, or the
        extra bin c*b_*n when the entry reads padding."""
        c = self.in_channels
        m = np.arange(self.kernel) - self.padding
        j = (np.arange(lo) * self.stride + m[:, None])[:, None, :]
        rows = (np.arange(c)[:, None] * b_ + np.arange(b_)) * n
        return np.where((j >= 0) & (j < n), rows[:, None, :, None] + j, c * b_ * n).ravel()

    def backward(self, gy):
        b_, o, lo = gy.shape
        c, n = self.in_channels, self._x_shape[2]
        w = self.params["w"].astype(gy.dtype, copy=False)
        g2 = gy.transpose(1, 0, 2).reshape(o, b_ * lo)
        self.grads["w"] = (g2 @ self._cols.T).reshape(w.shape)
        # numpy orders a sum's additions by the memory layout; summed in C
        # order, the bias gradient keeps the bytes of the batch-major layout
        self.grads["b"] = np.ascontiguousarray(gy).sum(axis=(0, 2))
        # col2im: bincount adds in im2col order, so each input position's
        # taps in tap order; the entries that read padding land in the extra
        # last bin, which is dropped
        idx = self._col2im.get((b_, n))
        if idx is None:
            if len(self._col2im) == 2:
                self._col2im.clear()
            idx = self._col2im[b_, n] = self._col2im_index(b_, n, lo)
        gcols = w.reshape(o, -1).T @ g2
        gx = np.bincount(idx, weights=gcols.ravel(), minlength=c * b_ * n + 1)
        return gx[:-1].reshape(c, b_, n).astype(gy.dtype, copy=False).transpose(1, 0, 2)


class ReLU(Layer):
    """max(x, 0); an uncached forward writes it over its input and returns it."""

    def forward(self, x, cache=True):
        self._mask = x > 0 if cache else None
        return np.maximum(x, 0, out=None if cache else x)

    def backward(self, gy):
        return gy * self._mask


class MaxPool1d(Layer):
    """Max pooling; ties route the gradient to the first element of the window.

    ceil_mode adds a final shrunken window when the length does not divide
    evenly, matching the model's 23 -> 12 stage.
    """

    def __init__(self, window, stride, ceil_mode=False):
        super().__init__()
        self.window = window
        self.stride = stride
        self.ceil_mode = ceil_mode

    def out_length(self, n):
        if n < self.window:
            return 0
        full = (n - self.window) // self.stride + 1
        return full + bool(self.ceil_mode and full * self.stride < n)

    def forward(self, x, cache=True):
        if x.ndim != 3:
            raise ShapeError(f"maxpool1d expects rank-3 input, got {x.shape}")
        n, lo = x.shape[2], self.out_length(x.shape[2])
        if lo == 0:
            raise ShapeError(f"pool window {self.window} exceeds length {n}")
        # running max over the window taps; strict > keeps ties on the first
        # tap, whose index is tracked only for a backward to come: every
        # index so far is below k, so the max sets k exactly where v > yk.
        # Tap k reaches only the first v.shape[2] outputs: the ceil-mode
        # tail window is short. Order "K" and zeros_like keep the input's
        # memory order
        span = lo * self.stride
        y = x[:, :, 0:span:self.stride].copy(order="K")
        arg = None
        if cache:
            arg = np.zeros_like(y, dtype=np.min_scalar_type(self.window - 1))
        for k in range(1, self.window):
            v = x[:, :, k : k + span : self.stride]
            yk = y[:, :, : v.shape[2]]
            if cache:
                argk = arg[:, :, : v.shape[2]]
                np.maximum(argk, (v > yk) * arg.dtype.type(k), out=argk)
            np.maximum(yk, v, out=yk)
        self._arg = arg
        self._shape = (*x.shape[:2], max(span - self.stride + self.window, n))
        self._n = n
        return y

    def backward(self, gy):
        b_, c, n = self._shape
        gx = np.zeros((c, b_, n), dtype=gy.dtype).transpose(1, 0, 2)
        span = gy.shape[2] * self.stride
        for k in range(self.window):
            gx[:, :, k : k + span : self.stride] += gy * (self._arg == k)
        return gx[:, :, : self._n]


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels * length)."""

    def forward(self, x, cache=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        # back in the channel-major layout of the layers before it
        g = gy.reshape(self._shape).transpose(1, 0, 2)
        return np.ascontiguousarray(g).transpose(1, 0, 2)


class Residual(Layer):
    """main(x) + shortcut(x); main is a layer list run in order."""

    def __init__(self, main: list[Layer], shortcut: Layer):
        super().__init__()
        self.main = main
        self.shortcut = shortcut

    def forward(self, x, cache=True):
        h = x
        for layer in self.main:
            h = layer.forward(h, cache=cache)
        return residual_add(h, self.shortcut.forward(x, cache=cache))

    def backward(self, gy):
        g = gy
        for layer in reversed(self.main):
            g = layer.backward(g)
        return g + self.shortcut.backward(gy)


class Dense(Layer):
    """Fully connected: y = x w^T + b."""

    def __init__(self, in_features, out_features, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / in_features)
        self.params["w"] = rng.uniform(
            -bound, bound, (out_features, in_features)
        ).astype(np.float32)
        self.params["b"] = np.zeros(out_features, dtype=np.float32)

    def forward(self, x, cache=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x if cache else None
        w = self.params["w"].astype(x.dtype, copy=False)
        b = self.params["b"].astype(x.dtype, copy=False)
        return x @ w.T + b

    def backward(self, gy):
        self.grads["w"] = gy.T @ self._x
        self.grads["b"] = gy.sum(axis=0)
        return gy @ self.params["w"].astype(gy.dtype, copy=False)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Returns (mean loss, probs, grad wrt logits)."""
    labels = np.asarray(labels)
    n_classes = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise LabelError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    probs = softmax(logits)
    batch = logits.shape[0]
    picked = probs[np.arange(batch), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    return loss, probs, grad.astype(logits.dtype, copy=False)


def residual_add(main: np.ndarray, shortcut: np.ndarray) -> np.ndarray:
    if main.shape != shortcut.shape:
        raise ShapeError(f"residual shapes differ: {main.shape} vs {shortcut.shape}")
    return main + shortcut


class Adam:
    """Bias-corrected Adam over a flat dict of parameter arrays.

    The moments of all tensors live in one float64 vector, in the order of
    `params`, and the update runs once over the concatenated gradients.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; only lr is set

    def __init__(self, lr=0.001):
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        g = np.concatenate([grads[name].ravel() for name in params])
        if not np.all(np.isfinite(g)):
            for name in params:
                check_finite(grads[name], f"gradient of {name}")
        if self.m is None:
            self.m = np.zeros(g.size, dtype=np.float64)
            self.v = np.zeros(g.size, dtype=np.float64)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * np.square(g, dtype=np.float64)
        mhat = m / (1 - self.beta1 ** self.t)
        vhat = v / (1 - self.beta2 ** self.t)
        update = self.lr * mhat / (np.sqrt(vhat) + self.eps)
        start = 0
        for p in params.values():
            p -= update[start : start + p.size].reshape(p.shape).astype(p.dtype)
            start += p.size
