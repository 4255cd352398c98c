"""Minimal deterministic tensor engine with hand-written gradients.

Parameters are stored as float32; layers compute in the dtype of their
input, which the model makes float64. Activations are shaped (batch,
channels, length), or (batch, features) after `Flatten`. Up to `Flatten`
their memory is batch-innermost: each is a `.transpose(2, 0, 1)` view of a
C-contiguous (channels, length, batch) array, the layout that a conv's GEMM
writes and the next conv's im2col reads; `Flatten` copies into the
(channels, length) feature order. The layout is chosen for speed: every
im2col tap, padding fill and pool half is one strided slice whose inner runs
are `batch` samples long (256 in inference). A (channels, batch, length)
layout gives runs of only 23, 12 or 6 samples in the later stages, and with
those res_conv1's im2col took longer than its GEMM.

Caching is per call: `forward(x)` keeps what the next `backward` needs,
while `forward(x, cache=False)` computes the same output, keeps no backward
state and drops what an earlier call kept, so inference holds no
activations beyond the one in flight. Parameter gradients land in the
layer's `grads` dict. A model's `params` are views of its vector `theta`,
and rebinding one detaches it from training. No autodiff graph: a model is
an ordered layer list, run forward in order and backward in reverse.

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
(channels*kernel, length*batch) matrix tap by tap with strided slices of the
unpadded input, zeroing the positions that read padding, and multiplies the
(out_channels, channels*kernel) weights by it; its backward is one product
for the weight gradient and one for the window gradients, which one
`np.bincount` adds into the unpadded input gradient (col2im). Its index is
the forward's window fill applied to the input positions, with an extra bin
for the entries that read padding, so it adds each input position's taps in
tap order, starting from 0.0, and its sums are those of a loop of per-tap
adds. A conv keeps one index, rebuilt when the batch size or length changes;
at batch 32 the model's five convs hold 100,224 indices, 0.8 MB of intp.
"""
from __future__ import annotations

import numpy as np

from .errors import EcgresError, NumericError


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
        self._col2im = (None, None)  # ((batch, length), col2im index)

    def out_length(self, n):
        return (n + 2 * self.padding - self.kernel) // self.stride + 1

    def forward(self, x, cache=True):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise EcgresError(
                f"conv1d expects (batch, {self.in_channels}, length), got {x.shape}"
            )
        if x.shape[2] + 2 * self.padding < self.kernel:
            raise EcgresError(
                f"input length {x.shape[2]} + 2*{self.padding} pad < kernel {self.kernel}"
            )
        b_, c, n = x.shape
        lo, o = self.out_length(n), len(self.params["w"])
        cols = self._im2col(x.transpose(1, 2, 0), lo, 0.0).reshape(-1, lo * b_)
        self._cols = cols if cache else None
        self._x_shape = x.shape
        # compute in the activation dtype (float64 in the model); the BLAS
        # may still pick its kernel by the batch size, which is why inference
        # splits batches into chunks of at least model.PREDICT_ROWS rows
        w = self.params["w"].astype(x.dtype, copy=False)
        y = w.reshape(o, -1) @ cols
        y += self.params["b"].astype(x.dtype, copy=False)[:, None]
        # the batch-innermost view costs no copy
        return y.reshape(o, lo, b_).transpose(2, 0, 1)

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

    def _im2col(self, xc, lo, fill):
        """The (channels, kernel, lo, batch) windows of the (channels, n,
        batch) array xc: tap m of position i reads xc[:, i*stride + m -
        padding], and `fill` where that lies outside [0, n)."""
        c, n, b_ = xc.shape
        cols = np.empty((c, self.kernel, lo, b_), dtype=xc.dtype)
        for m, i0, i1, src in self._taps(n, lo):
            cols[:, m, :i0] = fill
            cols[:, m, i0:i1] = xc[:, src]
            cols[:, m, i1:] = fill
        return cols

    def backward(self, gy):
        b_, o, lo = gy.shape
        c, n = self.in_channels, self._x_shape[2]
        w = self.params["w"].astype(gy.dtype, copy=False)
        g2 = gy.transpose(1, 2, 0).reshape(o, lo * b_)
        # sums over (position, batch), the layout's order; the batch-major
        # order would cost two transposed copies per call
        self.grads["w"] = (g2 @ self._cols.T).reshape(w.shape)
        # the bias gradient too sums over (position, batch), the layout's order
        self.grads["b"] = g2.sum(axis=1)
        # col2im: the index is im2col of the input positions, so bincount adds
        # each position's taps in tap order; the entries that read padding
        # land in the extra last bin, which is dropped
        if self._col2im[0] != (b_, n):
            pos = np.arange(c * n * b_).reshape(c, n, b_)
            self._col2im = (b_, n), self._im2col(pos, lo, c * n * b_).ravel()
        idx = self._col2im[1]
        gcols = w.reshape(o, -1).T @ g2
        gx = np.bincount(idx, weights=gcols.ravel(), minlength=c * n * b_ + 1)
        return gx[:-1].reshape(c, n, b_).astype(gy.dtype, copy=False).transpose(2, 0, 1)


class ReLU(Layer):
    """max(x, 0); an uncached forward writes it over its input and returns it."""

    def forward(self, x, cache=True):
        self._mask = x > 0 if cache else None
        return np.maximum(x, 0, out=None if cache else x)

    def backward(self, gy):
        return gy * self._mask


class MaxPool1d(Layer):
    """Max over the pairs (x[2i], x[2i+1]); an odd length's last output is its
    last sample alone, as in the model's 23 -> 12 stage. Ties route the
    gradient to the first of the pair."""

    def out_length(self, n):
        return (n + 1) // 2

    def forward(self, x, cache=True):
        if x.ndim != 3 or x.shape[2] < 2:
            raise EcgresError(f"maxpool1d expects rank-3 input of length >= 2, got {x.shape}")
        b_, c, n = x.shape
        y = np.empty((c, self.out_length(n), b_), dtype=x.dtype).transpose(2, 0, 1)
        even, odd = x[:, :, 0 : n - 1 : 2], x[:, :, 1::2]
        # the mask, kept for a backward to come, marks a strictly greater
        # second of the pair; an odd length's last window has no second
        self._mask = np.zeros_like(y, dtype=bool) if cache else None
        if cache:
            np.greater(odd, even, out=self._mask[:, :, : n // 2])
        np.maximum(even, odd, out=y[:, :, : n // 2])
        if n % 2:
            y[:, :, -1] = x[:, :, -1]
        self._n = n
        return y

    def backward(self, gy):
        b_, c, lo = gy.shape
        buf = np.empty((c, 2 * lo, b_), dtype=gy.dtype)
        gx = buf.transpose(2, 0, 1)
        np.multiply(gy, ~self._mask, out=gx[:, :, 0::2])
        np.multiply(gy, self._mask, out=gx[:, :, 1::2])
        # one pass over the whole buffer turns a -0.0 gradient into +0.0, as
        # adding into zeros did
        buf += 0.0
        return gx[:, :, : self._n]


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels * length)."""

    def forward(self, x, cache=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        # back in the batch-innermost layout of the layers before it
        g = gy.reshape(self._shape).transpose(1, 2, 0)
        return np.ascontiguousarray(g).transpose(2, 0, 1)


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
            raise EcgresError(
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
        raise EcgresError(
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
        raise EcgresError(f"residual shapes differ: {main.shape} vs {shortcut.shape}")
    return main + shortcut


class Adam:
    """Bias-corrected Adam on one parameter vector, updated in place, with
    its moments and temporaries allocated once."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; only lr is set

    def __init__(self, params: np.ndarray, lr=0.001):
        self.params, self.lr, self.t = params, lr, 0
        self.m, self.v = np.zeros(params.size), np.zeros(params.size)
        self._num, self._den = np.empty(params.size), np.empty(params.size)
        self._update = np.empty_like(params)

    def step(self, g: np.ndarray) -> None:
        """One update from `g`, the gradient vector in the parameters' order."""
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        m += np.multiply(1 - self.beta1, g, out=num)
        v *= self.beta2
        v += np.multiply(1 - self.beta2, np.square(g, out=den, dtype=np.float64), out=den)
        np.divide(m, 1 - self.beta1 ** self.t, out=num)
        num *= self.lr
        np.sqrt(np.divide(v, 1 - self.beta2 ** self.t, out=den), out=den)
        den += self.eps
        # lr * mhat / (sqrt(vhat) + eps), cast to the parameters' dtype first
        self.params -= np.divide(num, den, out=self._update)
