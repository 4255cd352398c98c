"""Minimal deterministic tensor engine with hand-written gradients.

Layers operate on float32 numpy arrays shaped (batch, channels, length) or
(batch, features). Each layer caches what its backward pass needs; parameter
gradients land in the layer's `grads` dict. No autodiff graph: a model is
an ordered layer list, run forward in order and backward in reverse.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def out_length(self, n: int) -> int:
        """Length of the output's last axis for an input of length n."""
        return n

    def forward(self, x: np.ndarray) -> np.ndarray:
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

    def out_length(self, n):
        return (n + 2 * self.padding - self.kernel) // self.stride + 1

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv1d expects (batch, {self.in_channels}, length), got {x.shape}"
            )
        if x.shape[2] + 2 * self.padding < self.kernel:
            raise ShapeError(
                f"input length {x.shape[2]} + 2*{self.padding} pad < kernel {self.kernel}"
            )
        xp = np.pad(x, ((0, 0), (0, 0), (self.padding, self.padding)))
        win = sliding_window_view(xp, self.kernel, axis=2)[:, :, :: self.stride]
        self._win = win
        self._x_shape = x.shape
        # compute in the activation dtype; float64 activations keep the
        # contraction batch-size independent (64-bit accumulation)
        w = self.params["w"].astype(x.dtype, copy=False)
        b = self.params["b"].astype(x.dtype, copy=False)
        y = np.einsum("bclk,ock->bol", win, w, optimize=True) + b[None, :, None]
        return y.astype(x.dtype, copy=False)

    def backward(self, gy):
        w = self.params["w"].astype(gy.dtype, copy=False)
        self.grads["w"] = np.einsum("bol,bclk->ock", gy, self._win, optimize=True)
        self.grads["b"] = gy.sum(axis=(0, 2))
        b_, c, lp = self._x_shape[0], self._x_shape[1], self._x_shape[2] + 2 * self.padding
        gxp = np.zeros((b_, c, lp), dtype=np.float64)
        lo = gy.shape[2]
        for m in range(self.kernel):
            # every output i reads padded position i*stride + m
            contrib = np.einsum("bol,oc->bcl", gy, w[:, :, m], optimize=True)
            gxp[:, :, m : m + lo * self.stride : self.stride] += contrib
        p = self.padding
        gx = gxp[:, :, p : lp - p] if p else gxp
        return gx.astype(gy.dtype, copy=False)


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.maximum(x, 0)

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

    def forward(self, x):
        if x.ndim != 3:
            raise ShapeError(f"maxpool1d expects rank-3 input, got {x.shape}")
        n, lo = x.shape[2], self.out_length(x.shape[2])
        if lo == 0:
            raise ShapeError(f"pool window {self.window} exceeds length {n}")
        # right-pad with -inf so the ceil-mode tail is just the last window
        pad = (lo - 1) * self.stride + self.window - n
        if pad > 0:
            x = np.pad(x, ((0, 0), (0, 0), (0, pad)), constant_values=-np.inf)
        win = sliding_window_view(x, self.window, axis=2)[:, :, :: self.stride]
        self._arg = win.argmax(axis=3)
        self._shape, self._n = x.shape, n
        return np.take_along_axis(win, self._arg[..., None], axis=3)[..., 0]

    def backward(self, gy):
        gx = np.zeros(self._shape, dtype=gy.dtype)
        span = gy.shape[2] * self.stride
        for k in range(self.window):
            gx[:, :, k : k + span : self.stride] += gy * (self._arg == k)
        return gx[:, :, : self._n]


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels * length)."""

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._shape)


class Residual(Layer):
    """main(x) + shortcut(x); main is a layer list run in order."""

    def __init__(self, main: list[Layer], shortcut: Layer):
        super().__init__()
        self.main = main
        self.shortcut = shortcut

    def out_length(self, n):
        for layer in self.main:
            n = layer.out_length(n)
        return n

    def forward(self, x):
        h = x
        for layer in self.main:
            h = layer.forward(h)
        return residual_add(h, self.shortcut.forward(x))

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

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
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
    """Bias-corrected Adam over a flat dict of parameter arrays."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            check_finite(g, f"gradient of {name}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p, dtype=np.float64)
                self.v[name] = np.zeros_like(p, dtype=np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * np.square(g, dtype=np.float64)
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            p -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.dtype)


class Sgd:
    """Plain SGD, kept behind the optimizer config switch."""

    def __init__(self, lr=0.001):
        self.lr = lr
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for name, p in params.items():
            check_finite(grads[name], f"gradient of {name}")
            p -= (self.lr * grads[name]).astype(p.dtype)
