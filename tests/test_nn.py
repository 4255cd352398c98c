import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ecgres import nn
from ecgres.errors import EcgresError

from conftest import fd_gradient, rel_error


def conv1d_oracle(x, w, b, stride, padding):
    """Direct summation by loops, independent of the GEMM lowering."""
    batch, in_ch, length = x.shape
    out_ch, _, kernel = w.shape
    out_len = (length + 2 * padding - kernel) // stride + 1
    y = np.zeros((batch, out_ch, out_len))
    for bi in range(batch):
        for o in range(out_ch):
            for i in range(out_len):
                acc = b[o]
                for c in range(in_ch):
                    for m in range(kernel):
                        src = i * stride + m - padding
                        if 0 <= src < length:
                            acc += w[o, c, m] * x[bi, c, src]
                y[bi, o, i] = acc
    return y


def conv1d_backward_oracle(x, w, gy, stride, padding):
    """Adjoint of conv1d_oracle by direct loops: (grad w, grad b, grad x)."""
    batch, in_ch, length = x.shape
    out_ch, _, kernel = w.shape
    gw, gx = np.zeros(w.shape), np.zeros(x.shape)
    for bi in range(batch):
        for o in range(out_ch):
            for i in range(gy.shape[2]):
                for c in range(in_ch):
                    for m in range(kernel):
                        src = i * stride + m - padding
                        if 0 <= src < length:
                            gw[o, c, m] += gy[bi, o, i] * x[bi, c, src]
                            gx[bi, c, src] += gy[bi, o, i] * w[o, c, m]
    return gw, gy.sum(axis=(0, 2)), gx


def maxpool_argmax_reference(x):
    """Values and first-maximum taps of the pairs by a -inf right pad to an
    even length + argmax over each pair."""
    if x.shape[2] % 2:
        x = np.pad(x, ((0, 0), (0, 0), (0, 1)), constant_values=-np.inf)
    pairs = x.reshape(*x.shape[:2], -1, 2)
    arg = pairs.argmax(axis=3)
    return np.take_along_axis(pairs, arg[..., None], axis=3)[..., 0], arg


def maxpool_oracle(x):
    """Max of each pair (x[2i], x[2i+1]) by loops; a trailing odd sample alone."""
    batch, ch, length = x.shape
    y = np.empty((batch, ch, (length + 1) // 2))
    for bi in range(batch):
        for c in range(ch):
            for i in range(y.shape[2]):
                y[bi, c, i] = max(x[bi, c, 2 * i : 2 * i + 2])
    return y


def conv1d_padded(layer, x, gy):
    """Conv1d forward and backward as they were before the pad-free lowering:
    im2col copies the windows of the zero-padded input, col2im adds every
    tap into a padded buffer and trims it. Returns (y, grad w, grad b,
    grad x, im2col matrix)."""
    p = layer.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p))) if p else x
    win = sliding_window_view(xp, layer.kernel, axis=2)[:, :, :: layer.stride]
    b_, c, lo, k = win.shape
    cols = win.transpose(0, 2, 1, 3).reshape(b_ * lo, c * k)
    w = layer.params["w"].astype(x.dtype, copy=False)
    y = cols @ w.reshape(len(w), -1).T
    y += layer.params["b"].astype(x.dtype, copy=False)
    y = np.ascontiguousarray(y.reshape(b_, lo, -1).transpose(0, 2, 1))

    o = gy.shape[1]
    g2 = gy.transpose(0, 2, 1).reshape(b_ * lo, o)
    gw = (g2.T @ cols).reshape(w.shape)
    gb = gy.sum(axis=(0, 2))
    gcols = (g2 @ w.reshape(o, -1)).reshape(b_, lo, layer.in_channels, layer.kernel)
    lp = x.shape[2] + 2 * p
    gxp = np.zeros((b_, layer.in_channels, lp), dtype=gcols.dtype)
    for m in range(layer.kernel):
        tap = gcols[:, :, :, m].transpose(0, 2, 1)
        gxp[:, :, m : m + lo * layer.stride : layer.stride] += tap
    gx = gxp[:, :, p : lp - p] if p else gxp
    return y, gw, gb, gx.astype(gy.dtype, copy=False), cols


def maxpool_padded(x, gy):
    """MaxPool1d(2, 2, ceil_mode=True) forward as it was before the pad-free
    pool (a -inf right pad makes the ceil-mode tail a full window), and its
    backward over the padded length. Returns (y, arg, grad x)."""
    window = stride = 2
    n, full = x.shape[2], (x.shape[2] - window) // stride + 1
    lo = full + (full * stride < n)
    pad = (lo - 1) * stride + window - n
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (0, pad)), constant_values=-np.inf)
    span = lo * stride
    y = x[:, :, 0:span:stride].copy()
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(window - 1))
    for k in range(1, window):
        v = x[:, :, k : k + span : stride]
        np.putmask(arg, v > y, k)
        np.maximum(y, v, out=y)

    gx = np.zeros(x.shape, dtype=gy.dtype)
    for k in range(window):
        gx[:, :, k : k + span : stride] += gy * (arg == k)
    return y, arg, gx[:, :, :n]


def col2im_tap_loop(layer, gy):
    """Conv1d's input gradient as it was before the bincount col2im: the
    window gradients of each tap, in tap order, added into zeros. Call it
    after `layer.backward(gy)`, which it reads the input length of."""
    b_, o, lo = gy.shape
    c, n = layer.in_channels, layer._x_shape[2]
    w = layer.params["w"].astype(gy.dtype, copy=False)
    g2 = gy.transpose(1, 2, 0).reshape(o, lo * b_)
    gcols = (w.reshape(o, -1).T @ g2).reshape(c, layer.kernel, lo, b_)
    gx = np.zeros((c, n, b_), dtype=gcols.dtype)
    for m, i0, i1, src in layer._taps(n, lo):
        gx[:, src] += gcols[:, m, i0:i1]
    return gx.astype(gy.dtype, copy=False).transpose(2, 0, 1)


def col2im_index_closed_form(layer, b_, n, lo):
    """Conv1d's col2im index as a formula: the flat (channels, n, batch) input
    position of each im2col entry (c, m, i, b), in im2col order, is
    (c*n + i*stride + m - padding)*b_ + b, or the extra bin c*n*b_ when the
    entry reads padding."""
    c = layer.in_channels
    m = np.arange(layer.kernel) - layer.padding
    j = (np.arange(lo) * layer.stride + m[:, None])[:, :, None]
    pos = (np.arange(c)[:, None, None, None] * n + j) * b_ + np.arange(b_)
    return np.where((j >= 0) & (j < n), pos, c * n * b_).ravel()


def make_conv(in_ch, out_ch, kernel, stride, padding, seed=0):
    layer = nn.Conv1d(in_ch, out_ch, kernel, stride, padding,
                      rng=np.random.default_rng(seed))
    # float64 params keep finite differences clean
    layer.params = {k: v.astype(np.float64) for k, v in layer.params.items()}
    layer.params["b"] = np.random.default_rng(seed + 1).standard_normal(out_ch)
    return layer


class TestConv1d:
    def test_identity_kernel(self):
        layer = make_conv(1, 1, 3, 1, 1)
        layer.params["w"] = np.array([[[0.0, 1.0, 0.0]]])
        layer.params["b"] = np.zeros(1)
        y = layer.forward(np.ones((1, 1, 4)))
        assert np.allclose(y, 1.0)

    def test_difference_kernel(self):
        layer = make_conv(1, 1, 3, 1, 0)
        layer.params["w"] = np.array([[[1.0, 0.0, -1.0]]])
        layer.params["b"] = np.zeros(1)
        y = layer.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        assert np.allclose(y, [[[-2.0, -2.0]]])

    @pytest.mark.parametrize("shape", [
        (1, 1, 8, 2, 3, 1, 1), (2, 3, 10, 4, 3, 2, 1),
        (3, 2, 7, 2, 5, 1, 2), (1, 4, 12, 3, 7, 2, 3),
        (2, 1, 6, 2, 1, 2, 0),
    ])
    def test_against_oracle(self, shape):
        batch, in_ch, length, out_ch, kernel, stride, padding = shape
        rng = np.random.default_rng(hash(shape) % 2**31)
        layer = make_conv(in_ch, out_ch, kernel, stride, padding)
        x = rng.standard_normal((batch, in_ch, length))
        assert np.allclose(
            layer.forward(x),
            conv1d_oracle(x, layer.params["w"], layer.params["b"], stride, padding),
            atol=1e-10,
        )

    # (batch, in_ch, length, out_ch, kernel, stride, padding): stride > kernel
    # (k1/s2 as in res_proj, k2/s3), k7/p3 as in the residual block, C=1
    @pytest.mark.parametrize("shape", [
        (3, 1, 12, 4, 3, 2, 1), (2, 3, 9, 2, 1, 2, 0), (2, 2, 11, 3, 2, 3, 0),
        (2, 3, 12, 2, 7, 2, 3), (2, 2, 6, 3, 7, 1, 3), (1, 1, 5, 1, 5, 1, 0),
        (2, 2, 10, 2, 2, 3, 1),
    ])
    def test_backward_against_adjoint_oracle(self, shape):
        batch, in_ch, length, out_ch, kernel, stride, padding = shape
        rng = np.random.default_rng(sum(shape))
        layer = make_conv(in_ch, out_ch, kernel, stride, padding, seed=len(shape))
        x = rng.standard_normal((batch, in_ch, length))
        gy = rng.standard_normal(layer.forward(x).shape)
        gx = layer.backward(gy)
        gw, gb, gx_want = conv1d_backward_oracle(x, layer.params["w"], gy, stride, padding)
        assert gx.shape == x.shape
        assert np.abs(gx - gx_want).max() < 1e-10
        assert np.abs(layer.grads["w"] - gw).max() < 1e-10
        assert np.abs(layer.grads["b"] - gb).max() < 1e-10

    def test_shape_mismatch(self):
        layer = make_conv(2, 1, 3, 1, 0)
        with pytest.raises(EcgresError, match=r"conv1d expects \(batch, 2, length\)"):
            layer.forward(np.zeros((1, 3, 10)))

    def test_kernel_larger_than_input(self):
        layer = make_conv(1, 1, 5, 1, 0)
        with pytest.raises(EcgresError, match=r"input length 3 \+ 2\*0 pad < kernel 5"):
            layer.forward(np.zeros((1, 1, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            layer = make_conv(2, 3, 3, 2, 1, seed=int(rng.integers(1000)))
            x = rng.standard_normal((2, 2, 9))
            gy_weight = rng.standard_normal(layer.forward(x).shape)

            def loss_x(xv):
                return float(np.sum(layer.forward(xv) * gy_weight))

            layer.forward(x)
            gx = layer.backward(gy_weight)
            assert rel_error(gx, fd_gradient(loss_x, x)) < 1e-4

            for name in ("w", "b"):
                def loss_p(pv, name=name):
                    old = layer.params[name]
                    layer.params[name] = pv
                    out = float(np.sum(layer.forward(x) * gy_weight))
                    layer.params[name] = old
                    return out

                layer.forward(x)
                layer.backward(gy_weight)
                assert rel_error(layer.grads[name],
                                 fd_gradient(loss_p, layer.params[name])) < 1e-4

    def test_backward_copies_no_incoming_gradient(self):
        """conv1's backward (1 -> 18 channels, k3 s2 p1, length 180, batch
        32) on a batch-innermost gradient, as the model passes it: once the
        first call has built the col2im index, Python-traced allocations
        peak below the gradient's own bytes, so no copy of it is made."""
        layer = nn.Conv1d(1, 18, 3, 2, 1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(12)
        layer.forward(rng.standard_normal((32, 1, 180)))
        gy = rng.standard_normal((18, 90, 32)).transpose(2, 0, 1)
        layer.backward(gy)
        tracemalloc.start()
        try:
            layer.backward(gy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gy.nbytes, f"peak {peak} B against the gradient's {gy.nbytes} B"


class TestReLU:
    def test_values(self):
        layer = nn.ReLU()
        assert np.array_equal(layer.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        layer = nn.ReLU()
        x = -np.ones((2, 3))
        assert np.all(layer.forward(x) == 0)
        assert np.all(layer.backward(np.ones((2, 3))) == 0)

    def test_gradient_at_zero_is_zero(self):
        layer = nn.ReLU()
        layer.forward(np.array([0.0]))
        assert layer.backward(np.array([5.0]))[0] == 0.0

    def test_finite_difference_away_from_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20)
        x[np.abs(x) < 0.1] += 0.5  # keep clear of the kink
        layer = nn.ReLU()
        layer.forward(x)
        g = layer.backward(np.ones_like(x))
        assert rel_error(g, fd_gradient(lambda v: float(np.sum(np.maximum(v, 0))), x)) < 1e-4


def pool_input(x, batch_innermost):
    """x, or the same values as a view of (channels, length, batch) memory,
    the layout the model's pools read."""
    return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1) if batch_innermost else x


class TestMaxPool:
    def test_simple(self):
        layer = nn.MaxPool1d()
        y = layer.forward(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        assert np.array_equal(y, [[[3.0, 5.0]]])

    def test_tie_routes_to_first(self):
        layer = nn.MaxPool1d()
        layer.forward(np.ones((1, 1, 4)))
        gx = layer.backward(np.array([[[1.0, 1.0]]]))
        assert np.array_equal(gx, [[[1.0, 0.0, 1.0, 0.0]]])

    def test_window_too_large(self):
        # the pair does not fit a length-1 input
        for shape in ((1, 1, 1), (1, 4)):
            with pytest.raises(EcgresError, match="rank-3 input of length >= 2"):
                nn.MaxPool1d().forward(np.zeros(shape))

    def test_against_oracle_exhaustive_small(self):
        rng = np.random.default_rng(3)
        for length in range(2, 17):
            x = rng.standard_normal((2, 2, length))
            assert np.array_equal(nn.MaxPool1d().forward(x), maxpool_oracle(x))

    def test_ceil_mode_partial_window(self):
        # an odd length's last sample is a window of its own
        layer = nn.MaxPool1d()
        y = layer.forward(np.array([[[1.0, 4.0, 3.0]]]))
        assert np.array_equal(y, [[[4.0, 3.0]]])
        gx = layer.backward(np.array([[[1.0, 2.0]]]))
        assert np.array_equal(gx, [[[0.0, 1.0, 2.0]]])

    @pytest.mark.parametrize("batch_innermost", [False, True])
    def test_out_length_and_backward_match_windows(self, batch_innermost):
        # the pairs start at 0, 2, 4, ...; an odd length keeps a final
        # one-sample window
        rng = np.random.default_rng(5)
        for batch, ch in ((1, 1), (2, 2), (3, 4)):
            for n in range(2, 17):
                layer = nn.MaxPool1d()
                x = rng.integers(0, 3, (batch, ch, n)).astype(np.float64)  # ties
                x = pool_input(x, batch_innermost)
                y = layer.forward(x)
                assert y.shape[2] == layer.out_length(n)
                gy = rng.standard_normal(y.shape)
                want = np.zeros_like(x)
                for i in range(y.shape[2]):
                    seg = x[:, :, 2 * i : 2 * i + 2]
                    assert np.array_equal(y[:, :, i], seg.max(axis=2))
                    first = 2 * i + seg.argmax(axis=2)
                    for b, c in np.ndindex(batch, ch):
                        want[b, c, first[b, c]] += gy[b, c, i]
                assert np.allclose(layer.backward(gy), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch_innermost", [False, True])
    def test_forward_and_arg_match_argmax_rule(self, batch_innermost):
        # ties everywhere (values 0..2, some -inf) and -inf padded odd tails
        rng = np.random.default_rng(12)
        for batch, ch in ((1, 1), (3, 2), (2, 5)):
            for n in range(2, 15):
                layer = nn.MaxPool1d()
                x = rng.integers(0, 3, (batch, ch, n)).astype(np.float64)
                x[rng.random(x.shape) < 0.2] = -np.inf
                y = layer.forward(pool_input(x, batch_innermost))
                want_y, want_arg = maxpool_argmax_reference(x)
                assert np.array_equal(y, want_y)
                assert np.array_equal(layer._mask, want_arg == 1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for length in (11, 12):
            x = rng.standard_normal((2, 2, length))
            layer = nn.MaxPool1d()
            gy_weight = rng.standard_normal(layer.forward(x).shape)
            gx = layer.backward(gy_weight)

            def loss(v, layer=layer, gw=gy_weight):
                return float(np.sum(layer.forward(v) * gw))

            assert rel_error(gx, fd_gradient(loss, x)) < 1e-4


class TestPadFreeLowering:
    """Conv1d and MaxPool1d match the padded lowering they replaced
    (conv1d_padded, maxpool_padded), cached or not, including taps that read
    only padding and short ceil-mode tails: the pool and the im2col matrix
    (transposed) byte for byte, the conv products and the bias gradient
    within 1e-12."""

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_conv_bit_equal_to_padded(self, data):
        draw = data.draw
        batch, in_ch, out_ch = (draw(st.integers(1, 4)) for _ in range(3))
        length, kernel = draw(st.integers(1, 40)), draw(st.integers(1, 8))
        stride, padding = draw(st.integers(1, 4)), draw(st.integers(0, kernel))
        assume(length + 2 * padding >= kernel)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layer = nn.Conv1d(in_ch, out_ch, kernel, stride, padding, rng=rng)
        layer.params["b"] = rng.standard_normal(out_ch).astype(np.float32)
        x = rng.standard_normal((batch, in_ch, length))
        gy = rng.standard_normal((batch, out_ch, layer.out_length(length)))
        y_want, gw, gb, gx_want, cols = conv1d_padded(layer, x, gy)

        y = layer.forward(x, cache=False)
        assert layer._cols is None
        assert layer.forward(x).tobytes() == y.tobytes()
        assert layer._cols.flags.c_contiguous
        # rows (channel, tap), columns (position, batch): the batch innermost
        want_cols = cols.reshape(batch, -1, in_ch * kernel).transpose(2, 1, 0)
        assert layer._cols.tobytes() == np.ascontiguousarray(want_cols).tobytes()
        gx = layer.backward(gy)
        assert gx.shape == x.shape
        # the bias gradient sums each output channel's (position, batch) row,
        # the layout's order; the padded lowering summed in batch-major order
        gb_rows = np.ascontiguousarray(gy.transpose(1, 2, 0)).reshape(out_ch, -1)
        assert layer.grads["b"].tobytes() == gb_rows.sum(axis=1).tobytes()
        assert np.allclose(layer.grads["b"], gb, rtol=1e-12, atol=1e-12)
        # the products now run on the transposed im2col matrix (W @ cols, not
        # cols @ W.T), which the BLAS may round differently for some shapes
        assert np.allclose(y, y_want, rtol=1e-12, atol=1e-12)
        assert np.allclose(layer.grads["w"], gw, rtol=1e-12, atol=1e-12)
        assert np.allclose(gx, gx_want, rtol=1e-12, atol=1e-12)

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_pool_bit_equal_to_padded(self, data):
        draw = data.draw
        batch, ch, length = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 4), (2, 40)))
        layer = nn.MaxPool1d()
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.integers(0, 3, (batch, ch, length)).astype(np.float64)  # ties
        x[rng.random(x.shape) < 0.1] = -np.inf
        gy = rng.standard_normal((batch, ch, layer.out_length(length)))
        y_want, arg_want, gx_want = maxpool_padded(x, gy)

        assert layer.forward(x, cache=False).tobytes() == y_want.tobytes()
        assert layer._mask is None
        assert layer.forward(x).tobytes() == y_want.tobytes()
        assert np.array_equal(layer._mask, arg_want == 1)
        gx = layer.backward(gy)
        assert gx.shape == x.shape
        assert gx.tobytes() == gx_want.tobytes()

    @pytest.mark.parametrize("shape", [
        # (length, kernel, stride, padding): k7/p3 on a length-3 input leaves
        # taps 0-2 and 4-6 with rows in padding only; k8/p8 on length 1 leaves
        # every tap but one empty; s4 skips trailing inputs
        (3, 7, 1, 3), (1, 8, 1, 8), (1, 8, 4, 4), (2, 5, 3, 2), (9, 3, 4, 0),
    ])
    def test_conv_taps_outside_the_input(self, shape):
        length, kernel, stride, padding = shape
        layer = make_conv(2, 3, kernel, stride, padding)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, length))
        y = layer.forward(x)
        gy = rng.standard_normal(y.shape)
        want = conv1d_oracle(x, layer.params["w"], layer.params["b"], stride, padding)
        assert np.abs(y - want).max() < 1e-10
        y_want, _, _, gx_want, _ = conv1d_padded(layer, x, gy)
        assert y.tobytes() == y_want.tobytes()
        assert layer.backward(gy).tobytes() == gx_want.tobytes()


class TestCol2imBincount:
    """Conv1d's bincount col2im gives the tap loop's input gradient byte for
    byte (col2im_tap_loop), for every batch size a layer sees in turn, and
    its index is the closed form's (col2im_index_closed_form)."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_tap_loop(self, data):
        draw = data.draw
        kernel, stride = draw(st.integers(1, 8)), draw(st.integers(1, 3))
        padding = draw(st.integers(0, kernel))
        in_ch, out_ch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        shortest = max(1, kernel - 2 * padding)
        if draw(st.booleans()):
            # shorter than kernel - padding: tap 0 reads only padding
            assume(shortest <= kernel - padding - 1)
            length = draw(st.integers(shortest, kernel - padding - 1))
        else:
            length = draw(st.integers(shortest, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layer = nn.Conv1d(in_ch, out_ch, kernel, stride, padding, rng=rng)
        if length < kernel - padding:
            assert any(i0 == i1 for _, i0, i1, _ in layer._taps(length, 1))
        # a second and third batch size, then the first again: the one index
        # a conv keeps is rebuilt on each change, never reused for another
        sizes = draw(st.permutations([1, 16, 32]))
        lo = layer.out_length(length)
        for batch in [*sizes, sizes[0]]:
            x = rng.standard_normal((batch, in_ch, length))
            gy = rng.standard_normal((batch, out_ch, lo))
            layer.forward(x)
            gx = layer.backward(gy)
            assert gx.shape == x.shape
            assert gx.transpose(1, 2, 0).flags.c_contiguous
            assert gx.tobytes() == col2im_tap_loop(layer, gy).tobytes(), batch
            shape, idx = layer._col2im
            want = col2im_index_closed_form(layer, batch, length, lo)
            assert shape == (batch, length)
            assert idx.dtype == want.dtype and idx.tobytes() == want.tobytes(), batch


class TestReluAfterPool:
    """conv -> pool -> ReLU is conv -> ReLU -> pool: byte-equal forwards, and
    gradients equal as numbers (a zero may change sign). Small integer
    weights and inputs make the conv exact, with many ties between window
    taps and windows of only negative values."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_forward_and_gradients(self, data):
        draw = data.draw
        batch, in_ch, out_ch = (draw(st.integers(1, 4)) for _ in range(3))
        kernel, stride = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        padding = draw(st.integers(0, kernel // 2))
        length = draw(st.integers(max(1, kernel - 2 * padding), 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        conv = nn.Conv1d(in_ch, out_ch, kernel, stride, padding)
        conv.params["w"] = rng.integers(-1, 2, conv.params["w"].shape).astype(np.float32)
        conv.params["b"] = rng.integers(-1, 2, out_ch).astype(np.float32)
        x = rng.integers(-2, 3, (batch, in_ch, length)).astype(np.float64)
        conv_len = conv.out_length(length)
        assume(conv_len >= 2)
        gy = rng.standard_normal((batch, out_ch, nn.MaxPool1d().out_length(conv_len)))

        def run(relu_first):
            pool, relu = nn.MaxPool1d(), nn.ReLU()
            layers = [conv, relu, pool] if relu_first else [conv, pool, relu]
            y = x
            for layer in layers:
                y = layer.forward(y)
            g = gy
            for layer in reversed(layers[1:]):
                g = layer.backward(g)
            gx = conv.backward(g)
            uncached = x
            for layer in layers:
                uncached = layer.forward(uncached, cache=False)
            return y, uncached, g, gx, conv.grads["w"].copy(), conv.grads["b"].copy()

        (y1, u1, *g1), (y2, u2, *g2) = run(True), run(False)
        assert y1.tobytes() == y2.tobytes()
        assert u1.tobytes() == y1.tobytes() and u2.tobytes() == y2.tobytes()
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)


class TestDense:
    def test_identity(self):
        layer = nn.Dense(3, 3, rng=np.random.default_rng(0))
        layer.params["w"] = np.eye(3)
        layer.params["b"] = np.zeros(3)
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert np.allclose(layer.forward(x), x)

    def test_hand_example(self):
        layer = nn.Dense(2, 2, rng=np.random.default_rng(0))
        layer.params["w"] = np.array([[1.0, 1.0], [0.0, 1.0]])
        layer.params["b"] = np.array([0.0, 1.0])
        y = layer.forward(np.array([[1.0, 2.0]]))
        assert np.allclose(y, [[3.0, 3.0]])

    def test_shape_mismatch(self):
        layer = nn.Dense(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(EcgresError, match=r"dense expects \(batch, 4\)"):
            layer.forward(np.zeros((1, 3)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        layer = nn.Dense(4, 3, rng=rng)
        layer.params = {k: v.astype(np.float64) for k, v in layer.params.items()}
        x = rng.standard_normal((3, 4))
        gw = rng.standard_normal((3, 3))
        layer.forward(x)
        gx = layer.backward(gw)

        def loss_x(v):
            return float(np.sum(layer.forward(v) * gw))

        assert rel_error(gx, fd_gradient(loss_x, x)) < 1e-4

        def loss_w(wv):
            old = layer.params["w"]
            layer.params["w"] = wv
            out = float(np.sum(layer.forward(x) * gw))
            layer.params["w"] = old
            return out

        assert rel_error(layer.grads["w"], fd_gradient(loss_w, layer.params["w"])) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss, probs, _ = nn.softmax_cross_entropy(np.zeros((2, 5)), np.array([0, 3]))
        assert np.allclose(probs, 0.2)
        assert loss == pytest.approx(np.log(5.0), abs=1e-9)

    def test_large_logit_stable(self):
        logits = np.array([[1000.0, 0.0, 0.0, 0.0, 0.0]])
        loss, probs, _ = nn.softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-9)
        assert probs[0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((16, 5)) * 10
        _, probs, _ = nn.softmax_cross_entropy(logits, rng.integers(0, 5, 16))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_label_out_of_range(self):
        with pytest.raises(EcgresError, match=r"labels must lie in \[0, 5\)"):
            nn.softmax_cross_entropy(np.zeros((1, 5)), np.array([5]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)
        _, _, grad = nn.softmax_cross_entropy(logits, labels)

        def loss(v):
            return nn.softmax_cross_entropy(v, labels)[0]

        assert rel_error(grad, fd_gradient(loss, logits, h=1e-5)) < 1e-4


class TestResidualAdd:
    def test_zero_shortcut(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 4))
        assert np.array_equal(nn.residual_add(x, np.zeros_like(x)), x)

    def test_cancellation(self):
        x = np.random.default_rng(9).standard_normal((2, 3))
        assert np.all(nn.residual_add(x, -x) == 0)

    def test_shape_mismatch(self):
        with pytest.raises(EcgresError, match="residual shapes differ"):
            nn.residual_add(np.zeros((1, 2)), np.zeros((2, 1)))


class TestFlattenResidual:
    def test_flatten_roundtrip(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        layer = nn.Flatten()
        assert layer.forward(x).shape == (2, 12)
        assert np.array_equal(layer.backward(layer.forward(x)), x)

    def test_residual_shape_mismatch(self):
        block = nn.Residual([make_conv(2, 2, 3, 2, 1)], make_conv(2, 2, 1, 1, 0))
        with pytest.raises(EcgresError, match="residual shapes differ"):
            block.forward(np.zeros((1, 2, 8)))

    def test_residual_out_length_and_gradient(self):
        main = [make_conv(2, 3, 3, 2, 1, seed=1), nn.ReLU(), make_conv(3, 3, 3, 1, 1, seed=2)]
        block = nn.Residual(main, make_conv(2, 3, 1, 2, 0, seed=3))
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 9))
        y = block.forward(x)
        assert y.shape == (2, 3, 5)
        gw = rng.standard_normal(y.shape)
        gx = block.backward(gw)
        fd = fd_gradient(lambda v: float(np.sum(block.forward(v) * gw)), x, h=1e-6)
        assert rel_error(gx, fd) < 1e-4


class TestNoCacheForward:
    """`forward(x, cache=False)` is the same forward, minus the backward state."""

    CACHES = ("_cols", "_mask", "_x")

    @staticmethod
    def layers():
        return {
            "conv": (make_conv(3, 4, 3, 2, 1), (5, 3, 23)),
            "conv_k7": (make_conv(3, 4, 7, 1, 3, seed=4), (5, 3, 12)),
            "relu": (nn.ReLU(), (5, 3, 23)),
            "pool": (nn.MaxPool1d(), (5, 3, 23)),
            "pool_even": (nn.MaxPool1d(), (5, 3, 90)),
            "flatten": (nn.Flatten(), (5, 3, 4)),
            "residual": (nn.Residual([make_conv(3, 4, 3, 2, 1, seed=1), nn.ReLU(),
                                      make_conv(4, 4, 3, 1, 1, seed=2)],
                                     make_conv(3, 4, 1, 2, 0, seed=3)), (5, 3, 23)),
            "dense": (nn.Dense(12, 5, rng=np.random.default_rng(0)), (5, 12)),
        }

    @pytest.mark.parametrize("name", ["conv", "conv_k7", "relu", "pool", "pool_even",
                                      "flatten", "residual", "dense"])
    def test_output_identical_and_nothing_kept(self, name):
        layer, shape = self.layers()[name]
        x = np.random.default_rng(1).standard_normal(shape)
        x[..., ::4] = 0.0  # ReLU boundary and pool ties
        cached = layer.forward(x)
        uncached = layer.forward(x, cache=False)
        assert uncached.dtype == cached.dtype
        assert np.array_equal(uncached, cached)
        parts = layer.main + [layer.shortcut] if name == "residual" else [layer]
        for part in parts:
            for attr in self.CACHES:
                assert getattr(part, attr, None) is None, (name, attr)

    @pytest.mark.parametrize("name", ["conv", "relu", "pool", "dense"])
    def test_backward_after_uncached_forward_raises(self, name):
        # an uncached forward keeps no backward state, so no backward can run
        layer, shape = self.layers()[name]
        y = layer.forward(np.ones(shape), cache=False)
        with pytest.raises((AttributeError, TypeError, ValueError)):
            layer.backward(np.ones(y.shape))

    @pytest.mark.parametrize("name", ["conv", "pool", "residual", "dense"])
    def test_cached_forward_after_uncached_still_backpropagates(self, name):
        layer, shape = self.layers()[name]
        rng = np.random.default_rng(2)
        x = rng.standard_normal(shape)
        layer.forward(rng.standard_normal(shape), cache=False)
        gy = rng.standard_normal(layer.forward(x).shape)
        gx = layer.backward(gy)
        fd = fd_gradient(lambda v: float(np.sum(layer.forward(v) * gy)), x, h=1e-6)
        assert rel_error(gx, fd) < 1e-4


class TestUncachedForwardMemory:
    """What an uncached forward returns is the caller's: later forwards
    never write over it, nor over a cached forward's backward state. Only
    an uncached ReLU reuses memory, its input's."""

    # (in, out, kernel, stride, padding, length): the last two give one
    # output channel or one output position
    @pytest.mark.parametrize("shape", [(3, 4, 3, 2, 1, 23), (2, 1, 3, 1, 1, 9),
                                       (2, 5, 3, 1, 0, 3)])
    def test_output_survives_later_uncached_forwards(self, shape):
        *conv, length = shape
        layer = make_conv(*conv)
        x = np.random.default_rng(6).standard_normal((4, conv[0], length))
        y = layer.forward(x, cache=False)
        assert y.transpose(1, 2, 0).flags.c_contiguous
        kept = y.copy()
        make_conv(conv[0], 6, 5, 1, 2, seed=2).forward(x, cache=False)
        assert y.tobytes() == kept.tobytes()

    def test_uncached_forward_between_forward_and_backward(self):
        rng = np.random.default_rng(7)
        a, b = make_conv(3, 4, 3, 2, 1), make_conv(3, 6, 7, 1, 3, seed=1)
        x, gy = rng.standard_normal((5, 3, 23)), rng.standard_normal((5, 4, 12))
        a.forward(x)
        gx_want = a.backward(gy)
        grads_want = {k: v.tobytes() for k, v in a.grads.items()}
        a.forward(x)
        b.forward(rng.standard_normal((9, 3, 40)), cache=False)
        assert a.backward(gy).tobytes() == gx_want.tobytes()
        assert {k: v.tobytes() for k, v in a.grads.items()} == grads_want

    def test_relu_overwrites_its_input(self):
        x = np.random.default_rng(8).standard_normal((3, 2, 7))
        want = np.maximum(x, 0)
        assert nn.ReLU().forward(x, cache=False) is x
        assert x.tobytes() == want.tobytes()


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.ones(3, dtype=np.float32)
        opt = nn.Adam(p, lr=0.1)
        opt.step(np.zeros(3))
        assert np.allclose(p, 1.0)
        assert opt.t == 1

    def test_first_step_magnitude(self):
        # with zero state and g=1, bias-corrected m/sqrt(v) = 1 -> step = -lr
        p = np.zeros(1, dtype=np.float64)
        opt = nn.Adam(p, lr=0.001)
        opt.step(np.ones(1))
        assert p[0] == pytest.approx(-0.001, rel=1e-6)

    def test_descends_constant_gradient(self):
        p = np.zeros(1, dtype=np.float64)
        opt = nn.Adam(p, lr=0.01)
        for _ in range(50):
            opt.step(np.full(1, 2.5))
        assert p[0] < -0.1

    @staticmethod
    def _per_tensor_adam(params, grad_seq, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        """Reference: the Adam update applied tensor by tensor."""
        m = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        v = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        for t, grads in enumerate(grad_seq, start=1):
            for k, p in params.items():
                g = grads[k]
                m[k] *= beta1
                m[k] += (1 - beta1) * g
                v[k] *= beta2
                v[k] += (1 - beta2) * np.square(g, dtype=np.float64)
                mhat = m[k] / (1 - beta1 ** t)
                vhat = v[k] / (1 - beta2 ** t)
                p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)

    # (parameter dtype, gradient dtype); the model's case is the second
    @pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float32, np.float64)])
    def test_flat_step_bit_equal_to_per_tensor(self, dtypes):
        rng = np.random.default_rng(13)
        shapes = [(4, 3, 2), (4,), (5, 7)]
        # parameters small next to the steps and gradients over six decades,
        # so a last-bit change in the update shows in the parameters
        init = {f"t{i}": (1e-4 * rng.standard_normal(shape)).astype(dtypes[0])
                for i, shape in enumerate(shapes)}
        grad_seq = [{k: (rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-3, 3, p.shape)
                         ).astype(dtypes[1]) for k, p in init.items()} for _ in range(20)]
        theta = np.concatenate([p.ravel() for p in init.values()])
        opt = nn.Adam(theta, lr=0.01)
        for grads in grad_seq:
            opt.step(np.concatenate([g.ravel() for g in grads.values()]))
        ref = {k: p.copy() for k, p in init.items()}
        self._per_tensor_adam(ref, grad_seq)
        assert theta.dtype == dtypes[0]
        assert theta.tobytes() == b"".join(p.tobytes() for p in ref.values())


class TestDeterminism:
    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 16)).astype(np.float32)
        l1 = nn.Conv1d(3, 4, 3, 2, 1, rng=np.random.default_rng(0))
        l2 = nn.Conv1d(3, 4, 3, 2, 1, rng=np.random.default_rng(0))
        assert np.array_equal(l1.forward(x), l2.forward(x))
        assert np.array_equal(l1.params["w"], l2.params["w"])
