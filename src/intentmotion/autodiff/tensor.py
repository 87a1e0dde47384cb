"""Reverse-mode automatic differentiation on dense float64 arrays.

A ``Tensor`` wraps a numpy array and remembers the operation that
produced it.  Each tensor carries one bit, ``requires_grad``.  A leaf
requires a gradient unless it is created with ``requires_grad=False``
(data, constants and frozen parameters are); an operation's output
requires one when any of its inputs does, and keeps only those inputs
as ``parents``.  Calling :func:`backward` on a scalar tensor walks the
graph in reverse topological order and accumulates ``grad`` on every
reachable tensor that requires a gradient, leaves included; every other
tensor keeps ``grad`` at None and costs the backward pass nothing.
Gradients accumulate across repeated backward calls until
:meth:`Tensor.zero_grad` is called.

All values are float64.  Graphs are built eagerly.  Plain numbers and
arrays passed to an operation become constants that need no gradient.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class AutodiffError(Exception):
    """Raised on malformed graphs or incompatible shapes."""


class Tensor:
    __slots__ = ("values", "grad", "parents", "op", "_backward", "requires_grad")

    def __init__(self, values, parents=(), op="leaf", requires_grad=True):
        """``requires_grad`` sets a leaf's flag; an op output's flag is the
        OR of its parents' flags, and only those parents are kept."""
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        if parents:
            self.parents = tuple(p for p in parents if p.requires_grad)
            self.requires_grad = bool(self.parents)
        else:
            self.parents = ()
            self.requires_grad = bool(requires_grad)
        self.op = op
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            # a fresh array, never an alias of g; g + 0.0 has the bits of
            # zeros + g, -0.0 becoming +0.0 included
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
        else:
            self.grad += g

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.values.shape})"

    def __getitem__(self, key):
        return take(self, key)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _check_shapes(op, *tensors):
    try:
        np.broadcast_shapes(*(t.values.shape for t in tensors))
    except ValueError:
        shapes = [t.values.shape for t in tensors]
        raise AutodiffError(f"{op}: incompatible shapes {shapes}") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes("add", a, b)
    out = Tensor(a.values + b.values, (a, b), "add")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.values.shape))

    out._backward = bwd
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes("sub", a, b)
    out = Tensor(a.values - b.values, (a, b), "sub")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.values.shape))

    out._backward = bwd
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes("mul", a, b)
    out = Tensor(a.values * b.values, (a, b), "mul")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.values.shape))

    out._backward = bwd
    return out


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes("div", a, b)
    out = Tensor(a.values / b.values, (a, b), "div")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.values / b.values**2, b.values.shape))

    out._backward = bwd
    return out


def pow_const(a, p):
    a = _as_tensor(a)
    out = Tensor(a.values**p, (a,), "pow")

    def bwd(g):
        a._accumulate(g * p * a.values ** (p - 1))

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# activations and transcendentals


def relu(a):
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.values, 0.0), (a,), "relu")

    def bwd(g):
        a._accumulate(g * (a.values > 0.0))

    out._backward = bwd
    return out


def tanh(a):
    a = _as_tensor(a)
    y = np.tanh(a.values)
    out = Tensor(y, (a,), "tanh")

    def bwd(g):
        a._accumulate(g * (1.0 - y**2))

    out._backward = bwd
    return out


def sigmoid(a):
    a = _as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-np.clip(a.values, -500, 500)))
    out = Tensor(y, (a,), "sigmoid")

    def bwd(g):
        a._accumulate(g * y * (1.0 - y))

    out._backward = bwd
    return out


def exp(a):
    a = _as_tensor(a)
    y = np.exp(a.values)
    out = Tensor(y, (a,), "exp")

    def bwd(g):
        a._accumulate(g * y)

    out._backward = bwd
    return out


def log(a):
    a = _as_tensor(a)
    out = Tensor(np.log(a.values), (a,), "log")

    def bwd(g):
        a._accumulate(g / a.values)

    out._backward = bwd
    return out


def sqrt(a):
    a = _as_tensor(a)
    y = np.sqrt(a.values)
    out = Tensor(y, (a,), "sqrt")

    def bwd(g):
        a._accumulate(g * 0.5 / y)

    out._backward = bwd
    return out


def softplus(a):
    """log(1 + e^x), computed without overflow for large |x|."""
    a = _as_tensor(a)
    y = np.logaddexp(0.0, a.values)
    out = Tensor(y, (a,), "softplus")

    def bwd(g):
        s = 1.0 / (1.0 + np.exp(-np.clip(a.values, -500, 500)))
        a._accumulate(g * s)

    out._backward = bwd
    return out


def log_sinh(a):
    """log(sinh(x)) for x > 0, stable for large x; derivative coth(x)."""
    a = _as_tensor(a)
    x = a.values
    small = x < 20.0
    y = np.where(small, np.log(np.sinh(np.where(small, x, 1.0))),
                 x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0))
    out = Tensor(y, (a,), "log_sinh")

    def bwd(g):
        a._accumulate(g / np.tanh(x))

    out._backward = bwd
    return out


def softmax(a, axis=-1):
    a = _as_tensor(a)
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,), "softmax")

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - dot))

    out._backward = bwd
    return out


def logsumexp(a, axis=-1, keepdims=False, extra_const=0.0):
    """log(sum(exp(a)) + extra_const) along ``axis``.

    ``extra_const`` is a non-negative constant added inside the log
    (used for floored likelihoods); gradients do not flow through it.
    """
    a = _as_tensor(a)
    m = a.values.max(axis=axis, keepdims=True)
    shifted = exp(sub(a, m))
    s = sum_(shifted, axis=axis, keepdims=True)
    if extra_const:
        s = add(s, extra_const * np.exp(-m))
    res = add(log(s), m)
    if not keepdims:
        res = reshape(res, np.squeeze(res.values, axis=axis).shape)
    return res


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.values.reshape(shape), (a,), "reshape")

    def bwd(g):
        a._accumulate(g.reshape(a.values.shape))

    out._backward = bwd
    return out


def take(a, key):
    """Basic-slicing view ``a[key]`` with scatter-add backward."""
    a = _as_tensor(a)
    out = Tensor(a.values[key], (a,), "take")

    def bwd(g):
        full = np.zeros_like(a.values)
        np.add.at(full, key, g)
        a._accumulate(full)

    out._backward = bwd
    return out


def concat(xs, axis=-1):
    xs = [_as_tensor(x) for x in xs]
    out = Tensor(np.concatenate([x.values for x in xs], axis=axis), tuple(xs), "concat")
    sizes = [x.values.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            x._accumulate(g[tuple(idx)])

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# reductions and linear algebra


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = Tensor(a.values.sum(axis=axis, keepdims=keepdims), (a,), "sum")

    def bwd(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.values.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.values.shape).copy())

    out._backward = bwd
    return out


def mean(a, axis=None):
    a = _as_tensor(a)
    n = a.values.size if axis is None else a.values.shape[axis]
    return mul(sum_(a, axis=axis), 1.0 / n)


def sum_sq(a):
    return sum_(mul(a, a))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise AutodiffError(
            f"matmul: incompatible shapes {a.values.shape} x {b.values.shape}")
    out = Tensor(a.values @ b.values, (a, b), "matmul")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ g)

    out._backward = bwd
    return out


def dense(x, w, b=None):
    """Affine layer x @ w + b for x of shape (N, in) or (in,)."""
    x = _as_tensor(x)
    squeeze = x.values.ndim == 1
    if squeeze:
        x = reshape(x, (1, -1))
    y = matmul(x, w)
    if b is not None:
        y = add(y, b)
    if squeeze:
        y = reshape(y, (y.values.shape[-1],))
    return y


# ---------------------------------------------------------------------------
# spatial ops on (N, H, W, C) tensors


def _check_spatial(op, x):
    if x.values.ndim != 4:
        raise AutodiffError(f"{op}: expected an (N, H, W, C) input, got shape "
                            f"{x.values.shape}")


def conv2d_same(x, k):
    """Stride-1 zero-padded convolution; kernel shape (kh, kw, Cin, Cout)
    with odd kh and kw.

    The forward pass is one GEMM of the (N*H*W, kh*kw*Cin) im2col columns
    with the kernel; the node keeps only the padded input's window view,
    not the columns.  The kernel gradient rebuilds the columns by the same
    expression and takes one GEMM with the output gradient.  The input
    gradient is one small GEMM per kernel offset, ``g @ k[i, j].T``, added
    into a zero-padded buffer at that offset's shift in row-major (i, j)
    order, so no column gradient is ever built.  With Cin >= 2 this gives
    the bits of the full column-gradient GEMM and its scatter; with Cin = 1
    each product is a matrix-vector one and may round differently.
    """
    x, k = _as_tensor(x), _as_tensor(k)
    if x.values.ndim != 4 or k.values.ndim != 4 or x.values.shape[3] != k.values.shape[2]:
        raise AutodiffError(
            f"conv2d_same: incompatible shapes {x.values.shape} x {k.values.shape}")
    n, h, w, cin = x.values.shape
    kh, kw, _, cout = k.values.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise AutodiffError(f"conv2d_same: kernel {k.values.shape} has an even "
                            "spatial size; 'same' padding needs odd kh and kw")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.values, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (N,H,W,Cin,kh,kw)

    def columns():
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, kh * kw * cin)

    kv = k.values
    out = Tensor((columns() @ kv.reshape(kh * kw * cin, cout)).reshape(n, h, w, cout),
                 (x, k), "conv2d")

    def bwd(g):
        gf = g.reshape(n * h * w, cout)
        if k.requires_grad:
            k._accumulate((columns().T @ gf).reshape(kv.shape))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + h, j:j + w, :] += (gf @ kv[i, j].T).reshape(n, h, w, cin)
            x._accumulate(dxp[:, ph:ph + h, pw:pw + w, :])

    out._backward = bwd
    return out


def maxpool2(x):
    """2x2 max pooling, stride 2.

    Ties go to the first element of the window in row-major order, both
    for the value (the sign of a +0/-0 tie included) and for the
    gradient; a window holding NaN gives NaN and routes its gradient to
    its first NaN.  The forward pass takes the four strided views q0..q3
    of the windows and computes ``max(max(q3, q2), max(q1, q0))``: it
    relies on ``np.maximum`` returning its second operand when the two
    compare equal, so the earlier element always wins a tie.
    """
    x = _as_tensor(x)
    _check_spatial("maxpool2", x)
    n, h, w, c = x.values.shape
    if h % 2 or w % 2:
        raise AutodiffError(f"maxpool2: odd spatial dims {x.values.shape}")
    h2, w2 = h // 2, w // 2
    xr = x.values.reshape(n * h2, 2, w2, 2, c)
    y = np.maximum(np.maximum(xr[:, 1, :, 1], xr[:, 1, :, 0]),
                   np.maximum(xr[:, 0, :, 1], xr[:, 0, :, 0]))
    out = Tensor(y.reshape(n, h2, w2, c), (x,), "maxpool2")

    def paired(v):
        # (n*h2, w2, c) -> (n*h2, 1, w2*2*c): each value twice along the
        # window's column axis, so that comparing it with the (n*h2, 2,
        # w2*2*c) rows of x runs over contiguous memory
        return np.repeat(v.reshape(n * h2, w2, 1, c), 2, axis=2).reshape(
            n * h2, 1, w2 * 2 * c)

    def bwd(g):
        hit = x.values.reshape(n * h2, 2, w2 * 2 * c) == paired(y)
        if np.isnan(y).any():
            # NaN equals nothing, so a NaN window's hits are its NaNs
            hit |= np.isnan(x.values).reshape(hit.shape)
        # keep each window's first hit in row-major order; the c flags of
        # one window position are adjacent bytes of 0 or 1, which &, | and
        # ~ treat bytewise, so they are handled as whole unsigned words
        e = hit.reshape(xr.shape).view(f"u{math.gcd(c, 8)}")
        e[:, 0, :, 1] &= ~e[:, 0, :, 0]
        row0 = e[:, 0, :, 0] | e[:, 0, :, 1]
        e[:, 1, :, 0] &= ~row0
        e[:, 1, :, 1] &= ~(row0 | e[:, 1, :, 0])
        # g where hit, +0.0 elsewhere: +0.0 is the all-zero bit pattern,
        # so masking g's bits with all-ones or all-zeros selects exactly
        bits = hit.astype(np.uint64)
        np.negative(bits, out=bits)
        bits &= paired(g).view(np.uint64)
        x._accumulate(bits.view(np.float64).reshape(n, h, w, c))

    out._backward = bwd
    return out


def upsample2_nearest(x):
    x = _as_tensor(x)
    _check_spatial("upsample2_nearest", x)
    n, h, w, c = x.values.shape
    out = Tensor(x.values.repeat(2, axis=1).repeat(2, axis=2), (x,), "upsample2")

    def bwd(g):
        x._accumulate(g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4)))

    out._backward = bwd
    return out


def bilinear2d(grids, uv):
    """Per-sample bilinear lookup in a batch of 2-D grids.

    ``grids``: constant array (N, H, W); ``uv``: Tensor of continuous
    cell coordinates, shape (N, M, 2).  Out-of-range coordinates clamp
    to the border and the Euclidean overshoot distance (in cells) is
    subtracted from the interpolated value, keeping the result
    continuous and differentiable almost everywhere.
    """
    uv = _as_tensor(uv)
    grids = np.asarray(grids, dtype=np.float64)
    n, h, w = grids.shape
    u = uv.values[..., 0]
    v = uv.values[..., 1]
    uc = np.clip(u, 0.0, h - 1.0)
    vc = np.clip(v, 0.0, w - 1.0)
    du, dv = u - uc, v - vc
    over = np.sqrt(du**2 + dv**2)
    i0 = np.clip(np.floor(uc).astype(int), 0, h - 2)
    j0 = np.clip(np.floor(vc).astype(int), 0, w - 2)
    fu, fv = uc - i0, vc - j0
    bi = np.arange(n)[:, None]
    g00 = grids[bi, i0, j0]
    g01 = grids[bi, i0, j0 + 1]
    g10 = grids[bi, i0 + 1, j0]
    g11 = grids[bi, i0 + 1, j0 + 1]
    interp = ((1 - fu) * (1 - fv) * g00 + (1 - fu) * fv * g01
              + fu * (1 - fv) * g10 + fu * fv * g11)
    out = Tensor(interp - over, (uv,), "bilinear2d")

    def bwd(g):
        d_du = (1 - fv) * (g10 - g00) + fv * (g11 - g01)
        d_dv = (1 - fu) * (g01 - g00) + fu * (g11 - g10)
        inside_u = (u > 0.0) & (u < h - 1.0)
        inside_v = (v > 0.0) & (v < w - 1.0)
        safe = np.where(over > 0.0, over, 1.0)
        gu = np.where(inside_u, d_du, -du / safe)
        gv = np.where(inside_v, d_dv, -dv / safe)
        full = np.stack([gu * g, gv * g], axis=-1)
        uv._accumulate(full)

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# backward driver


def backward(root):
    """Accumulate d(root)/d(node) on every node reachable from ``root``
    that requires a gradient.

    ``root`` must be scalar.  The walk follows ``parents``, which hold
    only tensors that require a gradient, so constants and frozen
    parameters are never visited.  A root that requires no gradient is
    a no-op.  Repeated calls without ``zero_grad`` accumulate, so two
    passes double every gradient.
    """
    if np.size(root.values) != 1:
        raise AutodiffError(f"backward: root must be scalar, got shape {root.values.shape}")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    # Each pass propagates fresh adjoints; pre-existing grads are set
    # aside and added back afterwards so repeated passes accumulate.
    prior = {}
    for node in order:
        if node.grad is not None:
            prior[id(node)] = node.grad
            node.grad = None
    root._accumulate(np.ones_like(root.values))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in order:
        old = prior.get(id(node))
        if old is not None:
            if node.grad is None:
                node.grad = old
            else:
                node.grad += old
