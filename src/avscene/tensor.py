"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Every numeric kernel the scene classifier needs lives here: convolutions,
activations, pooling, bilinear resampling, the classification loss, a
parameter registry, a finite-difference gradient checker, and the AGT1
tensor file format used for feature exchange and checkpoints.

A backbone conv unit is one op, ``conv2d`` = ``relu?(scale[O] * (w ⋆ x) +
bias[O] + residual)``; a residual block's last unit takes the shortcut as
``residual``, so the join is part of that op. It works in place only on the
fresh output it allocates, never on its inputs, and its tape keeps no im2col
columns: the backward builds them again from ``x``.

The columns come from one flat, zero-padded plane per row phase of the
stride, with rows of s·wq cells for wq = ceil(cw / s), cw the padded columns
that windows read. Each of the kh·kw taps is then one long slice of a plane,
contiguous at stride 1 and with step s otherwise, instead of ho short rows
of wo cells. The matrix products run on ho·wq columns per channel: the
wq - wo extra columns of each output row are dropped in the forward, and
get a zero gradient in the backward, which adds each tap's column gradient
back into the planes. The planes hold only cells that some window reads.
An unpadded 1x1 kernel builds no plane: its one tap is x[:, :, ::s, ::s].

Gradients are computed by recording a tape of backward closures during the
forward pass and replaying it in reverse topological order. The replay
consumes the tape: each interior node's gradient, closure and parent links
are released as soon as its closure has run, so only leaves (parameters and
inputs created with ``requires_grad``) keep ``grad``, and a second
``backward()`` through a consumed node raises ``ConfigurationError``.

A tensor holds float32 or float64; any other input becomes float64. Every op
computes in its operands' dtype, and a gradient takes the dtype of the tensor
it belongs to. ``softmax_cross_entropy`` is the exception: it reduces in
float64 and returns a float64 loss, as in mixed-precision training. A
``ParamRegistry`` casts its parameters to one dtype, float64 by default. The
AGT1 file format stores float32, so a float32 tensor round-trips bit for bit.
There is no broadcasting beyond bias addition: operands must match shapes
exactly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, NumericError

# Dtypes a Tensor keeps as given; any other input becomes float64.
_FLOAT_DTYPES = frozenset({np.dtype(np.float32), np.dtype(np.float64)})

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "grad_enabled", default=True
)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """N-dimensional float32 or float64 array plus an optional gradient.

    A tensor produced by an operation holds references to its parents and a
    backward closure; calling ``backward()`` on a scalar result walks the
    recorded graph in reverse. A single tape is not thread-safe, but
    operations on disjoint tensors may run concurrently.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-mode pass from a single-element tensor; consumes the graph.

        Leaves (parameters and inputs created with ``requires_grad``)
        accumulate into ``grad``. Every interior node drops its ``grad``, its
        parent links and its closure once its closure has run, so activations
        and saved buffers are freed as the walk passes them. A second
        ``backward()`` that reaches a consumed node raises
        ``ConfigurationError`` before any gradient changes.
        """
        if self.data.size != 1:
            raise ConfigurationError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)  # raises before any gradient changes
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _consumed

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _consumed(g) -> None:
    """Stands in for the closure of a node that ``backward()`` has walked."""
    raise ConfigurationError(
        "graph already consumed by backward(); run the forward again"
    )


def _accumulate(t: Tensor, g, fresh: bool = False) -> None:
    # First assignment copies: g may alias another tensor's grad buffer.
    # The copy takes t's dtype, so a float64 gradient (the loss's) reaching a
    # float32 tensor is cast back; += keeps the dtype of t.grad. A ``fresh`` g
    # is an array the closure made and hands over, that nothing else holds:
    # it becomes t.grad uncopied when it already has t's dtype.
    if t.grad is None:
        if fresh and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _record(out: Tensor, parents: tuple, backward) -> Tensor:
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise and affine ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for operands of one shape; both receive the output's gradient."""
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"add: shape {a.data.shape} != {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"mul: shape {a.data.shape} != {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record(out, (a, b), bwd)


def scalar_affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * x + shift with python-float coefficients."""
    out = Tensor(x.data * scale + shift)

    def bwd(g):
        _accumulate(x, g * scale)

    return _record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)
    out = Tensor(y)

    def bwd(g):
        # Subgradient at exactly 0 is 0.
        _accumulate(x, g * (y > 0.0))

    return _record(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    out = Tensor(y)

    def bwd(g):
        _accumulate(x, g * y * (1.0 - y))

    return _record(out, (x,), bwd)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Split by sign to avoid exp overflow.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def cast(x: Tensor, dtype) -> Tensor:
    """x in another float dtype (x itself if it has it); the gradient is cast back."""
    if x.data.dtype == dtype:
        return x
    out = Tensor(x.data.astype(dtype))

    def bwd(g):
        _accumulate(x, g)  # _accumulate casts to x's dtype

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _record(out, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    parts = list(tensors)
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis))
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(index)])

    return _record(out, tuple(parts), bwd)


def slice_batch(x: Tensor, i: int) -> Tensor:
    """Select batch item i, keeping a leading axis of size 1."""
    out = Tensor(x.data[i : i + 1])

    def bwd(g):
        dx = np.zeros_like(x.data)
        dx[i : i + 1] = g
        _accumulate(x, dx)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map of the last axis: x[..., F] @ w[L,F]^T + b[L], for rank >= 2.

    Each leading item, and each row of a rank-2 x (as x[:, None, :]), is its
    own matrix product, so its output does not depend on the batch around it.
    """
    xn = x.data
    if xn.ndim < 2 or w.data.ndim != 2 or xn.shape[-1] != w.data.shape[1]:
        raise ConfigurationError(
            f"linear: x {xn.shape} incompatible with w {w.data.shape}"
        )
    y = (xn[:, None, :] @ w.data.T)[:, 0] if xn.ndim == 2 else xn @ w.data.T
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data, fresh=True)
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            _accumulate(w, g2.T @ xn.reshape(-1, xn.shape[-1]), fresh=True)
        if b is not None and b.requires_grad:
            _accumulate(b, g2.sum(axis=0), fresh=True)

    parents = (x, w) if b is None else (x, w, b)
    return _record(out, parents, bwd)


def batched_matrix_apply(m: np.ndarray, x: Tensor) -> Tensor:
    """Apply constant matrices, cast to x's dtype, to the items of x[N,K,C].

    m is one [K,K] matrix for every item, or [N,K,K] with one per item.
    """
    m = np.asarray(m, dtype=x.data.dtype)
    shape = x.data.shape
    if x.data.ndim != 3 or m.shape not in ((shape[1],) * 2, (shape[0],) + (shape[1],) * 2):
        raise ConfigurationError(
            f"batched_matrix_apply: m {m.shape} does not fit x {shape}"
        )
    out = Tensor(np.matmul(m, x.data))

    def bwd(g):
        _accumulate(x, np.matmul(m.swapaxes(-1, -2), g), fresh=True)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TapLayout:
    """Where ``conv2d`` finds its kh·kw taps in the stride-phase planes of x.

    Row phase a of stride s is one flat, zero-padded plane that holds the
    padded input's rows a, a + s, a + 2s, ... in rows of s·wq cells, where
    wq = ceil(cw / s) >= wo for the cw padded columns that windows read. Tap
    (i, j) is then one slice of ho·wq cells with step s: it starts at
    (i // s)·s·wq + j in plane i mod s, and output (yo, xo) is its element
    yo·wq + xo. So every tap is contiguous at stride 1. The wq - wo extra
    columns of each output row read other cells or zeros; the forward drops
    them and the backward gives them a zero gradient. A plane holds only the
    rows and the columns that windows read, and a tap's slice meets only
    columns congruent to its j mod s, so no cell of x that no window reads
    reaches an output or a gradient.
    """

    kh: int
    kw: int
    stride: int
    padding: int
    ho: int
    wo: int
    wq: int  # columns per output row, wo plus the extra ones
    hq: int  # rows per plane
    plane: int  # flat length of a plane: hq·s·wq and the last tap's overhang
    fills: tuple  # (phase, plane rows, input rows) slices of the read rows
    read_w: int  # windows read the input's columns x[..., :read_w]
    offsets: tuple  # start of each tap's slice in the stacked planes, (i, j) order

    @property
    def phases(self) -> int:
        return min(self.stride, self.kh)

    @property
    def one_tap(self) -> bool:
        """An unpadded 1x1 kernel: its one tap is x[:, :, ::s, ::s], and no plane is built."""
        return self.kh == self.kw == 1 and self.padding == 0


@functools.lru_cache(maxsize=256)
def _tap_layout(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> _TapLayout:
    s, p = stride, padding
    ho, wo = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    wq = -(-(s * (wo - 1) + kw) // s)
    hq = ho + (kh - 1) // s
    # Plane row r of phase a is padded row a + s·r, input row a + s·r - p;
    # windows read padded rows below s·(ho-1) + kh.
    end = min(s * (ho - 1) + kh, p + h)
    fills = []
    for a in range(min(s, kh)):
        lo, hi = max(0, -((a - p) // s)), min(hq, -((a - end) // s))
        if hi > lo:
            y0 = a + s * lo - p
            fills.append((a, slice(lo, hi), slice(y0, y0 + s * (hi - lo - 1) + 1, s)))
    read_w = min(w, s * (wo - 1) + kw - p)
    plane = hq * s * wq + max(0, kw - s)
    offsets = tuple(
        (i % s) * plane + (i // s) * s * wq + j for i in range(kh) for j in range(kw)
    )
    return _TapLayout(kh, kw, s, p, ho, wo, wq, hq, plane, tuple(fills), read_w, offsets)


def _plane_rows(planes: np.ndarray, t: _TapLayout) -> np.ndarray:
    """[N, C, phases, hq, s·wq] view of flat planes [N, C, phases·plane]."""
    n, c, _ = planes.shape
    stacked = planes.reshape(n, c, t.phases, t.plane)[..., : t.hq * t.stride * t.wq]
    return stacked.reshape(n, c, t.phases, t.hq, t.stride * t.wq)  # splits one axis: a view


def _im2col(x: np.ndarray, t: _TapLayout) -> np.ndarray:
    """[N, C·kh·kw, ho·wq] columns of x: row (c, i, j) is tap (i, j)'s slice of c's planes.

    The row-phase planes are zero-padded and hold only the cells that
    windows read. An unpadded 1x1 kernel's columns are x[:, :, ::s, ::s]:
    x itself at stride 1, one copy otherwise. Else the taps of one row phase
    are one strided view of its plane, copied.
    """
    n, c, _, _ = x.shape
    s = t.stride
    if t.one_tap:
        return np.ascontiguousarray(x[:, :, ::s, ::s]).reshape(n, c, -1)
    planes = np.zeros((n, c, t.phases * t.plane), dtype=x.dtype)
    rows = _plane_rows(planes, t)
    cols = slice(t.padding, t.padding + t.read_w)
    for phase, plane_rows, ys in t.fills:
        rows[:, :, phase, plane_rows, cols] = x[:, :, ys, : t.read_w]
    span = t.ho * t.wq
    taps = np.empty((n, c, t.kh, t.kw, span), dtype=x.dtype)
    sn, sc, se = planes.strides
    for phase in range(t.phases):
        dest = taps[:, :, phase::s]
        strides = (sn, sc, s * t.wq * se, se, s * se)
        offset = t.offsets[phase * t.kw] * se
        dest[...] = np.ndarray(dest.shape, x.dtype, planes, offset, strides)
    return taps.reshape(n, -1, span)


def _col2im(dcols: np.ndarray, shape, t: _TapLayout) -> np.ndarray:
    """Fresh input gradient [N,C,H,W] of the columns' gradient [N, C·kh·kw, ho·wq].

    Each tap's row adds into its slice of the row-phase planes, in tap
    order; the planes' cells then go back to their places in x, and every
    cell of x that no window reads gets 0. An unpadded 1x1 kernel's columns
    are the gradient of x[:, :, ::s, ::s] itself.
    """
    n, c, _, _ = shape
    s, span = t.stride, t.ho * t.wq
    if t.one_tap:
        if s == 1:
            return dcols.reshape(shape)
        dx = np.zeros(shape, dtype=dcols.dtype)
        dx[:, :, ::s, ::s] = dcols.reshape(n, c, t.ho, t.wo)
        return dx
    dplanes = np.zeros((n, c, t.phases * t.plane), dtype=dcols.dtype)
    taps = dcols.reshape(n, c, len(t.offsets), span)
    for k, start in enumerate(t.offsets):
        dplanes[:, :, start : start + s * (span - 1) + 1 : s] += taps[:, :, k]
    rows = _plane_rows(dplanes, t)
    dx = np.zeros(shape, dtype=dcols.dtype)
    cols = slice(t.padding, t.padding + t.read_w)
    for phase, plane_rows, ys in t.fills:
        dx[:, :, ys, : t.read_w] = rows[:, :, phase, plane_rows, cols]
    return dx


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    scale: Tensor | None = None,
    relu: bool = False,
    residual: Tensor | None = None,
) -> Tensor:
    """Conv unit relu?(scale[O] * (w ⋆ x) + bias[O] + residual) for x[N,C,H,W], w[O,C,kh,kw].

    ``w ⋆ x`` is the 2-D cross-correlation, and ``residual`` has the output's
    shape. The columns are one slice per tap of x's stride-phase planes
    (``_TapLayout``), so each output row has wq - wo extra columns: the
    matrix products run on ho·wq columns, the forward drops the extra ones
    and the backward zero-pads the output gradient to match. An unpadded
    1x1 conv reads its columns straight from x[:, :, ::s, ::s].

    The affine, the residual sum and the ReLU run in place, in that order, on
    the matrix product's fresh output, so the tape keeps only that output:
    the backward masks by ``out > 0``, hands the masked gradient to
    ``residual`` and builds the columns again from ``x``.
    """
    xn, wn = x.data, w.data
    if xn.ndim != 4 or wn.ndim != 4:
        raise ConfigurationError(
            f"conv2d: need rank-4 input and weight, got {xn.ndim} and {wn.ndim}"
        )
    n, c, h, wd = xn.shape
    o, cw, kh, kw = wn.shape
    if cw != c:
        raise ConfigurationError(f"conv2d: weight expects {cw} channels, input has {c}")
    if stride < 1:
        raise ConfigurationError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigurationError(f"conv2d: padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ConfigurationError(
            f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp}"
        )
    for name, t in (("scale", scale), ("bias", bias)):
        if t is not None and t.data.shape != (o,):
            raise ConfigurationError(f"conv2d: {name} shape {t.data.shape} != ({o},)")
    layout = _tap_layout(h, wd, kh, kw, stride, padding)
    ho, wo, wq = layout.ho, layout.wo, layout.wq
    if residual is not None and residual.data.shape != (n, o, ho, wo):
        raise ConfigurationError(
            f"conv2d: residual shape {residual.data.shape} != {(n, o, ho, wo)}"
        )
    w2 = wn.reshape(o, -1)
    yq = np.matmul(w2, _im2col(xn, layout))
    # Fresh [N,O,ho*wo] without the extra columns: the in-place steps below own it.
    y = yq.reshape(n, o, ho, wq)[..., :wo].reshape(n, o, ho * wo)
    if scale is not None:
        y *= scale.data.reshape(1, o, 1)
    if bias is not None:
        y += bias.data.reshape(1, o, 1)
    if residual is not None:
        y += residual.data.reshape(n, o, ho * wo)
    if relu:
        np.maximum(y, 0.0, out=y)
    out = Tensor(y.reshape(n, o, ho, wo))

    def bwd(g):
        g2 = g.reshape(n, o, ho * wo)
        if relu:
            g2 = g2 * (y > 0.0)  # subgradient at exactly 0 is 0
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g2.reshape(n, o, ho, wo))
        if wq > wo:  # the extra columns get a zero gradient
            gq = np.zeros((n, o, ho, wq), dtype=g2.dtype)
            gq[..., :wo] = g2.reshape(n, o, ho, wo)
            gq = gq.reshape(n, o, ho * wq)
        else:
            gq = g2
        scaled = scale is not None
        if w.requires_grad or (scaled and scale.requires_grad):
            cols = _im2col(x.data, layout)
            gw = np.matmul(gq, cols.transpose(0, 2, 1))
            # One item's product is the whole gradient: a sum over it would only copy it.
            gw = gw[0] if n == 1 else gw.sum(axis=0)
            del cols  # freed before the input gradient's buffers are made
            if scaled and scale.requires_grad:
                _accumulate(scale, np.einsum("ok,ok->o", gw, w2), fresh=True)
            if w.requires_grad:
                if scaled:
                    gw *= scale.data[:, None]
                _accumulate(w, gw.reshape(wn.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g2.sum(axis=(0, 2)), fresh=True)
        if x.requires_grad:
            if scaled:
                gq = gq * scale.data.reshape(1, o, 1)
            _accumulate(x, _col2im(np.matmul(w2.T, gq), xn.shape, layout), fresh=True)

    parents = (x, w) + tuple(t for t in (scale, bias, residual) if t is not None)
    return _record(out, parents, bwd)


def channel_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale x[N,C,H,W] by per-sample, per-channel gains s[N,C]."""
    if x.data.ndim != 4 or s.data.shape != x.data.shape[:2]:
        raise ConfigurationError(
            f"channel_scale: s {s.data.shape} does not fit x {x.data.shape}"
        )
    sx = s.data[:, :, None, None]
    out = Tensor(x.data * sx)

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g * sx)
        if s.requires_grad:
            _accumulate(s, (g * x.data).sum(axis=(2, 3)))

    return _record(out, (x, s), bwd)


# ---------------------------------------------------------------------------
# pooling and resampling
# ---------------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ConfigurationError(f"global_avg_pool: need rank 4, got {x.data.ndim}")
    n, c, h, w = x.data.shape
    out = Tensor(x.data.mean(axis=(2, 3)))

    def bwd(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape))

    return _record(out, (x,), bwd)


@functools.lru_cache(maxsize=256)
def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """[n_out, n_in] linear interpolation weights along one axis, in ``dtype``."""
    # Half-pixel-center mapping, clamped at the borders.
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    rows = np.arange(n_out)
    r = np.zeros((n_out, n_in))
    r[rows, lo] = 1.0 - frac
    r[rows, hi] += frac  # hi == lo only at the clamped border, where frac == 0
    r = r.astype(dtype, copy=False)
    r.flags.writeable = False  # the cache hands this array to every caller
    return r


def bilinear_resize_array(a: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Bilinear resize of the trailing two axes of a float array.

    Bilinear resizing is a fixed linear map: each trailing [H,W] plane X
    becomes R_y · X · R_xᵀ, where R_y[h2,H] and R_x[w2,W] interpolate one
    axis each with half-pixel centers, clamped at the borders.
    """
    ry = _resize_matrix(a.shape[-2], h2, a.dtype)
    rx = _resize_matrix(a.shape[-1], w2, a.dtype)
    return ry @ a @ rx.T


def bilinear_upsample(x: Tensor, h2: int, w2: int) -> Tensor:
    """Resize x[N,C,H,W] to [N,C,h2,w2] with bilinear interpolation.

    Each plane X becomes R_y · X · R_xᵀ, as in ``bilinear_resize_array``
    (half-pixel centers, clamped at the borders); the output gradient G
    flows back as R_yᵀ · G · R_x.
    """
    if x.data.ndim != 4:
        raise ConfigurationError(f"bilinear_upsample: need rank 4, got {x.data.ndim}")
    if h2 < 1 or w2 < 1:
        raise ConfigurationError(f"bilinear_upsample: bad target {h2}x{w2}")
    ry = _resize_matrix(x.data.shape[2], h2, x.data.dtype)
    rx = _resize_matrix(x.data.shape[3], w2, x.data.dtype)
    out = Tensor(ry @ x.data @ rx.T)

    def bwd(g):
        _accumulate(x, ry.T @ g @ rx)

    return _record(out, (x,), bwd)


def gather_pixels(x: Tensor, flat_indices) -> Tensor:
    """Gather feature vectors at flat spatial positions: x[N,C,H,W] -> [N,K,C]."""
    if x.data.ndim != 4:
        raise ConfigurationError(f"gather_pixels: need rank 4, got {x.data.ndim}")
    idx = np.asarray(flat_indices, dtype=np.int64)
    n, c, h, w = x.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= h * w):
        raise ConfigurationError(f"gather_pixels: index out of range for {h}x{w}")
    ys, xs = idx // w, idx % w
    out = Tensor(x.data[:, :, ys, xs].transpose(0, 2, 1))

    def bwd(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), slice(None), ys, xs), g.transpose(0, 2, 1))
        _accumulate(x, dx)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# loss and reductions
# ---------------------------------------------------------------------------


def total_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _record(out, (x,), bwd)


def softmax_probs(logits) -> np.ndarray:
    """Row softmax of logits[N,L]; rows sum to 1 (evaluation helper)."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax.

    The log-sum-exp and the mean run in float64 whatever the logits' dtype,
    and the loss is float64; the logits' gradient is cast back to their dtype.
    """
    if logits.data.ndim != 2:
        raise ConfigurationError(
            f"softmax_cross_entropy: logits must be rank 2, got {logits.data.ndim}"
        )
    n, l = logits.data.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise DataError(f"softmax_cross_entropy: labels shape {y.shape} != ({n},)")
    if y.size and (y.min() < 0 or y.max() >= l):
        raise DataError(
            f"softmax_cross_entropy: label out of range [0, {l}): {y[(y < 0) | (y >= l)][0]}"
        )
    z = logits.data.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)
    out = Tensor(-logp[rows, y].mean())

    def bwd(g):
        dl = np.exp(logp)
        dl[rows, y] -= 1.0
        _accumulate(logits, dl * (float(g) / n))

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# parameter registry and gradient checking
# ---------------------------------------------------------------------------


class ParamRegistry:
    """Ordered name -> trainable Tensor map; iteration is insertion order.

    Every parameter has the registry's ``dtype``, float32 or float64: an
    array is cast to it on registration, and a Tensor of another dtype is
    rejected. Its data is stored C-contiguous, so that ``reshape(-1)`` is a
    view that an in-place update (``SGD.step``) writes through.
    """

    def __init__(self, dtype=np.float64):
        if dtype not in (np.float32, np.float64):
            raise ConfigurationError(
                f"ParamRegistry: dtype must be float32 or float64, got {dtype!r}"
            )
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Tensor] = {}

    def register(self, name: str, value) -> Tensor:
        if name in self._entries:
            raise ConfigurationError(f"duplicate parameter name: {name}")
        if not isinstance(value, Tensor):
            value = Tensor(np.asarray(value, dtype=self.dtype))
        elif value.data.dtype != self.dtype:
            raise ConfigurationError(
                f"parameter {name}: dtype {value.data.dtype} != registry dtype {self.dtype}"
            )
        value.data = np.asarray(value.data, order="C")
        value.requires_grad = True
        self._entries[name] = value
        return value

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def num_scalars(self) -> int:
        return sum(t.data.size for t in self._entries.values())


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and central-difference gradients."""

    per_param: dict = field(default_factory=dict)
    max_relative_error: float = 0.0

    def worst_param(self) -> str:
        if not self.per_param:
            return ""
        return max(self.per_param, key=self.per_param.get)


def finite_diff_check(
    registry: ParamRegistry, loss_fn, epsilon: float = 1e-5
) -> GradCheckReport:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` must be a deterministic closure over the registry's tensors
    returning a scalar Tensor. Every scalar weight is perturbed by +/- epsilon
    in place; relative error is |a-b| / max(|a|, |b|, 1e-8).
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    registry.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NumericError("loss is not finite")
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in registry.items()
    }
    report = GradCheckReport()
    with no_grad():
        for name, p in registry.items():
            flat = p.data.reshape(-1)
            ga = analytic[name].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                f_plus = loss_fn().data.item()
                flat[i] = orig - epsilon
                f_minus = loss_fn().data.item()
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
                fd = (f_plus - f_minus) / (2.0 * epsilon)
                rel = abs(fd - ga[i]) / max(abs(fd), abs(ga[i]), 1e-8)
                if rel > worst:
                    worst = rel
            report.per_param[name] = worst
    report.max_relative_error = max(report.per_param.values(), default=0.0)
    return report


# ---------------------------------------------------------------------------
# AGT1 tensor file format
# ---------------------------------------------------------------------------

AGT1_MAGIC = b"AGT1"


def write_agt1(path, array) -> None:
    """Write an array as AGT1: magic, u8 rank, u32 LE dims, f32 LE payload."""
    a = array.data if isinstance(array, Tensor) else np.asarray(array)
    if a.ndim > 255:
        raise ConfigurationError(f"AGT1 rank limit exceeded: {a.ndim}")
    with open(path, "wb") as f:
        f.write(AGT1_MAGIC)
        f.write(struct.pack("<B", a.ndim))
        if a.ndim:
            f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_agt1(path) -> np.ndarray:
    """Read an AGT1 file into a float64 array (payload is stored as f32)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != AGT1_MAGIC:
        raise DataError(f"{path}: not an AGT1 file (bad magic at byte 0)")
    if len(raw) < 5:
        raise DataError(f"{path}: truncated header at byte {len(raw)}")
    rank = raw[4]
    header_end = 5 + 4 * rank
    if len(raw) < header_end:
        raise DataError(f"{path}: truncated dims at byte {len(raw)}")
    dims = struct.unpack(f"<{rank}I", raw[5:header_end]) if rank else ()
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    expected = header_end + 4 * count
    if len(raw) != expected:
        raise DataError(
            f"{path}: payload ends at byte {len(raw)}, expected {expected}"
        )
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=header_end)
    return flat.astype(np.float64).reshape(dims)
