"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Every numeric kernel the scene classifier needs lives here: convolutions,
activations, pooling, bilinear resampling, the fusion's gated blend, the
classification loss, a parameter registry and a finite-difference gradient
checker. Four of them have no caller in the package and serve the tests:
``add`` and ``mul`` build reference compositions, such as ``conv2d``'s
fused residual; ``total_sum`` reduces an output to a scalar loss to
differentiate; and ``finite_diff_check`` checks gradients against central
differences.

A backbone conv unit is one op, ``conv2d`` = ``relu?((w ⋆ x) + bias[O] +
residual)``; a residual block's last unit takes the shortcut as
``residual``, so the join is part of that op. It works in place only on the
fresh output it allocates, never on its inputs, and its tape keeps no im2col
columns: the backward builds them again from ``x``. The forward builds and
multiplies its columns one chunk of whole items at a time, so that it holds
at most ``_COLUMN_BYTES`` of columns at once, or one item's when they take
more; the backward builds the whole batch's columns.

``conv2d`` owns the padding rule: it takes an odd square k x k kernel and a
stride s of 1 or 2 and zero-pads by k // 2, so an n-cell axis gives
ceil(n / s) outputs. It works on one flat buffer of zero-padded
stride-phase planes per call, ordered [phase, C, N] (``_TapLayout``), so a
tap's im2col copy is one unit-stride run per channel over all items, and
its col2im add one contiguous run over all channels and items. The matrix
products stay one per item, on strided views of the columns.

Gradients are computed by recording a tape of backward closures during the
forward pass and replaying it in reverse topological order. The replay
consumes the tape: each interior node's gradient, closure and parent links
are released as soon as its closure has run, so only leaves (parameters and
inputs created with ``requires_grad``) keep ``grad``, and a second
``backward()`` through a consumed node raises ``ConfigurationError``. A
leaf's ``grad`` accumulates over backward passes until it is dropped: an
optimizer step (``model.SGD.step``) uses up the gradients it applies, and
``ParamRegistry.zero_grad`` drops them for a backward that no step follows.

A tensor holds float32 or float64; any other input becomes float64. Every op
computes in its operands' dtype, and a gradient takes the dtype of the tensor
it belongs to. ``softmax_cross_entropy`` is the exception: it reduces in
float64 and returns a float64 loss, as in mixed-precision training. A
``ParamRegistry`` casts its parameters to the one dtype it is built with.
There is no broadcasting beyond bias addition: operands must match shapes
exactly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, NumericError, is_int

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
        """The value of a one-element tensor of any rank, as a Python float."""
        if self.data.size != 1:
            raise ConfigurationError(f"item() needs one element, got shape {self.data.shape}")
        return self.data.item()

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
            _accumulate(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accumulate(b, g * a.data, fresh=True)

    return _record(out, (a, b), bwd)


def gate_blend(a: Tensor, b: Tensor, gate: Tensor) -> Tensor:
    """a·g + b·(1 − g) for maps a, b [N,C,H,W] and per-channel weights g = gate[N,C].

    The backward gives a G·g, b G·(1 − g) and the gate Σ_hw(G·a) − Σ_hw(G·b):
    the float operations of scaling each map by its weight and adding the
    two, so both ways of writing the blend give the same bits.
    """
    if a.data.ndim != 4 or b.data.shape != a.data.shape or gate.data.shape != a.data.shape[:2]:
        raise ConfigurationError(
            f"gate_blend: a {a.data.shape}, b {b.data.shape} and gate {gate.data.shape} "
            "are not [N,C,H,W], [N,C,H,W] and [N,C]"
        )
    g = gate.data[:, :, None, None]
    rest = (1.0 - gate.data)[:, :, None, None]
    out = Tensor(a.data * g + b.data * rest)

    def bwd(grad):
        if a.requires_grad:
            _accumulate(a, grad * g, fresh=True)
        if b.requires_grad:
            _accumulate(b, grad * rest, fresh=True)
        if gate.requires_grad:
            dgate = (grad * a.data).sum(axis=(2, 3)) - (grad * b.data).sum(axis=(2, 3))
            _accumulate(gate, dgate, fresh=True)

    return _record(out, (a, b, gate), bwd)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)
    out = Tensor(y)

    def bwd(g):
        # Subgradient at exactly 0 is 0.
        _accumulate(x, g * (y > 0.0), fresh=True)

    return _record(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    out = Tensor(y)

    def bwd(g):
        _accumulate(x, g * y * (1.0 - y), fresh=True)

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
        # g is this node's own gradient, which it drops after this closure.
        _accumulate(x, g.reshape(x.data.shape), fresh=True)

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
        _accumulate(x, dx, fresh=True)

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
    if b is not None and b.data.shape != w.data.shape[:1]:
        raise ConfigurationError(
            f"linear: b shape {b.data.shape} != ({w.data.shape[0]},) of w {w.data.shape}"
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
    """Apply constant matrices m[N,K,K], cast to x's dtype, to the items of x[N,K,C]."""
    m = np.asarray(m, dtype=x.data.dtype)
    shape = x.data.shape
    if x.data.ndim != 3 or m.shape != (shape[0],) + (shape[1],) * 2:
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
    """Where ``conv2d`` finds its k·k taps in the stride-phase planes of a batch.

    With the padding p = k // 2 of an odd k and a stride s of 1 or 2, the
    output is ho = ceil(h / s) by wo = ceil(w / s). Phase (a, b) of an
    item's zero-padded channel is the plane of its cells (a + s·r, b + s·q),
    r < hq and q < wq, row-major. One flat buffer holds the planes ordered
    [phase, C, N], one every ``pitch`` cells, so that with the padding at
    least the largest tap offset of zeros separates the cells of x in two
    planes. Tap (i, j) reads phase (i mod s, j mod s) from offset
    (i // s)·wq + j // s, and output (yo, xo) is element yo·wq + xo of its
    span of ho·wq cells, inside the plane and its zero tail. So a tap's spans
    for the N items of a channel lie in one unit-stride run of (N - 1)·pitch
    + span cells, at every k and stride. The wq - wo extra columns of each
    output row read the plane's own cells or zeros; the forward drops them
    and the backward gives them a zero gradient. A 1x1 kernel builds no
    plane, and its pitch is its span.
    """

    k: int
    stride: int
    ho: int
    wo: int
    wq: int  # columns per output row, wo plus the extra ones
    hq: int  # rows per plane
    span: int  # ho·wq cells of one tap for one item
    pitch: int  # cells from one plane, or one item's span in a tap row, to the next
    fills: tuple  # (phase, plane rows, plane columns, x rows, x columns) slices
    taps: tuple  # (phase, offset in its planes) of each tap, (i, j) order


def _phase_fills(n: int, stride: int, p: int) -> list:
    # Phase a's index r is padded index a + s·r, index a + s·r - p of x, so
    # x's indices i0, i0 + s, ... for i0 = (a - p) mod s start at r = lo.
    fills = []
    for a in range(stride):
        i0 = (a - p) % stride
        lo = (i0 + p - a) // stride
        fills.append((slice(lo, lo + len(range(i0, n, stride))), slice(i0, None, stride)))
    return fills


# A plane pitch is a whole number of these cells, 64 bytes of float32, so
# that the backward's per-item products write their column gradients into
# rows that start on one alignment. For 8 -> 8 channels at 32x16, batch 8,
# that product took 44 us at a pitch of 624 against 64 us at 614 (float32,
# one OpenBLAS thread, 2-vCPU x86 VM).
_PITCH_CELLS = 16


@functools.lru_cache(maxsize=256)
def _tap_layout(h: int, w: int, k: int, stride: int) -> _TapLayout:
    s, p = stride, k // 2
    ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
    wq, hq = wo + (k - 1) // s, ho + (k - 1) // s
    taps = tuple(
        ((i % s) * s + j % s, (i // s) * wq + j // s) for i in range(k) for j in range(k)
    )
    # A tail of (k - 1) // s cells keeps every tap's spans inside their planes.
    tail = (k - 1) // s
    pitch = ho * wo if k == 1 else -(-(hq * wq + tail) // _PITCH_CELLS) * _PITCH_CELLS
    fills = tuple(
        (a * s + b, rows, cols, ys, xs)
        for a, (rows, ys) in enumerate(_phase_fills(h, s, p))
        for b, (cols, xs) in enumerate(_phase_fills(w, s, p))
    )
    return _TapLayout(k, s, ho, wo, wq, hq, ho * wq, pitch, fills, taps)


def _plane_grid(flat: np.ndarray, c: int, n: int, t: _TapLayout) -> np.ndarray:
    """[s·s, C, N, hq, wq] view of the planes at the start of a flat buffer."""
    planes = flat[: t.stride**2 * c * n * t.pitch].reshape(-1, c, n, t.pitch)
    return planes[..., : t.hq * t.wq].reshape(-1, c, n, t.hq, t.wq)


def _phase_planes(x: np.ndarray, t: _TapLayout) -> np.ndarray:
    """Flat [s·s, C, N, pitch] zero-padded phase planes of x [N,C,H,W]."""
    n, c = x.shape[:2]
    planes = np.zeros(t.stride**2 * c * n * t.pitch, dtype=x.dtype)
    grid = _plane_grid(planes, c, n, t)
    xt = x.transpose(1, 0, 2, 3)
    for phase, rows, cols, ys, xs in t.fills:
        grid[phase, :, :, rows, cols] = xt[:, :, ys, xs]
    return planes


def _item_columns(rows: np.ndarray, n: int, t: _TapLayout) -> np.ndarray:
    """[N, C·k·k, ho·wq] view of tap rows [C·k·k, >= (N - 1)·pitch + span]: each item's matrix."""
    strides = (t.pitch * rows.itemsize, rows.strides[0], rows.itemsize)
    return np.ndarray((n, rows.shape[0], t.span), rows.dtype, rows, 0, strides)


def _im2col(x: np.ndarray, t: _TapLayout) -> np.ndarray:
    """[N, C·k·k, ho·wq] columns of x: row (c, i, j) is tap (i, j)'s span of c's planes.

    A 1x1 kernel's columns are x[:, :, ::s, ::s]: x itself at stride 1, one
    copy at stride 2, which skips every other row and column. Else x goes
    into its zero-padded phase planes, and the taps of one phase are one
    copy from a strided view of them into tap rows [C·k·k, (N - 1)·pitch +
    span], each row one unit-stride run over the N items of its channel.
    The columns are a strided view of those rows; at N = 1 they are the
    rows themselves.
    """
    n, c = x.shape[:2]
    s, k, pitch = t.stride, t.k, t.pitch
    if k == 1:
        return np.ascontiguousarray(x[:, :, ::s, ::s]).reshape(n, c, -1)
    planes = _phase_planes(x, t)
    run = (n - 1) * pitch + t.span
    taps = np.empty((c, k, k, run), dtype=x.dtype)
    se = x.itemsize
    for a in range(s):
        for b in range(s):
            # Taps (a + s·ii, b + s·jj) start at ii·wq + jj in phase (a, b).
            dest = taps[:, a::s, b::s]
            offset = (a * s + b) * c * n * pitch * se
            strides = (n * pitch * se, t.wq * se, se, se)
            dest[...] = np.ndarray(dest.shape, x.dtype, planes, offset, strides)
    return _item_columns(taps.reshape(c * k * k, run), n, t)


def _col2im(w2: np.ndarray, gq: np.ndarray, shape, t: _TapLayout) -> np.ndarray:
    """Fresh input gradient [N,C,H,W] for the gradient gq [N, O, ho·wq] of w2 ⋆ x.

    Each item's product w2ᵀ·gq is its column gradient. It goes into tap
    rows [C·k·k, N·pitch] whose gaps between spans are zeroed, so that each
    tap's rows add into the phase planes, in tap order, as one contiguous
    run of C·N·pitch cells; the gaps add zeros. The planes' cells then go
    back to their places in x, which they cover. A 1x1 kernel's columns are
    the gradient of x[:, :, ::s, ::s] itself, so at stride 2 the cells that
    no window reads get 0.
    """
    n, c = shape[:2]
    s, k, pitch = t.stride, t.k, t.pitch
    if k == 1:
        dcols = np.matmul(w2.T, gq)
        if s == 1:
            return dcols.reshape(shape)
        dx = np.zeros(shape, dtype=dcols.dtype)
        dx[:, :, ::s, ::s] = dcols.reshape(n, c, t.ho, t.wo)
        return dx
    dtype = np.result_type(w2, gq)
    rows = np.empty((c * k * k, n, pitch), dtype=dtype)
    rows[..., t.span :] = 0.0  # the gaps between spans
    rows = rows.reshape(c * k * k, n * pitch)
    np.matmul(w2.T, gq, out=_item_columns(rows, n, t))
    taps = rows.reshape(c, k * k, n * pitch)
    block = c * n * pitch  # one phase's planes
    # A zero tail past the last plane takes the last tap's overrun.
    flat = np.zeros(s * s * block + t.taps[-1][1], dtype=dtype)
    for tap, (phase, start) in enumerate(t.taps):
        lo = phase * block + start
        dest = flat[lo : lo + block].reshape(c, n * pitch)
        dest += taps[:, tap]
    grid = _plane_grid(flat, c, n, t)
    dx = np.empty(shape, dtype=dtype)
    dxt = dx.transpose(1, 0, 2, 3)
    for phase, rows, cols, ys, xs in t.fills:
        dxt[:, :, ys, xs] = grid[phase, :, :, rows, cols]
    return dx


# Bytes of im2col columns that conv2d's forward builds at once, in whole
# items. A 10-s clip's 7x7 stem columns take 1.38 MB, so eight clips' no-grad
# features run one clip per chunk: their traced peak fell from 20.63 to
# 7.59 MiB, and audio_infer's peak RSS from 71.9 to 53.9 MB. tiny_train's
# 48-example forward fell from 10.75 to 4.06 MiB traced (5.13 MiB at 2 MiB),
# and its peak RSS from 56.6 to 47.4 MB (48.3 MB at 2 MiB). Tiny training
# steps and clip requests kept their speed.
_COLUMN_BYTES = 1 << 20


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor,
    stride: int = 1,
    relu: bool = False,
    residual: Tensor | None = None,
) -> Tensor:
    """Conv unit relu?((w ⋆ x) + bias[O] + residual) for x[N,C,H,W], w[O,C,k,k].

    ``w ⋆ x`` is the 2-D cross-correlation of x zero-padded by k // 2, for an
    odd k and a stride s of 1 or 2, so the output and ``residual`` are
    [N, O, ceil(H / s), ceil(W / s)]. The matrix products run on the
    columns of ``_im2col``, extra columns included (``_TapLayout``), one
    chunk of whole items at a time: as many items as have columns within
    ``_COLUMN_BYTES``, and at least one. Each item is its own product, on
    a strided view of the columns, so with two or more output channels the
    output does not depend on how the batch is chunked. With one, numpy
    runs each product as a BLAS matrix-vector call, whose rounding follows
    the row stride of the tap rows, and so the number of items in a chunk.

    The bias, the residual sum and the ReLU run in place, in that order, on
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
    o, cw, k, kw = wn.shape
    if cw != c:
        raise ConfigurationError(f"conv2d: weight expects {cw} channels, input has {c}")
    if k != kw or k % 2 == 0:
        raise ConfigurationError(f"conv2d: kernel {k}x{kw} is not odd and square")
    if not is_int(stride) or stride not in (1, 2):
        raise ConfigurationError(f"conv2d: stride must be 1 or 2, got {stride!r}")
    if 0 in xn.shape:
        raise ConfigurationError(f"conv2d: input {xn.shape} has an empty axis")
    if bias.data.shape != (o,):
        raise ConfigurationError(f"conv2d: bias shape {bias.data.shape} != ({o},)")
    layout = _tap_layout(h, wd, k, stride)
    ho, wo, wq = layout.ho, layout.wo, layout.wq
    if residual is not None and residual.data.shape != (n, o, ho, wo):
        raise ConfigurationError(
            f"conv2d: residual shape {residual.data.shape} != {(n, o, ho, wo)}"
        )
    w2 = wn.reshape(o, -1)
    # m items' tap rows hold (m - 1)·pitch + span cells each.
    cells = _COLUMN_BYTES // (c * k * k * xn.itemsize)
    step = max(1, (cells - layout.span) // layout.pitch + 1)
    # One chunk's product, its extra columns dropped, is the output: made
    # after the columns and the product, or the product itself when there are
    # no extra columns. More chunks write theirs into one output made first.
    y = None if n <= step else np.empty((n, o, ho, wo), np.result_type(xn, wn))
    for lo in range(0, n, step):
        yq = np.matmul(w2, _im2col(xn[lo : lo + step], layout)).reshape(-1, o, ho, wq)[..., :wo]
        if y is None:
            y = np.ascontiguousarray(yq)
        else:
            y[lo : lo + step] = yq
        del yq  # freed before the next chunk's columns are made
    # Fresh [N,O,ho*wo] without the extra columns: the in-place steps below own it.
    y = y.reshape(n, o, ho * wo)
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
            # g2 is the masked array made here, or a view of this node's own
            # gradient, which it drops after this closure.
            _accumulate(residual, g2.reshape(n, o, ho, wo), fresh=True)
        if wq > wo:  # the extra columns get a zero gradient
            gq = np.zeros((n, o, ho, wq), dtype=g2.dtype)
            gq[..., :wo] = g2.reshape(n, o, ho, wo)
            gq = gq.reshape(n, o, ho * wq)
        else:
            gq = g2
        if w.requires_grad:
            # The whole batch's columns: building them per chunk, with the
            # weight gradient summed in item order, left tiny_train's peak RSS
            # at 47.0-47.2 MB against 47.3-47.4 MB with the forward chunked
            # alone, inside the ~1 MB that heap layout moves it.
            cols = _im2col(x.data, layout)
            gw = np.matmul(gq, cols.transpose(0, 2, 1))
            # One item's product is the whole gradient: a sum over it would only copy it.
            gw = gw[0] if n == 1 else gw.sum(axis=0)
            del cols  # freed before the input gradient's buffers are made
            _accumulate(w, gw.reshape(wn.shape), fresh=True)
        if bias.requires_grad:
            _accumulate(bias, g2.sum(axis=(0, 2)), fresh=True)
        if x.requires_grad:
            _accumulate(x, _col2im(w2, gq, xn.shape, layout), fresh=True)

    parents = (x, w, bias) + ((residual,) if residual is not None else ())
    return _record(out, parents, bwd)


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


def bilinear_upsample(x: Tensor, h2: int, w2: int) -> Tensor:
    """Resize x[N,C,H,W] to [N,C,h2,w2] with bilinear interpolation.

    Bilinear resizing is a fixed linear map: each [H,W] plane X becomes
    R_y · X · R_xᵀ, where R_y[h2,H] and R_x[w2,W] interpolate one axis each
    with half-pixel centers, clamped at the borders. The output gradient G
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
        _accumulate(x, ry.T @ g @ rx, fresh=True)

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
        _accumulate(x, dx, fresh=True)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# loss and reductions
# ---------------------------------------------------------------------------


def total_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _record(out, (x,), bwd)


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
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        raise DataError(f"softmax_cross_entropy: labels must be integers, got dtype {y.dtype}")
    y = y.astype(np.int64)
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
        _accumulate(logits, dl * (float(g) / n), fresh=True)

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# parameter registry and gradient checking
# ---------------------------------------------------------------------------


class ParamRegistry:
    """Ordered name -> trainable Tensor map; iteration is insertion order.

    ``register`` takes an array and wraps it in a new trainable Tensor of the
    registry's ``dtype``, float32 or float64. Its data is stored
    C-contiguous, so that ``reshape(-1)`` is a view that an in-place update
    (``SGD.step``) writes through.
    """

    def __init__(self, dtype):
        if dtype not in (np.float32, np.float64):
            raise ConfigurationError(
                f"ParamRegistry: dtype must be float32 or float64, got {dtype!r}"
            )
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Tensor] = {}

    def register(self, name: str, value) -> Tensor:
        if name in self._entries:
            raise ConfigurationError(f"duplicate parameter name: {name}")
        param = Tensor(np.asarray(value, dtype=self.dtype, order="C"), requires_grad=True)
        self._entries[name] = param
        return param

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def zero_grad(self) -> None:
        """Drop every gradient, for a backward that no optimizer step will follow.

        ``SGD.step`` drops the gradients it applies, so a training loop needs
        no ``zero_grad``; a gradient check that runs a backward on its own does.
        """
        for t in self._entries.values():
            t.grad = None

    def num_scalars(self) -> int:
        return sum(t.data.size for t in self._entries.values())


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and central-difference gradients."""

    per_param: dict

    @property
    def max_relative_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

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
    per_param = {}
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
            per_param[name] = worst
    return GradCheckReport(per_param)
