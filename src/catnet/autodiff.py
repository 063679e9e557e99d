"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every operation executed inside its ``with`` block.
Calling :func:`backward` on a scalar result replays the tape in reverse and
accumulates gradients into every tensor with ``requires_grad=True``.  Outside
an active tape, operations compute values only, which is how evaluation-mode
forward passes run.

Ops work on whole batches: elementwise ops broadcast like numpy, and the
contraction, softmax and weighted-sum ops take any leading batch axes.

Each primitive op goes through :func:`record`, which checks its result with
:func:`check_finite` (the error names the op and the shapes of its inputs)
and puts it on the active tape with a backward function that hands each input
its gradient through :func:`accumulate`.  The primitives, each with its own
backward, are ``add``, ``mul``, ``tanh``, ``sigmoid`` (values by
:func:`logistic`), ``linear``, ``einsum``, ``concat``, ``reshape``,
``sum_over``, ``take_row``, ``stable_softmax``, ``weighted_row_sum`` and
``binary_cross_entropy``.  ``linear`` adds its bias itself; ``take_row``
reads index -1 as a row of zeros (padding) that gets no gradient.  The other
ops are built from them and have no gradient rule of their own: ``scale``,
``affine`` and ``sub`` from ``mul`` and ``add`` with constants, ``matmul`` from
``einsum``, ``stack`` from ``reshape`` and ``concat``, ``mean`` from
``sum_over`` and ``scale``.  An op written elsewhere (the whole recurrent cell
in :mod:`catnet.backbone`) uses the same helpers.  Nothing in the package calls
``sub``, ``matmul``, ``stack`` or ``mean``; they stay only because the
benchmark's op list (``OPS`` in ``bench/spans.py``) counts them by name, and
they go together with that list.

Row-wise products run on BLAS through :func:`row_product`, which multiplies
blocks of exactly ``ROW_BLOCK`` zero-padded rows, so a row's bits depend
neither on its neighbours nor on its position (a plain ``x @ w`` sends a lone
row to another kernel).  Given weights with a leading gate axis, it runs one
``np.matmul`` whose every block is the same product a single gate would run;
the recurrent cell applies its input and state maps so.  ``linear`` takes its
values and input gradient from it, and its weight gradient from
:func:`outer_sum`, which drops zero-gradient rows first (a BLAS sum over rows
groups its terms by position, so padding rows would move the grouping) and
multiplies the kept rows as ``row_product`` blocks as well: OpenBLAS keeps
blocks of this size on the calling thread, where one large product would wake
worker threads.  The batched attention contractions stay on ``np.einsum``
without path optimisation (one dot product in index order per output entry),
because their padding grows the query and key axes of each product, and a BLAS
call of another shape may take another kernel.  Sums over an axis that padding
fills with zeros add their terms one after another in index order
(:func:`sum_over`, :func:`stable_softmax`, :func:`weighted_row_sum`), so
padding never changes a result bit; a caller that needs a sum independent of
the order of its terms puts them in a fixed order first, as cross-event
attention does with each visit's tokens.

An op result's ``data`` is never written after creation.  :func:`backward`
fills ``grad`` buffers, and optimizers and
:meth:`~catnet.network.CatnetModel.load_state_arrays` write parameters'
``data`` in place.  A tape and the tensors recorded on it belong to a single
thread; independent tapes on different threads do not interact.
"""

from __future__ import annotations

import threading

import numpy as np

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        self._outer = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = self._outer
        return False

    def _record(self, out, backward_fn):
        out._tape = self
        out._index = len(self._nodes)
        self._nodes.append((out, backward_fn))


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_index")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FloatingPointError("tensor created with non-finite values")
        self._set(arr, requires_grad)

    def _set(self, arr, requires_grad):
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None
        self._index = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data):
    """Constant tensor; never receives a gradient."""
    return Tensor(data, requires_grad=False)


def parameter(data):
    """Learnable tensor; :func:`backward` fills its ``grad``."""
    return Tensor(data, requires_grad=True)


def check_finite(op, data, inputs):
    """Raise ``FloatingPointError`` naming ``op`` and its input shapes if ``data`` is not finite."""
    if not np.isfinite(data).all():
        shapes = ", ".join(str(t.data.shape) for t in inputs)
        raise FloatingPointError(f"{op} produced non-finite values from inputs of shape {shapes}")


def record(op, data, inputs, backward_fn):
    """Wrap an op result after its one finiteness check; record it when a tape is active.

    It is recorded, and requires a gradient, only if some input requires one;
    ``backward_fn(g)`` hands the inputs their gradients with :func:`accumulate`.
    """
    data = np.asarray(data, dtype=np.float64)
    check_finite(op, data, inputs)
    needs = recording(inputs)
    out = Tensor.__new__(Tensor)
    out._set(data, needs)
    if needs:
        _active_tape()._record(out, backward_fn)
    return out


def recording(inputs):
    """Whether an op on ``inputs`` is recorded: a tape is active and some input needs a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def accumulate(t, delta):
    """Add ``delta`` (shaped like ``t``) to ``t.grad`` if ``t`` requires a gradient."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)   # t's own layout, so later contractions sum alike
        t.grad[...] = delta
    else:
        t.grad += delta


def backward(loss):
    """Populate ``grad`` on every ``requires_grad`` tensor below ``loss``.

    ``loss`` must be a scalar recorded on an active-or-finished tape.  The
    tape is replayed once and then released: its records and the tensors
    they hold form reference cycles, which would otherwise keep every
    intermediate array alive until the cyclic garbage collector next runs.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = loss._tape
    if tape is None:
        raise ValueError("loss was not recorded on a tape; no parameters reachable")
    if tape._nodes is None:
        raise ValueError("the loss's tape was already replayed by an earlier backward")
    loss.grad = np.ones_like(loss.data)
    nodes, tape._nodes = tape._nodes, None
    for out, backward_fn in reversed(nodes[: loss._index + 1]):
        if out.grad is None:
            continue
        backward_fn(out.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def _broadcast(op, a, b):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}") from None


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` over the axes that broadcasting expanded.

    Leading axes are summed row after row, so rows of zeros (padding) leave
    the gradient bitwise unchanged.
    """
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = np.cumsum(g.reshape((-1,) + g.shape[lead:]), axis=0)[-1]
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def add(a, b):
    _broadcast("add", a, b)

    def bwd(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g, b.data.shape))

    return record("add", a.data + b.data, (a, b), bwd)


def mul(a, b):
    _broadcast("mul", a, b)

    def bwd(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return record("mul", a.data * b.data, (a, b), bwd)


def scale(t, c):
    """t * c for a plain float c."""
    return mul(t, tensor(c))


def affine(t, scale_c, shift_c):
    """scale_c * t + shift_c, both plain floats (e.g. 1 - x)."""
    return add(scale(t, scale_c), tensor(shift_c))


def sub(a, b):
    return add(a, scale(b, -1.0))


def tanh(t):
    out_data = np.tanh(t.data)

    def bwd(g):
        accumulate(t, g * (1.0 - out_data * out_data))

    return record("tanh", out_data, (t,), bwd)


def logistic(x):
    """``1 / (1 + exp(-x))`` of an array, without overflow for large ``|x|``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t):
    out_data = logistic(t.data)

    def bwd(g):
        accumulate(t, g * out_data * (1.0 - out_data))

    return record("sigmoid", out_data, (t,), bwd)


def einsum(spec, a, b):
    """Two-operand ``np.einsum`` with explicit output, e.g. ``"vqe,vke->vqk"``.

    Every index of one operand must also appear in the other operand or in
    the output, so that each gradient is itself a two-operand contraction.
    Gradients are contracted the same way as values, so zero-gradient rows
    (padding) leave them bitwise unchanged.
    """
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    if set(sa) - set(sb + out) or set(sb) - set(sa + out):
        raise ValueError(f"einsum {spec!r}: every index must appear in two of the three terms")
    try:
        out_data = np.einsum(spec, a.data, b.data)
    except ValueError:
        raise ValueError(f"einsum {spec!r}: shape mismatch {a.data.shape} vs {b.data.shape}") from None

    def bwd(g):
        if a.requires_grad:
            accumulate(a, np.einsum(f"{out},{sb}->{sa}", g, b.data))
        if b.requires_grad:
            accumulate(b, np.einsum(f"{sa},{out}->{sb}", a.data, g))

    return record("einsum", out_data, (a, b), bwd)


_MATMUL_SPECS = {(2, 2): "ij,jk->ik", (2, 1): "ij,j->i", (1, 2): "i,ij->j", (1, 1): "i,i->"}


def matmul(a, b):
    """Matrix product with numpy semantics for 1-D and 2-D operands."""
    spec = _MATMUL_SPECS.get((a.data.ndim, b.data.ndim))
    if spec is None:
        raise ValueError(f"matmul: operands must be 1-D or 2-D, "
                         f"got {a.data.shape} and {b.data.shape}")
    return einsum(spec, a, b)


ROW_BLOCK = 8


def row_product(x, w):
    """``x @ w`` for ``x`` (..., I), ``w`` (I, O), as a stack of ``ROW_BLOCK``-row products.

    ``w`` may carry a leading gate axis, (G, I, O), with ``x`` (n, I) shared by
    every gate or (G, n, I): the G products then run in one ``np.matmul`` of
    the same ``ROW_BLOCK``-row blocks and come back as (G, n, O).
    """
    if w.ndim == 2:
        return row_product(x.reshape(-1, x.shape[-1]), w[None])[0].reshape(x.shape[:-1] + w.shape[1:])
    n = x.shape[-2]
    blocks = np.zeros(x.shape[:-2] + (-(-n // ROW_BLOCK), ROW_BLOCK, x.shape[-1]))
    blocks.reshape(x.shape[:-2] + (-1, x.shape[-1]))[..., :n, :] = x
    return np.matmul(blocks, w[:, None]).reshape(len(w), -1, w.shape[-1])[:, :n]


def outer_sum(g, x):
    """``g.T @ x`` for ``g`` (n, O), ``x`` (n, I), skipping the rows where ``g`` is all zero.

    It runs as :func:`row_product` blocks of ``g.T``, which OpenBLAS keeps on the
    calling thread; one large product would wake worker threads that spin on.
    """
    keep = np.flatnonzero(g.any(axis=1))
    if keep.size == 0:
        return np.zeros((g.shape[1], x.shape[1]))
    return row_product(g[keep].T, x[keep])


def linear(x, w, b):
    """``x @ w.T + b`` over any leading axes of ``x``; ``w`` is (out, in), ``b`` (out,)."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[1:] or b.shape != w.shape[:1]:
        raise ValueError(f"linear: shape mismatch {x.shape} vs {w.shape}, bias {b.shape}")

    def bwd(g):
        if b.requires_grad:
            accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            accumulate(x, row_product(g, w.data))
        if w.requires_grad:
            accumulate(w, outer_sum(g.reshape(-1, g.shape[-1]), x.data.reshape(-1, x.shape[-1])))

    return record("linear", row_product(x.data, w.data.T) + b.data, (x, w, b), bwd)


def concat(parts, axis=-1):
    """Concatenate tensors along one axis (the last by default)."""
    parts = list(parts)
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = [p.data.shape for p in parts]
        raise ValueError(f"concat: part shapes {shapes} differ off axis {axis}") from None
    axis %= out_data.ndim
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            accumulate(p, g[(slice(None),) * axis + (slice(lo, hi),)])

    return record("concat", out_data, parts, bwd)


def stack(rows, axis=0):
    """Stack equal-shape tensors along a new axis: a :func:`concat` of reshaped rows."""
    # reshaped last row first, so that backward hands the rows their gradients in row order
    parts = [reshape(r, np.expand_dims(r.data, axis).shape) for r in reversed(list(rows))]
    return concat(parts[::-1], axis=axis)


def reshape(t, shape):
    """Same entries, new shape."""
    old = t.data.shape

    def bwd(g):
        accumulate(t, g.reshape(old))

    return record("reshape", t.data.reshape(shape), (t,), bwd)


def sum_over(t, axis=None):
    """Sum over all entries (axis=None) or along one axis.

    Along an axis the entries are added one after another in index order, so
    trailing zeros (padding) leave the sum bitwise unchanged.
    """
    shape = t.data.shape
    if axis is None:
        out_data = np.sum(t.data)
    else:
        out_data = np.take(np.cumsum(t.data, axis=axis), -1, axis=axis)

    def bwd(g):
        if axis is None:
            accumulate(t, np.broadcast_to(g, shape))
        else:
            accumulate(t, np.broadcast_to(np.expand_dims(g, axis), shape))

    return record("sum_over", out_data, (t,), bwd)


def mean(t):
    return scale(sum_over(t), 1.0 / t.data.size)


def take_row(table, index):
    """Rows of ``table`` along its first axis, by an int or an int array.

    The result has shape ``index.shape + table.shape[1:]``; index -1 reads a
    row of zeros (padding), which gets no gradient.  Backward sums the uses of
    each row from zero in use order, like a scatter-add into zeros; onto a
    gradient the table already holds, the uses are summed first.
    """
    if table.data.ndim < 2:
        raise ValueError(f"take_row: expected a table of rows, got shape {table.data.shape}")
    index = np.asarray(index, dtype=np.intp)
    n = len(table.data)
    if np.any((index < -1) | (index >= n)):
        raise IndexError(f"take_row: index outside [-1, {n}) for a table of shape {table.shape}")
    padded = np.concatenate([table.data, np.zeros((1,) + table.shape[1:])])   # -1 reads row n

    def bwd(g):
        if table.requires_grad:
            width = table.data[0].size
            cells = (index % (n + 1))[..., None] * width + np.arange(width)
            sums = np.bincount(cells.ravel(), weights=g.ravel(), minlength=(n + 1) * width)
            accumulate(table, sums[:n * width].reshape(table.data.shape))

    return record("take_row", np.take(padded, index, axis=0), (table,), bwd)


# ---------------------------------------------------------------------------
# attention and loss primitives
# ---------------------------------------------------------------------------


def stable_softmax(logits, mask=None):
    """Masked softmax over the last axis, computed with max-subtraction.

    ``mask`` broadcasts against ``logits``.  Masked entries come out exactly 0;
    unmasked entries are positive and sum to 1.  The denominator adds the
    exponentials one after another in index order, so masked entries (exact
    zeros) leave it bitwise unchanged wherever they sit.  A row with an
    all-false mask is an error ("empty attention support").
    """
    x = logits.data
    if mask is None:
        mask = np.ones(x.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        try:
            mask = np.broadcast_to(mask, x.shape)
        except ValueError:
            raise ValueError(
                f"stable_softmax: mask shape {mask.shape} vs logits {x.shape}") from None
    if not mask.any(axis=-1).all():
        raise ValueError(f"stable_softmax: empty attention support in logits of shape {x.shape}")
    top = np.max(np.where(mask, x, -np.inf), axis=-1, keepdims=True)
    e = np.exp(np.where(mask, x - top, -np.inf))
    probs = e / np.cumsum(e, axis=-1)[..., -1:]

    def bwd(g):
        inner = np.cumsum(g * probs, axis=-1)[..., -1:]
        accumulate(logits, probs * (g - inner))

    return record("stable_softmax", probs, (logits,), bwd)


def weighted_row_sum(weights, rows):
    """``weights @ rows`` for (..., Q, K) x (..., K, N), adding the K rows in row order.

    Each output entry starts at zero and adds its K products one row after
    another, so zero-weight padding rows leave it bitwise unchanged.
    """
    w, r = weights.data, rows.data
    if w.ndim < 2 or w.shape[-1] != r.shape[-2] or w.shape[:-2] != r.shape[:-2]:
        raise ValueError(f"weighted_row_sum: shape mismatch {w.shape} vs {r.shape}")
    out = np.zeros(w.shape[:-1] + r.shape[-1:])
    for k in range(r.shape[-2]):
        out += w[..., :, k, None] * r[..., None, k, :]

    def bwd(g):
        if weights.requires_grad:
            accumulate(weights, np.einsum("...qn,...kn->...qk", g, r))
        if rows.requires_grad:
            accumulate(rows, np.einsum("...qk,...qn->...kn", w, g))

    return record("weighted_row_sum", out, (weights, rows), bwd)


BCE_EPS = 1e-7


def binary_cross_entropy(pred, target):
    """Mean binary cross-entropy of probabilities against 0/1 targets.

    ``target`` has the shape of ``pred``; the mean runs over every entry, so a
    (B, n) batch gives the mean of its B per-row losses.  Predictions are
    clamped to [BCE_EPS, 1 - BCE_EPS]; clamped components get zero gradient.
    """
    y = np.asarray(target, dtype=np.float64)
    if y.shape != pred.data.shape:
        raise ValueError(f"binary_cross_entropy: shape mismatch {pred.data.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary_cross_entropy: targets must be 0 or 1")
    p = np.clip(pred.data, BCE_EPS, 1.0 - BCE_EPS)
    loss = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))

    def bwd(g):
        inside = (pred.data > BCE_EPS) & (pred.data < 1.0 - BCE_EPS)
        d = np.where(inside, (-y / p + (1.0 - y) / (1.0 - p)) / y.size, 0.0)
        accumulate(pred, float(g) * d)

    return record("binary_cross_entropy", loss, (pred,), bwd)
