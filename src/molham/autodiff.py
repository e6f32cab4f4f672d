"""Dense float64 tensors with reverse-mode differentiation.

A Tape is an append-only record of primitive operations; append order is a
valid topological order, so the backward pass is a single reverse scan that
visits each node exactly once. Tensors created without a tape are constants
and are never recorded; an expression built purely from constants produces a
constant, so backward over a record with no differentiable leaves is a no-op.

Gradient accumulation follows the fixed reverse-scan order, which makes
training runs bit-reproducible for a given seed.

Rank-3 rules. A training step runs a whole batch as one stacked block, so
the structured primitives take a leading batch axis:
- `matmul` multiplies rank-2 @ rank-2, rank-3 @ rank-3 (one product per
  batch entry, batch sizes equal) and rank-3 @ rank-2 (a weight shared by
  every batch entry). The shared-weight form runs as one GEMM on the
  flattened rows, forward and backward, so a weight gradient is one GEMM.
  Rank-2 @ rank-3 and rank-1 operands raise ShapeMismatch.
- `transpose` swaps the last two axes of a rank-2 or rank-3 tensor.
- `plane_rotation_chain` maps (B, d-1) angles to B rotations (B, d, d).
- `segment_sum` adds rows into segments by an integer index; its backward
  is a gather. `gather_rows` is its mirror: a gather whose backward adds
  rows into segments.
- `pair_messages` forms message-passing sums over ordered atom pairs in one
  node, reading one filter row per unordered pair; its backward scatters
  the row gradient over the senders and adds each filter row's two
  directions.
- `pair_net` runs the head's pair network over index pairs of atom rows in
  one node; its backward adds the pair gradients onto the rows by a stable
  sort and `np.add.reduceat`.
- Elementwise ops broadcast as numpy does, and reductions take any axis.

Memory rules. A tape and everything it recorded are freed by reference
counting as soon as the last Tensor on it goes away, whether or not backward
ran:
- a node's record holds its parent ids and its pull functions, and the pulls
  close over arrays (operand data, outputs, shapes), never over a Tensor or
  a Tape, so the record forms no reference cycle;
- backward releases each node's record once its pulls have run, and drops
  each non-leaf gradient once it has been passed to the parents, so only
  leaf gradients are kept: `Tape.grad` and `Tensor.grad` return None for
  every intermediate node, the output included;
- a tape can be backpropagated once; a second backward raises TapeConsumed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch, TapeConsumed

Array = np.ndarray
Pull = Callable[[Array], Array]


def _np(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tape:
    """Append-only computation record for one backward pass."""

    __slots__ = ("_records", "_grads")

    def __init__(self):
        # per node: (parent ids, one pull per parent); a leaf has no parents;
        # None once backward has released the node
        self._records: list[tuple[tuple[int, ...], tuple[Pull, ...]] | None] = []
        self._grads: list[Array | None] = []

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, parents: tuple[int, ...], pulls: tuple[Pull, ...]) -> int:
        self._records.append((parents, pulls))
        return len(self._records) - 1

    def leaf(self, data) -> "Tensor":
        """Register a differentiable leaf (a trainable parameter)."""
        arr = _np(data)
        node = self._record((), ())
        return Tensor(arr, self, node)

    def backward(self, out: "Tensor") -> None:
        """Accumulate gradients of a scalar output into every leaf.

        Each non-leaf node is released as the reverse scan passes it: its
        record and its gradient are dropped, so only leaf gradients remain.
        """
        if out.tape is not self or out.node is None:
            raise ShapeMismatch("output tensor does not belong to this tape")
        if out.data.size != 1:
            raise ShapeMismatch(f"backward needs a scalar output, got shape {out.data.shape}")
        if self._grads:
            raise TapeConsumed("backward already ran on this tape; record a new one")
        records = self._records
        grads: list[Array | None] = [None] * len(records)
        self._grads = grads
        grads[out.node] = np.ones_like(out.data)
        for nid in range(len(records) - 1, -1, -1):
            parents, pulls = records[nid]
            if not parents:
                continue  # a leaf keeps its gradient
            records[nid] = None
            g, grads[nid] = grads[nid], None
            if g is None:
                continue
            for pid, pull in zip(parents, pulls):
                pg = pull(g)
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg

    def grad(self, t: "Tensor") -> Array | None:
        """The gradient of a leaf after backward; None for any other node."""
        if t.tape is not self or t.node is None:
            return None
        if not self._grads:
            return None
        return self._grads[t.node]


class Tensor:
    """float64 array, optionally attached to a Tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Tape | None = None, node: int | None = None):
        self.data = _np(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def grad(self) -> Array | None:
        """See `Tape.grad`: set for leaves only, after backward."""
        return None if self.tape is None else self.tape.grad(self)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = "const" if self.tape is None else f"node={self.node}"
        return f"Tensor(shape={self.data.shape}, {tag})"

    # operator sugar; every operator lowers to a recorded primitive
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(other, self)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(other, self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(other, self)
    def __truediv__(self, other): return div(self, other)
    def __rtruediv__(self, other): return div(other, self)
    def __matmul__(self, other): return matmul(self, other)
    def __neg__(self): return mul(self, -1.0)

    @property
    def T(self): return transpose(self)


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(_np(x))


def _tape_of(*ts: Tensor) -> Tape | None:
    tape = None
    for t in ts:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ShapeMismatch("operands recorded on different tapes")
            tape = t.tape
    return tape


def _make(data: Array, pulls: Sequence[tuple[Tensor, Pull]]) -> Tensor:
    """Create the result tensor, recording only tape-attached parents.

    Each pull maps the output gradient to one operand's gradient. It must
    close over arrays only: a captured Tensor would keep its tape alive
    through the tape's own record.
    """
    tape = _tape_of(*[t for t, _ in pulls])
    if tape is None:
        return Tensor(data)
    live = [(t.node, fn) for t, fn in pulls if t.tape is not None]
    node = tape._record(tuple(nid for nid, _ in live), tuple(fn for _, fn in live))
    return Tensor(data, tape, node)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    g = g.reshape(shape)  # (np.ascontiguousarray would turn a 0-d array into shape (1,))
    return g if g.flags.c_contiguous else np.ascontiguousarray(g)


# --- arithmetic primitives ---

def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data + b.data, [(a, lambda g: _unbroadcast(g, sa)),
                                   (b, lambda g: _unbroadcast(g, sb))])


def sub(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data - b.data, [(a, lambda g: _unbroadcast(g, sa)),
                                   (b, lambda g: _unbroadcast(-g, sb))])


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    x, y = a.data, b.data
    return _make(x * y, [(a, lambda g: _unbroadcast(g * y, x.shape)),
                         (b, lambda g: _unbroadcast(g * x, y.shape))])


def div(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    x, y = a.data, b.data
    return _make(x / y, [(a, lambda g: _unbroadcast(g / y, x.shape)),
                         (b, lambda g: _unbroadcast(-g * x / (y * y), y.shape))])


def matmul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    if (a.ndim, b.ndim) not in ((2, 2), (3, 3), (3, 2)):
        raise ShapeMismatch(f"matmul expects rank-2 or rank-3 @ rank-2, or rank-3 @ rank-3 "
                            f"operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2] or (b.ndim == 3 and a.data.shape[0] != b.data.shape[0]):
        raise ShapeMismatch(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data
    if x.ndim == 3 and y.ndim == 2:  # shared weight: one GEMM on the flattened rows
        rows = x.reshape(-1, x.shape[-1])
        out = (rows @ y).reshape(x.shape[:-1] + (y.shape[1],))
        return _make(out, [(a, lambda g: (g.reshape(-1, y.shape[1]) @ y.T).reshape(x.shape)),
                           (b, lambda g: rows.T @ g.reshape(-1, y.shape[1]))])
    return _make(x @ y, [(a, lambda g: g @ np.swapaxes(y, -1, -2)),
                         (b, lambda g: np.swapaxes(x, -1, -2) @ g)])


def transpose(a) -> Tensor:
    """Swap the last two axes of a rank-2 or rank-3 tensor."""
    a = constant(a)
    if a.ndim not in (2, 3):
        raise ShapeMismatch(f"transpose expects rank-2 or rank-3, got {a.data.shape}")
    return _make(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)),
                 [(a, lambda g: np.ascontiguousarray(np.swapaxes(g, -1, -2)))])


def reshape(a, shape) -> Tensor:
    a = constant(a)
    sa = a.data.shape
    return _make(np.ascontiguousarray(a.data.reshape(shape)), [(a, lambda g: g.reshape(sa))])


# --- elementwise primitives ---

def _unary(a: Tensor, out: Array, dfn: Callable[[], Array]) -> Tensor:
    """Elementwise op; `dfn` computes the derivative lazily, from arrays only."""
    return _make(out, [(a, lambda g: g * dfn())])


def sigmoid(a) -> Tensor:
    a = constant(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, out, lambda: out * (1.0 - out))


def softplus(a) -> Tensor:
    """log(1 + exp(a)) as logaddexp(0, a): finite for any finite input."""
    a = constant(a)
    x = a.data
    out = np.logaddexp(0.0, x)
    return _unary(a, out, lambda: np.exp(x - out))  # sigmoid(a)


def tanh(a) -> Tensor:
    a = constant(a)
    out = np.tanh(a.data)
    return _unary(a, out, lambda: 1.0 - out * out)


def sin(a) -> Tensor:
    a = constant(a)
    x = a.data
    return _unary(a, np.sin(x), lambda: np.cos(x))


def exp(a) -> Tensor:
    a = constant(a)
    out = np.exp(a.data)
    return _unary(a, out, lambda: out)


def sqrt(a) -> Tensor:
    a = constant(a)
    out = np.sqrt(a.data)
    return _unary(a, out, lambda: 0.5 / out)


def square(a) -> Tensor:
    a = constant(a)
    x = a.data
    return _unary(a, x * x, lambda: 2.0 * x)


def abs_(a) -> Tensor:
    a = constant(a)
    x = a.data
    return _unary(a, np.abs(x), lambda: np.sign(x))


# --- reductions ---

def sum_(a, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    sa = a.data.shape

    def pull(g: Array) -> Array:
        if axis is None:
            return np.broadcast_to(g, sa).copy()
        ge = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(ge, sa).copy()

    return _make(_np(out), [(a, pull)])


def mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# --- structured primitives ---

def row_softmax(a) -> Tensor:
    """Softmax along the last axis; rows sum to 1."""
    a = constant(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def pull(g: Array) -> Array:
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return _make(out, [(a, pull)])


def smooth_l1(a, b) -> Tensor:
    """Elementwise smooth L1 of (a - b): quadratic below 1, linear above."""
    a, b = constant(a), constant(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"smooth_l1 expects equal shapes, got {a.data.shape}, {b.data.shape}")
    d = a.data - b.data
    ad = np.abs(d)
    out = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
    slope = np.clip(d, -1.0, 1.0)
    return _make(out, [(a, lambda g: g * slope), (b, lambda g: -g * slope)])


def _scatter_rows(idx: Array, rows: Array, n: int) -> Array:
    """out[k] = sum of rows[r] over every r with idx[r] == k, for k < n.

    Accumulates in row order, as np.add.at does, through one flat bincount.
    """
    tail = rows.shape[idx.ndim:]
    width = int(np.prod(tail))
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=rows.reshape(-1), minlength=n * width)
    return out.reshape((n,) + tail)


def gather_rows(a, idx: Array) -> Tensor:
    """Select rows of a rank-2 tensor by a fixed integer index array.

    The output has shape idx.shape + (columns,), so an index of any rank
    works; repeated indices accumulate their gradients.
    """
    a = constant(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"gather_rows expects rank-2 input, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    n = a.data.shape[0]
    return _make(a.data[idx], [(a, lambda g: _scatter_rows(idx, g, n))])


def segment_sum(a, seg: Array, n: int) -> Tensor:
    """Sum the rows of `a` (axis 0, any trailing shape) into n segments.

    Row r goes to segment seg[r]; a segment no row names is zero. The
    backward pass is the gather g[seg].
    """
    a = constant(a)
    seg = np.asarray(seg, dtype=np.intp)
    if a.ndim == 0 or seg.shape != a.data.shape[:1]:
        raise ShapeMismatch(f"segment_sum needs one segment id per row, got {seg.shape} "
                            f"for {a.data.shape}")
    if seg.size and (seg.min() < 0 or seg.max() >= n):
        raise ShapeMismatch(f"segment ids must lie in [0, {n})")
    return _make(_scatter_rows(seg, a.data, n), [(a, lambda g: g[seg])])


def pair_messages(g, f, gate: Array, src: Array, dst: Array, pair: Array,
                  ends: Array) -> Tensor:
    """msg[i] = sum over ordered pairs p with dst[p] == i of
    (g[src[p]] * f[pair[p]]) * gate[p], one row per row of g.

    `f` holds one row per unordered pair, and `ends` (Q, 2) the two ordered
    pairs of each: every unordered pair has both directions. Only the two
    operands' data, `gate` and the indices are kept for the backward pass.
    """
    g, f = constant(g), constant(f)
    gate, src, dst, pair, ends = (np.asarray(gate, dtype=np.float64),
                                  *(np.asarray(a, dtype=np.intp) for a in (src, dst, pair, ends)))
    if (g.ndim != 2 or f.ndim != 2 or f.data.shape[1] != g.data.shape[1]
            or not src.shape == dst.shape == pair.shape == gate.shape[:1]
            or ends.shape != (f.data.shape[0], 2)):
        raise ShapeMismatch(f"pair_messages got rows {g.data.shape} and filters {f.data.shape} "
                            f"for {src.shape} pairs and {ends.shape} ends")
    x, w, n = g.data, f.data, g.data.shape[0]

    def gathered(a: Array, rows: Array, *factors: Array) -> Array:
        """a[rows] times each factor in turn, in one (P, d) buffer."""
        out = np.take(a, rows, axis=0)
        for b in factors:
            out *= b
        return out

    def pull_g(gm: Array) -> Array:
        return _scatter_rows(src, gathered(gm, dst, gate, np.take(w, pair, axis=0)), n)

    def pull_f(gm: Array) -> Array:
        t = gathered(gm, dst, gate, np.take(x, src, axis=0))
        return np.take(t, ends[:, 0], axis=0) + np.take(t, ends[:, 1], axis=0)

    out = gathered(x, src, np.take(w, pair, axis=0), gate)
    return _make(_scatter_rows(dst, out, n), [(g, pull_g), (f, pull_f)])


def _row_sums(idx: Array, rows: Array, n: int) -> Array:
    """out[k] = sum of rows[r] over every r with idx[r] == k, for k < n.

    Sums each index's rows in row order, by a stable sort of idx (skipped
    when idx is already sorted) and one np.add.reduceat.
    """
    out = np.zeros((n,) + rows.shape[1:])
    if not idx.size:
        return out
    if np.any(idx[1:] < idx[:-1]):
        order = np.argsort(idx, kind="stable")
        idx, rows = idx[order], np.take(rows, order, axis=0)
    starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    out[idx[starts]] = np.add.reduceat(rows, starts, axis=0)
    return out


def pair_net(rows, i: Array, j: Array, w_sum, w_gap, b1, w2, b2) -> Tensor:
    """tanh(A[i] + A[j] + |x[i] - x[j]| @ w_gap + b1) @ w2 + b2 with A = x @ w_sum,
    one output row per pair (i[p], j[p]) of the (n, d) rows x.

    (x[i] + x[j]) @ w_sum equals A[i] + A[j], so the sum term costs one
    (n, d) @ (d, h) product in place of a (P, d) one, and so do both of its
    backward products. A[i] + A[j] is one add, which commutes exactly, so
    swapping the two ends of every pair leaves the output unchanged bit for
    bit. The record keeps only |x[i] - x[j]|, its signs (int8) and the hidden
    activations. The pulls form dz = (g @ w2^T) * (1 - hidden^2) once per
    backward, and whichever pull runs first forms it, since a frozen operand
    has no pull. Each temporary is formed in place, so that no more than two
    (P, hidden) arrays live beside the record at once.
    """
    rows, w_sum, w_gap, b1, w2, b2 = (constant(t) for t in (rows, w_sum, w_gap, b1, w2, b2))
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    x, ws, wg, v2 = rows.data, w_sum.data, w_gap.data, w2.data
    if (x.ndim != 2 or i.ndim != 1 or i.shape != j.shape or ws.shape != wg.shape
            or ws.shape[0] != x.shape[1] or v2.ndim != 2 or v2.shape[0] != ws.shape[1]):
        raise ShapeMismatch(f"pair_net got rows {x.shape}, {i.shape} and {j.shape} pair ends and "
                            f"weights {ws.shape}, {wg.shape}, {v2.shape}")
    n, s1, s2 = x.shape[0], b1.data.shape, b2.data.shape
    gap = np.take(x, i, axis=0)
    gap -= np.take(x, j, axis=0)
    sign = np.sign(gap).astype(np.int8)
    np.abs(gap, out=gap)
    a = x @ ws
    hidden = np.take(a, i, axis=0)
    hidden += np.take(a, j, axis=0)
    hidden += gap @ wg
    hidden += b1.data
    np.tanh(hidden, out=hidden)
    memo: dict[str, Array] = {}

    def dz(g: Array) -> Array:
        if memo.get("g") is not g:
            memo.clear()
            slope = hidden * hidden
            np.subtract(1.0, slope, out=slope)
            z = g @ v2.T
            z *= slope
            memo["g"], memo["dz"] = g, z
        return memo["dz"]

    def da(g: Array) -> Array:  # gradient of A
        z = dz(g)
        if "da" not in memo:
            memo["da"] = _row_sums(i, z, n) + _row_sums(j, z, n)
        return memo["da"]

    def pull_rows(g: Array) -> Array:
        out = da(g) @ ws.T
        dd = dz(g) @ wg.T
        dd *= sign
        out += _row_sums(i, dd, n)
        out -= _row_sums(j, dd, n)
        return out

    return _make(hidden @ v2 + b2.data,
                 [(rows, pull_rows), (w_sum, lambda g: x.T @ da(g)),
                  (w_gap, lambda g: gap.T @ dz(g)), (b1, lambda g: _unbroadcast(dz(g), s1)),
                  (w2, lambda g: hidden.T @ g), (b2, lambda g: _unbroadcast(g, s2))])


def concat_rows(parts: Sequence["Tensor"]) -> Tensor:
    """Stack rank-2 tensors along axis 0 (widths must agree)."""
    parts = [constant(p) for p in parts]
    widths = {p.data.shape[1] for p in parts if p.ndim == 2}
    if len(widths) != 1 or any(p.ndim != 2 for p in parts):
        raise ShapeMismatch(f"concat_rows needs rank-2 parts of one width, got "
                            f"{[p.data.shape for p in parts]}")
    out = np.concatenate([p.data for p in parts], axis=0)
    bounds = np.cumsum([0] + [p.data.shape[0] for p in parts])

    pulls = []
    for k, p in enumerate(parts):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        pulls.append((p, lambda g, lo=lo, hi=hi: g[lo:hi]))
    return _make(out, pulls)


def plane_rotation_chain(angles) -> Tensor:
    """R_b = P_1 @ P_2 @ ... @ P_{d-1} per row b of (B, d-1) angles, P_l rotating
    plane (l-1, l) by theta_l; the result is (B, d, d), in closed form.

    With c'_0 = 1, c'_m = cos theta_m, c''_j = cos theta_{j+1}, c''_{d-1} = 1
    and T[m, j] = prod_{l=m+1..j} (-sin theta_l) (1 on the diagonal, 0 below),
    R[m, j] = c'_m T[m, j] c''_j on and above the diagonal, R[j+1, j] =
    sin theta_{j+1}, and R is 0 elsewhere. The backward divides by nothing, so
    it holds at zero angles: with Y = (dR * c' * c'') T^T, the T factors give
    dtheta_l = -cos theta_l sum_m T[m, l-1] Y[m, l]. Then c'_l adds -sin theta_l
    times the sum of row l of dR * T * c'', c''_{l-1} adds -sin theta_l times
    the sum of column l-1 of dR * T * c', and R[l, l-1] adds cos theta_l dR[l, l-1].
    """
    angles = constant(angles)
    if angles.ndim != 2:
        raise ShapeMismatch(f"plane_rotation_chain expects (B, d-1) angles, got {angles.data.shape}")
    theta = angles.data
    nb, d = theta.shape[0], theta.shape[1] + 1
    c, s, one, k = np.cos(theta), np.sin(theta), np.ones((nb, 1)), np.arange(d - 1)
    c_row, c_col = np.concatenate([one, c], axis=1), np.concatenate([c, one], axis=1)  # c', c''
    cc = c_row[:, :, None] * c_col[:, None, :]
    # 0.0 - s, not -s: zero angles then leave +0.0 above the diagonal, the identity's bytes
    factors = np.concatenate([one, 0.0 - s], axis=1)[:, None, :]
    t = np.triu(np.cumprod(np.where(np.tri(d, dtype=bool), 1.0, factors), axis=2))
    rot = t * cc
    rot[:, k + 1, k] = s

    def pull(g: Array) -> Array:
        gt, y = g * t, (g * cc) @ t.transpose(0, 2, 1)
        through_t = np.einsum("bml,bml->bl", t[:, :, :-1], y[:, :, 1:])
        through_cos = (gt @ c_col[:, :, None])[:, 1:, 0] + (c_row[:, None, :] @ gt)[:, 0, :-1]
        return c * (g[:, k + 1, k] - through_t) - s * through_cos

    return _make(rot, [(angles, pull)])


# --- verification ---

def grad_check(f: Callable[[Tensor], Tensor], x: Array, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `f` must map a tensor to a scalar tensor and be evaluable both on tape
    leaves and on constants. Relative error is measured against
    max(1, |central difference|) per coordinate.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    x = _np(x)
    tape = Tape()
    xt = tape.leaf(x)
    out = f(xt)
    if not np.isfinite(out.data).all():
        raise NonFiniteValue("function value is not finite")
    if out.tape is None:
        analytic = np.zeros_like(x)  # output never touched the leaf
    else:
        tape.backward(out)
        g = tape.grad(xt)
        analytic = np.zeros_like(x) if g is None else g

    flat = x.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sgn in (1.0, -1.0):
            pert = flat.copy()
            pert[i] += sgn * eps
            val = f(constant(pert.reshape(x.shape))).data
            if not np.isfinite(val).all():
                raise NonFiniteValue(f"perturbed function value is not finite at coordinate {i}")
            numeric[i] += sgn * float(val.reshape(-1)[0])
    numeric /= 2.0 * eps
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if x.size else 0.0
