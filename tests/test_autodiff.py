"""Reverse-mode engine: forward values, gradients, and record semantics."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

import molham.autodiff as ad
from molham.autodiff import Tape, Tensor, constant, grad_check
from molham.errors import NonFiniteValue, ShapeMismatch, TapeConsumed

RNG = np.random.default_rng(20240617)


def test_constants_are_not_recorded():
    a = constant(np.ones((2, 2)))
    b = constant(np.ones((2, 2)))
    out = ad.sum_(a @ b + a)
    assert out.tape is None and out.node is None


def test_backward_without_leaves_is_noop():
    out = ad.sum_(ad.tanh(constant(RNG.standard_normal((3, 3)))))
    assert out.grad is None


def test_leaf_gradient_basic():
    tape = Tape()
    x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    sq = ad.square(x)
    out = ad.sum_(sq)
    tape.backward(out)
    assert np.allclose(x.grad, 2.0 * x.data)
    assert sq.grad is None and out.grad is None  # only leaves keep gradients


def test_second_backward_raises():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    out = ad.sum_(x * x)
    tape.backward(out)
    with pytest.raises(TapeConsumed):
        tape.backward(out)
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        tape.backward(x + 1.0)


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        _ = a + b


def test_shared_subexpression_accumulates():
    tape = Tape()
    x = tape.leaf(np.array([[2.0]]))
    out = ad.sum_(x * x + x)  # d/dx = 2x + 1
    tape.backward(out)
    assert np.allclose(x.grad, [[5.0]])


def test_row_softmax_values():
    out = ad.row_softmax(constant(np.array([[0.0, 0.0]])))
    assert np.allclose(out.data, [[0.5, 0.5]])
    rows = ad.row_softmax(constant(RNG.standard_normal((30, 7)))).data
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12
    assert np.all((rows > 0.0) & (rows < 1.0))


def test_smooth_l1_identity_case():
    tape = Tape()
    x = tape.leaf(RNG.standard_normal((4, 4)))
    out = ad.sum_(ad.smooth_l1(x, constant(x.data.copy())))
    assert out.item() == 0.0
    tape.backward(out)
    assert np.all(x.grad == 0.0)


def test_smooth_l1_regions():
    a = constant(np.array([[0.4, 3.0]]))
    b = constant(np.array([[0.0, 0.0]]))
    out = ad.smooth_l1(a, b).data
    assert np.allclose(out, [[0.5 * 0.16, 2.5]])


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        ad.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.matmul(constant(np.ones(3)), constant(np.ones((3, 2))))
    with pytest.raises(ShapeMismatch):
        ad.matmul(constant(np.ones((4, 2, 3))), constant(np.ones(3)))
    with pytest.raises(ShapeMismatch):  # rank-3 inner dims
        ad.matmul(constant(np.ones((4, 2, 3))), constant(np.ones((4, 2, 3))))
    with pytest.raises(ShapeMismatch):  # shared weight inner dims
        ad.matmul(constant(np.ones((4, 2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):  # batch sizes
        ad.matmul(constant(np.ones((4, 2, 3))), constant(np.ones((5, 3, 2))))
    with pytest.raises(ShapeMismatch):  # a rank-3 right operand needs a rank-3 left one
        ad.matmul(constant(np.ones((2, 3))), constant(np.ones((4, 3, 2))))


def test_rank3_matmul_matches_per_entry_products():
    x = RNG.standard_normal((4, 2, 3))
    y = RNG.standard_normal((4, 3, 5))
    w = RNG.standard_normal((3, 5))
    batched = ad.matmul(constant(x), constant(y)).data
    shared = ad.matmul(constant(x), constant(w)).data
    for b in range(4):
        assert np.allclose(batched[b], x[b] @ y[b], rtol=0, atol=1e-14)
        assert np.allclose(shared[b], x[b] @ w, rtol=0, atol=1e-14)
    assert np.array_equal(ad.transpose(constant(x)).data, np.swapaxes(x, 1, 2))


def test_segment_sum_values_and_errors():
    x = RNG.standard_normal((5, 2))
    out = ad.segment_sum(constant(x), np.array([3, 0, 3, 1, 0]), 4).data
    assert np.array_equal(out, np.vstack([x[1] + x[4], x[3], np.zeros(2), x[0] + x[2]]))
    with pytest.raises(ShapeMismatch):
        ad.segment_sum(constant(x), np.array([0, 1]), 2)
    with pytest.raises(ShapeMismatch):
        ad.segment_sum(constant(x), np.array([0, 1, 2, 3, 4]), 4)


def test_pair_messages_values_and_errors():
    g, f = RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))
    i, j, gate = (np.asarray(_ALL_PAIRS[k]) for k in ("i", "j", "gate"))
    # both directions, receiver-major: the chain the node replaces, in its sum order
    order = np.lexsort((np.concatenate((i, j)), np.concatenate((j, i))))
    src, dst = np.concatenate((i, j))[order], np.concatenate((j, i))[order]
    pair = np.concatenate((np.arange(3), np.arange(3)))[order]
    out = _messages(constant(g), constant(f), _ALL_PAIRS).data
    recorded = ad.segment_sum(ad.gather_rows(constant(g), src) * constant(f[pair])
                              * constant(gate[pair]), dst, 3).data
    assert out.tobytes() == recorded.tobytes()
    assert np.array_equal(_messages(constant(g), constant(f[:0]), _NO_PAIRS).data, np.zeros((3, 4)))
    with pytest.raises(ShapeMismatch):  # a filter row short of the pairs
        _messages(constant(g), constant(f[:2]), _ALL_PAIRS)
    with pytest.raises(ShapeMismatch):  # filter rows of another width
        _messages(constant(g), constant(f[:, :3]), _ALL_PAIRS)
    with pytest.raises(ShapeMismatch):  # one gate short of the pairs
        _messages(constant(g), constant(f), {**_ALL_PAIRS, "gate": gate[:2]})
    with pytest.raises(ShapeMismatch):  # one gate per pair, but not as a column
        _messages(constant(g), constant(f), {**_ALL_PAIRS, "gate": gate[:, 0]})


def test_gather_and_concat():
    tape = Tape()
    x = tape.leaf(RNG.standard_normal((5, 3)))
    idx = np.array([4, 0, 0, 2], dtype=np.intp)
    g = ad.gather_rows(x, idx)
    assert np.array_equal(g.data, x.data[idx])
    top = ad.concat_rows([g, x])
    out = ad.sum_(ad.square(top))
    tape.backward(out)
    expected = 2.0 * x.data.copy()
    np.add.at(expected, idx, 2.0 * x.data[idx])
    assert np.allclose(x.grad, expected)


# --- gradient checks for every primitive in isolation ---

_C34 = RNG.standard_normal((3, 4))
_C42 = RNG.standard_normal((4, 2))
_C31 = RNG.standard_normal((3, 1))
_C32 = RNG.standard_normal((3, 2))
_C43 = RNG.standard_normal((4, 3))
_IDX = np.array([2, 0, 1, 2], dtype=np.intp)
_IDX2 = np.array([[0, 2, 2], [2, 1, 0]], dtype=np.intp)  # a 2-D index, as the head uses
_W234 = np.cos(np.arange(24.0)).reshape(2, 3, 4)
_W13 = np.cos(np.arange(169.0)).reshape(13, 13)  # fixed weights for the 13 x 13 rotation
_W355 = np.cos(np.arange(75.0)).reshape(3, 5, 5)  # for three 5 x 5 rotations
_W232 = np.sin(np.arange(12.0)).reshape(2, 3, 2)
_W223 = np.sin(np.arange(12.0)).reshape(2, 2, 3)
_W254 = np.cos(np.arange(40.0)).reshape(2, 5, 4)
_B224 = np.cos(np.arange(16.0)).reshape(2, 2, 4)
_B243 = np.sin(np.arange(24.0)).reshape(2, 4, 3)
_A253 = np.cos(np.arange(30.0)).reshape(2, 5, 3)
_C24 = np.sin(np.arange(8.0)).reshape(2, 4)
_SEG = np.array([2, 0, 2], dtype=np.intp)  # three rows into four segments, two left empty
# Unordered pairs of three atoms, i < j and i-major: all three pairs, then only
# (0, 1) and (0, 2) (atom 0 in every pair, atoms 1 and 2 only with it), then none,
# then a list in no order (j unsorted, i repeated, one pair with i > j)
_ALL_PAIRS = dict(i=[0, 0, 1], j=[1, 2, 2], gate=[[0.9], [0.4], [0.7]])
_HUB_PAIRS = dict(i=[0, 0], j=[1, 2], gate=[[0.8], [0.3]])
_NO_PAIRS = dict(i=np.zeros(0), j=np.zeros(0), gate=np.zeros((0, 1)))
_UNSORTED_PAIRS = dict(i=[1, 0, 1], j=[2, 2, 0], gate=[[0.6], [0.2], [0.5]])


# Pair lists of three atoms for pair_net: j unsorted, and i repeated (with i > j)
_PAIRS_J_UNSORTED = (np.array([0, 0, 1]), np.array([2, 1, 2]))
_PAIRS_I_REPEATED = (np.array([1, 1, 0]), np.array([2, 0, 2]))
# pair_net operands on three 4-wide rows, hidden width 3, four outputs
_NET = dict(rows=_C34, w_sum=_C43, w_gap=np.cos(np.arange(12.0)).reshape(4, 3),
            b1=np.sin(np.arange(3.0)).reshape(1, 3), w2=np.sin(np.arange(12.0)).reshape(3, 4),
            b2=np.cos(np.arange(4.0)).reshape(1, 4))


def _pair_net(pairs, **given):
    """sum(pair_net(...) * C34[:P]), with `given` in place of the default operands."""
    ops = {**_NET, **given}
    return ad.sum_(ad.pair_net(ops["rows"], *pairs, ops["w_sum"], ops["w_gap"], ops["b1"],
                               ops["w2"], ops["b2"]) * constant(_C34[:len(pairs[0])]))


def _messages(g, f, pairs):
    return ad.pair_messages(g, f, pairs["gate"], pairs["i"], pairs["j"])


PRIMITIVES = {
    "add": lambda x: ad.sum_(x + constant(_C34)),
    "add_broadcast": lambda x: ad.sum_(x + constant(_C31)),
    "sub": lambda x: ad.sum_(constant(_C34) - x),
    "mul": lambda x: ad.sum_(x * constant(_C34)),
    "div": lambda x: ad.sum_(x / constant(_C34 + 4.0)),
    "div_denom": lambda x: ad.sum_(constant(_C34) / (x + 5.0)),
    "matmul": lambda x: ad.sum_(x @ constant(_C42)),
    "transpose": lambda x: ad.sum_(ad.transpose(x) @ constant(_C32)),
    "reshape": lambda x: ad.sum_(ad.reshape(x, (4, 3)) * constant(_C43)),
    "row_softmax": lambda x: ad.sum_(ad.row_softmax(x) * constant(_C34)),
    "sigmoid": lambda x: ad.sum_(ad.sigmoid(x) * constant(_C34)),
    "tanh": lambda x: ad.sum_(ad.tanh(x) * constant(_C34)),
    "softplus": lambda x: ad.sum_(ad.softplus(x) * constant(_C34)),
    "sin": lambda x: ad.sum_(ad.sin(x) * constant(_C34)),
    "exp": lambda x: ad.sum_(ad.exp(x) * constant(_C34)),
    "sqrt": lambda x: ad.sum_(ad.sqrt(x + 6.0) * constant(_C34)),
    "square": lambda x: ad.sum_(ad.square(x) * constant(_C34)),
    "abs": lambda x: ad.sum_(ad.abs_(x) * constant(_C34)),
    "sum_axis0": lambda x: ad.sum_(ad.sum_(x, axis=0) * constant(np.arange(4.0))),
    "sum_axis1_keep": lambda x: ad.sum_(ad.sum_(x, axis=1, keepdims=True) * constant(_C31)),
    "mean": lambda x: ad.mean(x),
    "mean_axis": lambda x: ad.sum_(ad.mean(x, axis=0, keepdims=True) * constant(_C34)),
    "smooth_l1": lambda x: ad.sum_(ad.smooth_l1(x, constant(_C34))),
    "gather_rows": lambda x: ad.sum_(ad.gather_rows(x, _IDX) * constant(_C44[_IDX])),
    "gather_rows_2d": lambda x: ad.sum_(ad.gather_rows(x, _IDX2) * constant(_W234)),
    "plane_rotation_chain": lambda x: ad.sum_(ad.plane_rotation_chain(ad.reshape(x, (1, 12)))
                                              * constant(_W13)),
    "plane_rotation_chain_batched": lambda x: ad.sum_(ad.plane_rotation_chain(x)
                                                      * constant(_W355)),
    # rank-3 @ rank-3, x on either side; rank-3 @ shared rank-2 weight, x on either side
    "matmul_batched": lambda x: ad.sum_((ad.reshape(x, (2, 3, 2)) @ constant(_B224))
                                        * constant(_W254[:, :3])),
    "matmul_batched_right": lambda x: ad.sum_((constant(_B243) @ ad.reshape(x, (2, 3, 2)))
                                              * constant(_W254[:, :4, :2])),
    "matmul_shared_weight": lambda x: ad.sum_((constant(_A253) @ x) * constant(_W254)),
    "matmul_shared_rows": lambda x: ad.sum_((ad.reshape(x, (2, 3, 2)) @ constant(_C24))
                                            * constant(_W254[:, :3])),
    "transpose_batched": lambda x: ad.sum_(ad.transpose(ad.reshape(x, (2, 3, 2)))
                                           * constant(_W223)),
    "segment_sum": lambda x: ad.sum_(ad.segment_sum(x, _SEG, 4) * constant(_C44)),
    # x as both the atom rows and the filter rows: three atoms, three unordered pairs
    "pair_messages": lambda x: ad.sum_(_messages(x, x, _ALL_PAIRS) * constant(_C34)),
    "pair_messages_hub": lambda x: ad.sum_(_messages(x, constant(_C34[:2]), _HUB_PAIRS)
                                           * constant(_C34)),
    "pair_messages_no_pairs": lambda x: ad.sum_(_messages(x, constant(np.zeros((0, 4))), _NO_PAIRS)
                                                * constant(_C34)),
    "pair_messages_unsorted": lambda x: ad.sum_(_messages(x, constant(_C34[::-1]), _UNSORTED_PAIRS)
                                                * constant(_C34)),
    # x as the atom rows, under both pair lists, then as each weight in turn
    "pair_net_rows": lambda x: _pair_net(_PAIRS_J_UNSORTED, rows=x),
    "pair_net_rows_i_repeated": lambda x: _pair_net(_PAIRS_I_REPEATED, rows=x),
    "pair_net_w_sum": lambda x: _pair_net(_PAIRS_I_REPEATED, w_sum=ad.transpose(x)),
    "pair_net_w_gap": lambda x: _pair_net(_PAIRS_J_UNSORTED, w_gap=ad.transpose(x)),
    "pair_net_b1": lambda x: _pair_net(_PAIRS_J_UNSORTED,
                                       b1=ad.transpose(ad.sum_(x, axis=1, keepdims=True))),
    "pair_net_w2": lambda x: _pair_net(_PAIRS_I_REPEATED, w2=x),
    "pair_net_b2": lambda x: _pair_net(_PAIRS_J_UNSORTED, b2=ad.sum_(x, axis=0, keepdims=True)),
    "pair_net_no_pairs": lambda x: _pair_net((np.zeros(0), np.zeros(0)), rows=x),
}
_C44 = RNG.standard_normal((4, 4))


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients(name):
    x = RNG.standard_normal((3, 4)) + 0.31
    assert grad_check(PRIMITIVES[name], x, eps=1e-5) < 1e-6


# every recorded primitive, including those whose gradient checks live below
RECORDED = {
    **PRIMITIVES,
    "concat_rows": lambda x: ad.sum_(ad.concat_rows([x, constant(_C34), x])),
}


def _captured(obj, seen: set[int]):
    """Every object a function reaches through closure cells and defaults."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, types.FunctionType):
        cells = [c.cell_contents for c in obj.__closure__ or ()]
        for item in cells + list(obj.__defaults__ or ()):
            yield from _captured(item, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _captured(item, seen)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_pulls_capture_no_tensor_or_tape(name):
    tape = Tape()
    out = RECORDED[name](tape.leaf(RNG.standard_normal((3, 4)) + 0.31))
    pulls = [fn for rec in tape._records for fn in rec[1]]
    assert pulls
    seen: set[int] = set()
    held = [type(o).__name__ for fn in pulls for o in _captured(fn, seen)
            if isinstance(o, (Tensor, Tape))]
    assert held == [], name
    tape.backward(out)
    assert all(rec is None or not rec[0] for rec in tape._records)  # every non-leaf released


def test_dropped_forward_is_freed_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        for f in RECORDED.values():
            tape = Tape()
            f(tape.leaf(RNG.standard_normal((3, 4)) + 0.31))
            del tape
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_softplus_is_finite_far_from_zero():
    tape = Tape()
    x = tape.leaf(np.array([-800.0, 0.0, 800.0]))
    out = ad.softplus(x)
    tape.backward(ad.sum_(out))
    assert np.array_equal(out.data, [0.0, np.log(2.0), 800.0])
    assert np.array_equal(x.grad, [0.0, 0.5, 1.0])
    assert grad_check(lambda t: ad.sum_(ad.softplus(t)), np.array([-40.0, 3.0, 800.0])) < 1e-6


def test_concat_rows_gradient():
    other = constant(RNG.standard_normal((2, 4)))

    def f(x):
        return ad.sum_(ad.square(ad.concat_rows([x, other])))

    assert grad_check(f, RNG.standard_normal((3, 4)), eps=1e-5) < 1e-6


def test_grad_check_validates_eps():
    with pytest.raises(ValueError):
        grad_check(lambda x: ad.sum_(x), np.ones(2), eps=0.5)


def test_grad_check_flags_nonfinite():
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
        grad_check(lambda x: ad.sum_(ad.sqrt(x)), np.array([-1.0]))


def test_grad_check_exact_quadratic():
    err = grad_check(lambda x: ad.sum_(ad.square(x)), RNG.standard_normal((4, 4)))
    assert err < 1e-8


def test_deterministic_accumulation():
    def run():
        tape = Tape()
        x = tape.leaf(np.linspace(0.1, 1.0, 12).reshape(3, 4))
        y = ad.row_softmax(x @ constant(_C42))
        out = ad.sum_(y * y) + ad.mean(ad.tanh(x))
        tape.backward(out)
        return tape.grad(x).copy()

    a, b = run(), run()
    assert np.array_equal(a, b)
