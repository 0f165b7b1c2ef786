"""The engine's two backward rules, pinned.

* **VJP contract.** A backward closure returns ``None`` for a parent
  that :func:`~repro.nn.tensor.receives_grad` rejects (a constant), and
  the gradients it does return are bitwise those of a run where every
  operand requires grad.
* **Flat scatter.** :func:`~repro.nn.tensor.scatter_add` equals
  ``np.add.at`` on the multi-dimensional index, values and sign of
  zero, for duplicate-heavy indices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, where
from repro.nn.kernels import fused_gru_sequence
from repro.nn.observers import EngineObserver, add_observer, remove_observer
from repro.nn.tensor import receives_grad, scatter_add


# --------------------------------------------------------------------- #
# Flat scatter == np.add.at
# --------------------------------------------------------------------- #
_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _values(data, shape):
    flat = data.draw(st.lists(_ELEMENTS, min_size=1, max_size=32))
    # Tile a short drawn list so big value arrays stay cheap to draw.
    return np.resize(np.asarray(flat, dtype=np.float64), shape)


def _heavy_index(data, *extents):
    """One index array per extent, shuffled alike, in which one position
    (negative indices included) occurs at least 60 times."""
    extra = data.draw(st.integers(0, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    order = rng.permutation(60 + extra)
    out = []
    for extent in extents:
        hot = data.draw(st.integers(-extent, extent - 1))
        index = np.concatenate([np.full(60, hot),
                                rng.integers(-extent, extent, size=extra)])
        out.append(index[order])
    return out


def _assert_bitwise(got, expected):
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), width=st.integers(1, 5),
       two_d=st.booleans())
def test_scatter_rows_equals_add_at(data, rows, width, two_d):
    index, = _heavy_index(data, rows)
    if two_d and index.size % 2 == 0:
        index = index.reshape(2, -1)
    template = np.zeros((rows, width))
    values = _values(data, index.shape + (width,))
    expected = np.zeros_like(template)
    np.add.at(expected, index, values)
    _assert_bitwise(scatter_add(template, (index,), values), expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 5),
                                       st.integers(1, 3)),
       axis=st.integers(0, 2), two_d=st.booleans())
def test_scatter_any_axis_equals_add_at(data, shape, axis, two_d):
    index, = _heavy_index(data, shape[axis])
    if two_d and index.size % 2 == 0:
        index = index.reshape(-1, 2)
    template = np.zeros(shape)
    where_ = (slice(None),) * axis + (index,)
    values = _values(data, template[where_].shape)
    expected = np.zeros_like(template)
    np.add.at(expected, where_, values)
    _assert_bitwise(scatter_add(template, (index,), values, axis), expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
       trailing=st.integers(0, 3), scalar=st.booleans())
def test_scatter_row_col_pairs_equals_add_at(data, rows, cols, trailing,
                                             scalar):
    row_index, col_index = _heavy_index(data, rows, cols)
    shape = (rows, cols) + ((trailing,) if trailing else ())
    template = np.zeros(shape)
    pair = (row_index, col_index)
    expected = np.zeros_like(template)
    if scalar:  # one broadcast value, as cross-entropy's pick scatters
        values = np.broadcast_to(_values(data, ()), template[pair].shape)
    else:
        values = _values(data, template[pair].shape)
    np.add.at(expected, pair, values)
    _assert_bitwise(scatter_add(template, pair, values), expected)


def test_scatter_keeps_the_template_dtype_and_shape():
    template = np.zeros((3, 2), dtype=np.float32)
    out = scatter_add(template, (np.array([2, 2]),), np.ones((2, 2)))
    assert out.dtype == np.float32 and out.shape == (3, 2)
    np.testing.assert_array_equal(out, [[0, 0], [0, 0], [2, 2]])


# --------------------------------------------------------------------- #
# VJP contract: no gradient for a constant operand
# --------------------------------------------------------------------- #
class _Contributions(EngineObserver):
    """Records the contributions of one watched node's backward."""

    def __init__(self, node: Tensor):
        self.node = node
        self.seen = None

    def dispatch_end(self, node, grad, contributions) -> None:
        if node is self.node:
            self.seen = tuple(contributions)


def _run(op, arrays, constant):
    """Apply ``op`` and back-propagate a fixed random weighting.

    Operand ``constant`` (an index, or None) is a plain constant; the
    rest require grad.  Returns the watched contributions and the
    operands' gradients.
    """
    operands = [Tensor(a, requires_grad=i != constant)
                for i, a in enumerate(arrays)]
    out = op(*operands)
    weights = np.random.default_rng(7).normal(size=out.shape)
    watch = add_observer(_Contributions(out))
    try:
        (out * weights).sum().backward()
    finally:
        remove_observer(watch)
    return watch.seen, [t.grad for t in operands]


def _check_constant_skipped(op, arrays):
    _, reference = _run(op, arrays, constant=None)
    for constant in range(len(arrays)):
        seen, grads = _run(op, arrays, constant)
        assert seen[constant] is None
        for i, grad in enumerate(grads):
            if i == constant:
                assert grad is None
            else:
                assert seen[i] is not None
                np.testing.assert_array_equal(grad, reference[i])


_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


@pytest.mark.parametrize("name", sorted(_BINARY))
@pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), (4,)),
                                    ((2, 1, 4), (3, 1))])
def test_binary_op_skips_constant(name, shapes):
    rng = np.random.default_rng(1)
    arrays = [rng.uniform(0.5, 2.0, size=s) for s in shapes]
    _check_constant_skipped(_BINARY[name], arrays)


@pytest.mark.parametrize("shapes", [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)),
                                    ((4,), (4, 5)), ((3, 4), (4,)),
                                    ((4,), (4,))])
def test_matmul_skips_constant(shapes):
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=s) for s in shapes]
    _check_constant_skipped(lambda a, b: a @ b, arrays)


def test_where_skips_constant():
    rng = np.random.default_rng(3)
    condition = rng.random((3, 4)) > 0.5
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
    _check_constant_skipped(lambda a, b: where(condition, a, b), arrays)


@pytest.mark.parametrize("batch", [3, 1])
def test_gru_sequence_skips_constant_input(batch):
    rng = np.random.default_rng(4)
    steps, d_in, hidden = 4, 5, 2
    mask = np.ones((batch, steps), dtype=bool)
    mask[0, 2:] = False
    arrays = [rng.normal(size=(batch, steps, d_in)),
              rng.normal(size=(d_in, 3 * hidden)),
              rng.normal(size=(hidden, 3 * hidden)),
              rng.normal(size=(3 * hidden,))]

    def op(x, w, u, b):
        return fused_gru_sequence(x, mask, w, u, b)

    _, reference = _run(op, arrays, constant=None)
    seen, grads = _run(op, arrays, constant=0)
    assert seen[0] is None and grads[0] is None
    for i in (1, 2, 3):
        np.testing.assert_array_equal(grads[i], reference[i])


def test_receives_grad_rule():
    leaf = Tensor(np.ones(2), requires_grad=True)
    const = Tensor(np.ones(2))
    assert receives_grad(leaf) and not receives_grad(const)
    assert receives_grad(leaf * 2.0)          # op output: has a backward
    assert not receives_grad(const * 2.0)     # constant arithmetic
