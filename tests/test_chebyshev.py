"""Collocation primitives: nodes, barycentric interpolation, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from pyrastab import chebyshev
from pyrastab.chebyshev import (
    barycentric_weights,
    chebyshev_coefficients,
    cumulative_matrix,
    differentiation_matrix,
    interp_row,
    interp_rows,
    lobatto_nodes,
)


def test_lobatto_nodes_cover_interval():
    x = lobatto_nodes(9, -2.0, 3.0)
    assert x[0] == pytest.approx(-2.0)
    assert x[-1] == pytest.approx(3.0)
    assert np.all(np.diff(x) > 0)
    # denser toward the endpoints than the middle
    assert x[1] - x[0] < x[5] - x[4]


def test_interp_row_reproduces_polynomials():
    # degree m-1 interpolation is exact for polynomials up to that degree
    m = 12
    nodes = lobatto_nodes(m, 0.0, 2.0)
    w = barycentric_weights(m)
    coeffs = np.array([0.3, -1.2, 0.0, 2.0, -0.7])
    values = np.polyval(coeffs, nodes)
    rng = np.random.default_rng(4)
    for s in rng.uniform(0.0, 2.0, 20):
        row = interp_row(nodes, w, float(s))
        assert row @ values == pytest.approx(np.polyval(coeffs, s), rel=1e-13, abs=1e-13)


def test_interp_row_at_a_node_is_a_unit_vector():
    m = 8
    nodes = lobatto_nodes(m, -1.0, 1.0)
    w = barycentric_weights(m)
    for j in range(m):
        row = interp_row(nodes, w, float(nodes[j]))
        expect = np.zeros(m)
        expect[j] = 1.0
        assert row == pytest.approx(expect)


def test_interp_rows_sum_to_one():
    nodes = lobatto_nodes(10, 1.0, 4.0)
    w = barycentric_weights(10)
    for s in np.linspace(1.0, 4.0, 17):
        assert interp_row(nodes, w, float(s)).sum() == pytest.approx(1.0)


def test_chebyshev_coefficients_recover_known_expansion():
    m = 16
    nodes = lobatto_nodes(m, -1.0, 1.0)
    # p = 2 T_0 - 0.5 T_2 + 0.25 T_5
    from numpy.polynomial import chebyshev as cheb

    truth = np.zeros(m)
    truth[0], truth[2], truth[5] = 2.0, -0.5, 0.25
    values = cheb.chebval(nodes, truth)
    got = chebyshev_coefficients(values)
    assert got == pytest.approx(truth, abs=1e-13)


def test_cumulative_matrix_integrates_polynomials_exactly():
    m = 10
    nodes = lobatto_nodes(m, 0.5, 2.5)
    q = cumulative_matrix(nodes)
    # d/dt of t^4/4 is t^3; the interpolant of t^3 is itself
    v = nodes**3
    expect = (nodes**4 - nodes[0] ** 4) / 4.0
    assert q @ v == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_cumulative_matrix_spectral_accuracy_on_smooth_function():
    a, b = 0.0, np.pi
    errs = []
    for m in (8, 16, 32):
        nodes = lobatto_nodes(m, a, b)
        q = cumulative_matrix(nodes)
        got = q @ np.sin(nodes)
        expect = 1.0 - np.cos(nodes)
        errs.append(np.max(np.abs(got - expect)))
    assert errs[1] < errs[0] * 1e-3  # far faster than algebraic decay
    assert errs[2] < 1e-13


def test_cumulative_matrix_starts_at_zero():
    nodes = lobatto_nodes(7, -1.0, 5.0)
    q = cumulative_matrix(nodes)
    assert q[0] == pytest.approx(np.zeros(7), abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.integers(0, 39), max_size=10),
)
def test_interp_rows_match_interp_row(m, fractions, node_picks):
    nodes = lobatto_nodes(m, -3.0, 0.5)
    w = barycentric_weights(m)
    picks = [j % m for j in node_picks]
    s = np.concatenate([-3.0 + 3.5 * np.array(fractions), nodes[picks]])
    rows = interp_rows(nodes, w, s)
    assert rows.shape == (len(s), m)
    for row, x in zip(rows, s):
        assert np.array_equal(row, interp_row(nodes, w, float(x)))
    for row, j in zip(rows[len(fractions):], picks):
        expect = np.zeros(m)
        expect[j] = 1.0
        assert np.array_equal(row, expect)


def _masked_interp_rows(nodes, weights, s):
    """interp_rows by full (S, M) masks: every node within 1e-14 times the
    span of a point is a hit, and the first hit wins."""
    diff = s[:, None] - nodes
    hit = np.abs(diff) <= 1e-14 * (nodes[-1] - nodes[0])
    on_node = hit.any(axis=1)
    diff[hit] = 1.0
    rows = weights / diff
    rows[on_node] = 0.0
    rows[on_node, np.argmax(hit[on_node], axis=1)] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 130),
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 1e3),
    st.lists(st.floats(-0.1, 1.1), max_size=20),
    st.lists(st.tuples(st.integers(0, 129), st.sampled_from([-1.2, -1.0, -0.5, 0.0, 0.5, 1.0, 1.2])),
             max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_interp_rows_match_the_masked_rows_bit_for_bit(m, a, length, fractions, near, seed):
    # points on a node, within the on-node tolerance of one (either side,
    # at its edge) and just outside it, next to arbitrary points, also
    # beyond both ends
    nodes = lobatto_nodes(m, a, a + length)
    w = barycentric_weights(m)
    tol = 1e-14 * (nodes[-1] - nodes[0])
    picks = [(j % m, f) for j, f in near]
    s = np.concatenate([
        a + length * np.array(fractions),
        [nodes[j] + f * tol for j, f in picks],
        np.random.default_rng(seed).choice(nodes, 5),
    ])
    assert np.array_equal(interp_rows(nodes, w, s), _masked_interp_rows(nodes, w, s))


def _cumulative_by_columns(nodes):
    m = len(nodes)
    unit = lobatto_nodes(m, -1.0, 1.0)
    scale = 0.5 * (nodes[-1] - nodes[0])
    q = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        anti = cheb.chebint(chebyshev_coefficients(e))
        q[:, j] = (cheb.chebval(unit, anti) - cheb.chebval(-1.0, anti)) * scale
    return q


@pytest.mark.parametrize("m", [2, 3, 8, 33, 64, 127])
def test_cumulative_matrix_matches_column_loop(m):
    nodes = lobatto_nodes(m, -2.0 * np.pi, 0.0)
    ref = _cumulative_by_columns(nodes)
    assert np.max(np.abs(cumulative_matrix(nodes) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _uncached_cumulative(nodes):
    """The integration matrix built afresh from the identity's coefficients."""
    m = len(nodes)
    unit = lobatto_nodes(m, -1.0, 1.0)
    scale = 0.5 * (nodes[-1] - nodes[0])
    anti = cheb.chebint(chebyshev_coefficients(np.eye(m)))
    return (cheb.chebval(unit, anti) - cheb.chebval(-1.0, anti)[:, None]).T * scale


@pytest.mark.parametrize("m", [2, 3, 63, 127, 255])
def test_cached_cumulative_matrix_is_the_uncached_product(m):
    for a, b in ((-2.0 * np.pi, 0.0), (-1.0, 1.0), (0.5, 3.75), (-1e3, 7.0)):
        nodes = lobatto_nodes(m, a, b)
        assert np.array_equal(cumulative_matrix(nodes), _uncached_cumulative(nodes))


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-2.0, 1.0)])
def test_cumulative_matrix_returns_fresh_writable_arrays(a, b):
    nodes = lobatto_nodes(9, a, b)
    first = cumulative_matrix(nodes)
    keep = first.copy()
    assert first.flags.writeable
    first[:] = 7.0
    second = cumulative_matrix(nodes)
    assert second is not first
    assert np.array_equal(second, keep)
    unit = chebyshev._unit_cumulative(9)
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0, 0] = 1.0


@pytest.mark.parametrize("m", [2, 3, 9, 17, 33])
def test_differentiation_matrix_differentiates_polynomials_exactly(m):
    nodes = lobatto_nodes(m, -2.0 * np.pi, 0.0)
    d = differentiation_matrix(nodes)
    x = (nodes + np.pi) / np.pi  # the interval mapped to [-1, 1]
    for degree in range(m):
        coeffs = np.zeros(degree + 1)
        coeffs[-1] = 1.0
        values = cheb.chebval(x, coeffs)  # T_degree, bounded by 1
        slope = cheb.chebval(x, cheb.chebder(coeffs)) / np.pi
        assert np.max(np.abs(d @ values - slope)) <= 1e-12 * max(1.0, np.max(np.abs(slope)))


def test_differentiation_matrix_undoes_the_cumulative_matrix():
    # D Q = I on the polynomials of degree < m - 1, whose antiderivative the
    # interpolant still holds: checked on a smooth function
    nodes = lobatto_nodes(24, 0.5, 3.0)
    values = np.exp(np.sin(nodes))
    back = differentiation_matrix(nodes) @ (cumulative_matrix(nodes) @ values)
    assert np.max(np.abs(back - values)) <= 1e-10


def test_differentiation_matrix_returns_fresh_arrays_over_a_read_only_cache():
    nodes = lobatto_nodes(9, -1.0, 2.0)
    first = differentiation_matrix(nodes)
    first[:] = 7.0
    assert not np.array_equal(differentiation_matrix(nodes), first)
    assert not chebyshev._unit_differentiation(9).flags.writeable
