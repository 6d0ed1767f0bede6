"""Chebyshev-Lobatto collocation primitives.

Nodes are stored ascending on the target interval.  Interpolation goes
through the barycentric formula; the cumulative integration matrix maps
node values of a function to node values of its antiderivative (zero at
the left endpoint) via Chebyshev coefficient space, so it is spectrally
accurate for smooth integrands.  The differentiation matrix maps node
values to the node values of the interpolant's derivative.

Both matrices depend on the interval only through its length, a scalar
factor.  The unit-interval matrices are therefore built once per node
count and kept in small read-only caches; every call returns a fresh
scaled copy, bit for bit the product it would otherwise compute.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = [
    "lobatto_nodes",
    "barycentric_weights",
    "interp_rows",
    "interp_row",
    "chebyshev_coefficients",
    "cumulative_matrix",
    "differentiation_matrix",
]


def lobatto_nodes(m: int, a: float, b: float) -> np.ndarray:
    """m Chebyshev-Lobatto points on [a, b], ascending, endpoints included."""
    if m < 2:
        raise ValueError("need at least two nodes")
    x = np.cos(np.pi * np.arange(m) / (m - 1))[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def barycentric_weights(m: int) -> np.ndarray:
    """Barycentric weights for Lobatto nodes (any interval, either
    orientation: a global sign or scale cancels in the formula)."""
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def interp_rows(nodes: np.ndarray, weights: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows ell_k with interpolant(s_k) = ell_k @ values_at_nodes, shape
    (S, M); a point within 1e-14 times the span of a node gets that
    node's unit vector.

    The nodes are ascending, so the nodes a point may sit on are the two
    beside its ``searchsorted`` position; the lower one wins when both are
    that close."""
    s = np.asarray(s, dtype=float)
    tol = 1e-14 * (nodes[-1] - nodes[0])
    right = np.clip(np.searchsorted(nodes, s), 1, len(nodes) - 1)
    left_hit = np.abs(s - nodes[right - 1]) <= tol
    on_node = left_hit | (np.abs(s - nodes[right]) <= tol)
    rows = np.subtract.outer(s, nodes)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(weights, rows, out=rows)  # on-node rows are replaced below
    rows[on_node] = 0.0
    rows[on_node, (right - left_hit)[on_node]] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def interp_row(nodes: np.ndarray, weights: np.ndarray, s: float) -> np.ndarray:
    """Row ell with interpolant(s) = ell @ values_at_nodes."""
    return interp_rows(nodes, weights, np.array([s]))[0]


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients a with p = sum a_n T_n matching values at ascending
    Lobatto nodes on [-1, 1] (DCT-I through an even extension).  A 2-D
    ``values`` holds one function per column and gives one coefficient
    column each."""
    v = np.asarray(values, dtype=float)[::-1]  # descending = cos(k pi / (m-1))
    m = len(v)
    ext = np.concatenate([v, v[-2:0:-1]])
    f = np.fft.rfft(ext, axis=0).real / (m - 1)
    a = f[:m].copy()
    a[0] *= 0.5
    a[-1] *= 0.5
    return a


@lru_cache(maxsize=8)
def _unit_cumulative(m: int) -> np.ndarray:
    """cumulative_matrix on [-1, 1] with m nodes, read-only."""
    unit = lobatto_nodes(m, -1.0, 1.0)
    anti = cheb.chebint(chebyshev_coefficients(np.eye(m)))
    q = (cheb.chebval(unit, anti) - cheb.chebval(-1.0, anti)[:, None]).T
    q.flags.writeable = False
    return q


def cumulative_matrix(nodes: np.ndarray) -> np.ndarray:
    """Matrix Q with (Q v)_i = integral from nodes[0] to nodes[i] of the
    polynomial interpolating v at the nodes (all columns at once, from the
    coefficients of the identity; the unit-interval matrix is cached per
    node count and scaled by half the interval's length)."""
    nodes = np.asarray(nodes, dtype=float)
    return _unit_cumulative(len(nodes)) * (0.5 * (nodes[-1] - nodes[0]))


@lru_cache(maxsize=8)
def _unit_differentiation(m: int) -> np.ndarray:
    """differentiation_matrix on [-1, 1] with m nodes, read-only."""
    unit = lobatto_nodes(m, -1.0, 1.0)
    c = barycentric_weights(m)
    diff = unit[:, None] - unit + np.eye(m)
    d = (c[None, :] / c[:, None]) / diff
    # each row differentiates the constants to zero: the diagonal is minus
    # the sum of the row's other entries (Trefethen, Spectral Methods in
    # MATLAB, 2000, program cheb)
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    d.flags.writeable = False
    return d


def differentiation_matrix(nodes: np.ndarray) -> np.ndarray:
    """Matrix D with (D v)_i = derivative at nodes[i] of the polynomial
    interpolating v at the Lobatto nodes (the unit-interval matrix is cached
    per node count and scaled by two over the interval's length)."""
    nodes = np.asarray(nodes, dtype=float)
    return _unit_differentiation(len(nodes)) * (2.0 / (nodes[-1] - nodes[0]))
