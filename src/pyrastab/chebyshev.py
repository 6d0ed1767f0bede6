"""Chebyshev-Lobatto collocation primitives.

Nodes are stored ascending on the target interval.  Interpolation goes
through the barycentric formula; the cumulative integration matrix maps
node values of a function to node values of its antiderivative (zero at
the left endpoint) via Chebyshev coefficient space, so it is spectrally
accurate for smooth integrands.

The integration matrix depends on the interval only through its length, a
scalar factor.  The unit-interval matrix is therefore built once per node
count and kept in a small read-only cache; every call returns a fresh
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
    node's unit vector."""
    s = np.asarray(s, dtype=float)
    diff = s[:, None] - nodes
    span = nodes[-1] - nodes[0]
    hit = np.abs(diff) <= 1e-14 * span
    on_node = hit.any(axis=1)
    diff[hit] = 1.0  # placeholder; those rows are replaced below
    rows = weights / diff
    rows[on_node] = 0.0
    rows[on_node, np.argmax(hit[on_node], axis=1)] = 1.0
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
