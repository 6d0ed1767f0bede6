"""Rank, kernel, and eigenvalue-cluster multiplicity helpers.

Multiplicity oracles are built by conjugating known Jordan structures
with random well-conditioned similarity transforms, so both the
algebraic and geometric answers are known exactly.  The one-Schur-form
``cluster_multiplicities`` is also compared with the one-sorted-Schur-form-
per-cluster routine it replaced, kept here as ``sorted_schur_multiplicity``.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrastab.errors import NumericalError
from pyrastab.linalg import (
    cluster_multiplicities,
    cluster_multiplicity,
    kernel_basis,
    numerical_rank,
    spectral_norm,
    svd_rank,
)

_EPS = np.finfo(float).eps


def sorted_schur_multiplicity(a, value, band, rank_factor=1e4):
    """Oracle: multiplicity of one cluster from its own sorted complex
    Schur form, with the rank rule written inline."""
    a = np.asarray(a, dtype=complex)
    t, _, sdim = scipy.linalg.schur(
        a, output="complex", sort=lambda mu: abs(mu - value) <= band
    )
    sdim = int(sdim)
    if sdim == 0:
        return 0, 0
    if np.any(np.abs(np.diagonal(t)[:sdim] - value) > band):
        raise NumericalError("Schur reordering failed to isolate the cluster")
    svals = scipy.linalg.svdvals(t[:sdim, :sdim] - value * np.eye(sdim))
    tau = max(sdim * _EPS * float(svals[0]) * rank_factor, 10.0 * band)
    return sdim, max(sdim - int(np.count_nonzero(svals > tau)), 0)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_numerical_rank_on_constructed_matrices():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    for r in range(6):
        s = np.zeros(5)
        s[:r] = np.linspace(1.0, 2.0, r) if r else []
        a = u @ np.diag(s) @ v.T
        assert numerical_rank(a) == r


def test_kernel_basis_spans_the_kernel():
    rng = np.random.default_rng(8)
    # 2-dimensional kernel by construction
    b = rng.standard_normal((5, 3))
    a = b @ rng.standard_normal((3, 5))
    basis = kernel_basis(a)
    assert basis.shape == (5, 2)
    assert np.linalg.norm(a @ basis) <= 1e-10 * spectral_norm(a)
    # orthonormal columns
    assert basis.conj().T @ basis == pytest.approx(np.eye(2), abs=1e-12)


def test_kernel_basis_full_rank_is_empty():
    assert kernel_basis(np.eye(3)).shape == (3, 0)


def _similar(rng, block):
    n = block.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ block @ q.T


def test_cluster_multiplicity_semisimple():
    rng = np.random.default_rng(21)
    # eigenvalue 2 with algebraic = geometric = 3
    a = _similar(rng, np.diag([2.0, 2.0, 2.0, -1.0, 0.5]))
    alg, geo = cluster_multiplicity(a, 2.0 + 0.0j, 1e-6, 1e4)
    assert (alg, geo) == (3, 3)


def test_cluster_multiplicity_jordan_block():
    rng = np.random.default_rng(22)
    block = np.diag([1.5, 1.5, 1.5, -0.3]).astype(float)
    block[0, 1] = 1.0
    block[1, 2] = 1.0  # one 3x3 Jordan block at 1.5
    # a defective triple splits like eps^(1/3) ~ 6e-6 under roundoff, so
    # the cluster band has to sit above that radius
    alg, geo = cluster_multiplicity(_similar(rng, block), 1.5 + 0.0j, 1e-4, 1e4)
    assert (alg, geo) == (3, 1)


def test_cluster_multiplicity_mixed_structure():
    rng = np.random.default_rng(23)
    block = np.diag([1.0, 1.0, 1.0, 2.0]).astype(float)
    block[0, 1] = 1.0  # 2x2 Jordan block plus a 1x1 at the same eigenvalue
    alg, geo = cluster_multiplicity(_similar(rng, block), 1.0 + 0.0j, 1e-6, 1e4)
    assert (alg, geo) == (3, 2)


def test_cluster_multiplicity_absent_eigenvalue():
    rng = np.random.default_rng(24)
    a = _similar(rng, np.diag([0.2, -0.7, 1.8]))
    alg, geo = cluster_multiplicity(a, 1.0 + 0.0j, 1e-6, 1e4)
    assert (alg, geo) == (0, 0)


def test_cluster_multiplicity_complex_eigenvalue():
    rng = np.random.default_rng(25)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = _similar(rng, np.block([[rot, np.zeros((2, 2))], [np.zeros((2, 2)), rot]]))
    alg, geo = cluster_multiplicity(a, 1.0j, 1e-6, 1e4)
    assert (alg, geo) == (2, 2)


def test_cluster_multiplicity_respects_radius():
    a = np.diag([1.0, 1.0 + 1e-3])
    alg_tight, _ = cluster_multiplicity(a, 1.0 + 0.0j, 1e-6, 1e4)
    alg_wide, _ = cluster_multiplicity(a, 1.0 + 0.0j, 1e-2, 1e4)
    assert alg_tight == 1
    assert alg_wide == 2


# --- the one rank rule ------------------------------------------------------


@st.composite
def _singular_values(draw):
    """Descending singular values, one of them planted on a cutoff."""
    svals = sorted((10.0**x for x in draw(st.lists(st.floats(-20.0, 3.0), max_size=8))),
                   reverse=True)
    n = len(svals) + 1 + draw(st.integers(0, 2))
    rank_factor = draw(st.sampled_from([1.0, 1e4, 1e8]))
    floor = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
    if svals:
        tie = draw(st.sampled_from([n * _EPS * svals[0] * rank_factor, floor]))
        if tie <= svals[0]:
            svals = sorted(svals + [tie], reverse=True)
    return np.array(svals), n, rank_factor, floor


@settings(max_examples=200, deadline=None)
@given(_singular_values())
def test_svd_rank_equals_the_former_inline_rules(case):
    svals, n, rank_factor, floor = case
    smax = float(svals[0]) if len(svals) else 0.0
    cutoff = n * _EPS * smax * rank_factor
    # numerical_rank and kernel_basis: the bare relative cutoff
    assert svd_rank(svals, n, rank_factor) == int(np.count_nonzero(svals > cutoff))
    # cluster blocks of radius band: the cutoff or 10 band
    band = floor / 10.0
    assert svd_rank(svals, n, rank_factor, 10.0 * band) == int(
        np.count_nonzero(svals > max(cutoff, 10.0 * band)))
    # characteristic roots (square matrices): the kernel dimension is the
    # count under the cutoff or tol_res max(1, sigma_max)
    if len(svals) == n:
        tol_res = floor
        kernel = int(np.count_nonzero(svals <= max(cutoff, tol_res * max(1.0, smax))))
        assert n - svd_rank(svals, n, rank_factor, tol_res * max(1.0, smax)) == kernel


# --- one Schur form for every cluster ---------------------------------------


_VALUES = (1.0, -0.5, 2.0, 1.0j, 0.3 + 0.4j, 0.3 - 0.4j)


@st.composite
def _planted_clusters(draw):
    """S (Jordan blocks + repeated eigenvalues) S^-1 and a cluster list."""
    values = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3, unique=True))
    blocks = []
    for value in values:
        for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            blocks.append(value * np.eye(size) + np.eye(size, k=1))
    planted = scipy.linalg.block_diag(*blocks)
    n = planted.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q * np.exp(rng.uniform(-1.0, 1.0, n))
    a = s @ planted @ np.linalg.inv(s)
    bands = st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2, 0.3])
    clusters = [(complex(v), draw(bands)) for v in values] + [(5.0 + 0j, draw(bands))]
    clusters = draw(st.permutations(clusters))
    return a, clusters, draw(st.sampled_from([1.0, 1e4]))


@settings(max_examples=60, deadline=None)
@given(_planted_clusters())
def test_cluster_multiplicities_match_sorted_schur_oracle(case):
    a, clusters, rank_factor = case
    try:
        want = [sorted_schur_multiplicity(a, v, b, rank_factor) for v, b in clusters]
    except NumericalError:
        with pytest.raises(NumericalError):
            cluster_multiplicities(a, clusters, rank_factor)
        return
    assert cluster_multiplicities(a, clusters, rank_factor) == want
    assert [cluster_multiplicity(a, v, b, rank_factor) for v, b in clusters] == want


def test_cluster_multiplicities_of_no_cluster_is_empty():
    assert cluster_multiplicities(np.eye(3), []) == []
