"""Rank, kernel, and eigenvalue-cluster multiplicity helpers.

Multiplicity oracles are built by conjugating known Jordan structures
with random well-conditioned similarity transforms, so both the
algebraic and geometric answers are known exactly.  The one-Schur-form
``SchurForm.multiplicities`` is also compared with one sorted Schur form
per cluster, in the matrix's own arithmetic, kept here as
``sorted_schur_multiplicity``.  A real matrix needs the real oracle: where
a defective block splits under rounding by more than the band (about
eps^(1/k) for a size-k Jordan block), real and complex Schur forms may
count the cluster differently, and neither count is wrong.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrastab.errors import NumericalError
from pyrastab.linalg import (
    SchurForm,
    cluster_multiplicity,
    kernel_basis,
    relative_gap_bound,
    schur_complement,
    spectral_norm,
    svd_rank,
)

_EPS = np.finfo(float).eps


def _complex_sorted_block(a, value, band):
    """The cluster's leading block of a complex Schur form of ``a`` sorted
    by scipy."""
    t, _, sdim = scipy.linalg.schur(
        np.asarray(a, dtype=complex), output="complex", sort=lambda mu: abs(mu - value) <= band
    )
    sdim = int(sdim)
    if np.any(np.abs(np.diagonal(t)[:sdim] - value) > band):
        raise NumericalError("Schur reordering failed to isolate the cluster")
    return t[:sdim, :sdim]


def sorted_schur_multiplicity(a, value, band, rank_factor=1e4):
    """Oracle: multiplicity of one cluster from its own sorted Schur form,
    in the matrix's own arithmetic, with the rank rule written inline.

    A real matrix gets a sorted real Schur form.  When its leading block
    also holds the conjugate partner of a cluster member, a sorted complex
    Schur form of that block isolates the cluster.  A complex matrix gets
    a sorted complex Schur form."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        block = _complex_sorted_block(a, value, band)
    else:
        try:
            t, _, sdim = scipy.linalg.schur(
                a.astype(float), output="real",
                sort=lambda x, y: abs(complex(x, y) - value) <= band,
            )
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError("Schur reordering failed to isolate the cluster") from exc
        block = t[: int(sdim), : int(sdim)]
        if len(block) and np.any(np.abs(np.linalg.eigvals(block) - value) > band):
            block = _complex_sorted_block(block, value, band)
    sdim = len(block)
    if sdim == 0:
        return 0, 0
    svals = scipy.linalg.svdvals(block - value * np.eye(sdim))
    tau = max(sdim * _EPS * float(svals[0]) * rank_factor, 10.0 * band)
    return sdim, max(sdim - int(np.count_nonzero(svals > tau)), 0)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


@st.composite
def _matrix_pairs(draw):
    """A real matrix a and a b with a - b random, zero or rank 1; a itself
    is random, rank 1, tiny (so max(1, .) takes the 1) or diagonal (its
    largest column norm is then its spectral norm)."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = {
        "random": lambda: rng.standard_normal((n, n)),
        "rank-1": lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
        "tiny": lambda: 1e-3 * rng.standard_normal((n, n)),
        "diagonal": lambda: np.diag(rng.uniform(-5.0, 5.0, n)),
    }[draw(st.sampled_from(["random", "rank-1", "tiny", "diagonal"]))]()
    scale = 10.0 ** draw(st.integers(-12, 2))
    d = {
        "random": lambda: rng.standard_normal((n, n)),
        "zero": lambda: np.zeros((n, n)),
        "rank-1": lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
    }[draw(st.sampled_from(["random", "zero", "rank-1"]))]()
    return a, a - scale * d


@settings(max_examples=200, deadline=None)
@given(_matrix_pairs())
def test_relative_gap_bound_is_never_below_the_svd_gap(pair):
    # the Frobenius bound is exact for a rank-1 difference and the column
    # bound exact for a diagonal a, where both sides may round apart by an
    # ulp or two; no more slack than that is allowed
    a, b = pair
    gap = spectral_norm(a - b) / max(1.0, spectral_norm(a))
    bound = relative_gap_bound(a, b)
    assert bound >= gap * (1.0 - 8.0 * _EPS)
    if not np.any(a - b):
        assert bound == 0.0


def test_relative_gap_bound_of_empty_matrices_is_zero():
    assert relative_gap_bound(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0


def test_numerical_rank_on_constructed_matrices():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    for r in range(6):
        s = np.zeros(5)
        s[:r] = np.linspace(1.0, 2.0, r) if r else []
        a = u @ np.diag(s) @ v.T
        assert svd_rank(scipy.linalg.svdvals(a), max(a.shape), 1e4) == r


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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_schur_complement_inverts_the_trailing_block_of_the_inverse(dtype, k):
    # S^-1 is the trailing k x k block of a^-1, and the estimate of
    # 1 / ||A11^-1||_1 is never below it and at most a few times above
    rng = np.random.default_rng(k)
    a = rng.standard_normal((6, 6)).astype(dtype)
    if dtype is complex:
        a = a + 1j * rng.standard_normal((6, 6))
    s, bound = schur_complement(a, k)
    assert s.shape == (k, k) and s.dtype == a.dtype
    if k:
        assert np.linalg.inv(s) == pytest.approx(np.linalg.inv(a)[6 - k:, 6 - k:], abs=1e-12)
    if k == 6:
        assert bound == np.inf
    else:
        exact = 1.0 / np.linalg.norm(np.linalg.inv(a[:6 - k, :6 - k]), 1)
        assert exact * (1.0 - 1e-12) <= bound <= 3.0 * exact


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_schur_complement_raises_a_numerical_error_on_a_singular_or_non_finite_block(bad):
    a = np.eye(4)
    a[1, 1] = bad
    with pytest.raises(NumericalError):
        schur_complement(a, 1)


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


# --- real matrices with conjugate pairs -------------------------------------


def _real_similar(seed, block):
    """S B S^-1 with a real, non-orthogonal S."""
    rng = np.random.default_rng(seed)
    n = block.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q * np.exp(rng.uniform(-1.0, 1.0, n))
    return s @ block @ np.linalg.inv(s)


def _rotation(a, b):
    return np.array([[a, -b], [b, a]])


_PAIR = _rotation(0.6, 0.8)


@pytest.mark.parametrize(
    "block, value, band, want",
    [
        # a defective real Jordan pair at 0.6 +- 0.8i
        (np.block([[_PAIR, np.eye(2)], [np.zeros((2, 2)), _PAIR]]), 0.6 + 0.8j, 1e-4, (2, 1)),
        (np.block([[_PAIR, np.eye(2)], [np.zeros((2, 2)), _PAIR]]), 0.6 - 0.8j, 1e-4, (2, 1)),
        # a semisimple repeated pair
        (scipy.linalg.block_diag(_PAIR, _PAIR, [[-0.3]]), 0.6 + 0.8j, 1e-6, (2, 2)),
        # the partner 1 - 0.05i lies outside the cluster but inside 10 band
        # of it, so counting it into the block would give (2, 2)
        (scipy.linalg.block_diag(_rotation(1.0, 0.05), [[0.5]]), 1.0 + 0.05j, 0.02, (1, 1)),
        # both members of a nearly real pair lie in the cluster
        (scipy.linalg.block_diag(_rotation(1.0, 1e-9), [[0.5]]), 1.0 + 0.0j, 1e-6, (2, 2)),
    ],
)
def test_cluster_multiplicity_of_conjugate_pairs_in_real_matrices(block, value, band, want):
    for seed in range(5):
        a = _real_similar(seed, block)
        assert cluster_multiplicity(a, value, band, 1e4) == want
        assert sorted_schur_multiplicity(a, value, band) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cluster_multiplicities_reject_non_finite_matrices(bad, dtype):
    a = np.eye(3, dtype=dtype)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        SchurForm(a).multiplicities([(1.0 + 0.0j, 1e-6)])

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
    # a plain rank and kernel_basis: the bare relative cutoff
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
            SchurForm(a).multiplicities(clusters, rank_factor)
        return
    assert SchurForm(a).multiplicities(clusters, rank_factor) == want
    assert [cluster_multiplicity(a, v, b, rank_factor) for v, b in clusters] == want


def test_cluster_multiplicities_of_no_cluster_is_empty():
    assert SchurForm(np.eye(3)).multiplicities([]) == []


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_schur_form_eigenvalues_match_eigvals(n, dtype):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    got = SchurForm(a).eigenvalues
    want = np.linalg.eigvals(a)
    assert got.shape == want.shape == (n,)
    if n:
        # Gaussian draws have well separated eigenvalues: match each to the nearest
        gap = np.abs(got[:, None] - want[None, :])
        assert sorted(np.argmin(gap, axis=1)) == list(range(n))
        assert np.max(np.min(gap, axis=1)) <= 1e-12 * np.linalg.norm(a, 2)
