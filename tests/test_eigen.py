"""Tests for the dense and shift-invert Lanczos eigensolvers.

The independent oracle here is matrix inertia: for a Hermitian pencil with
positive definite M, the number of eigenvalues below t equals the number of
negative pivots of the LDL^T factorisation of K - t*M.  That count involves
no eigensolver at all, so it checks both routes from the outside.  The
package's own sparse count, `count_below`, is checked against the dense
Bunch-Kaufman count here.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from bloch_reference import bloch_pencil
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderspec import eigen, fem, graph1d
from ladderspec.bands import first_n_gaps
from ladderspec.eigen import _shifted, count_below, eig_dense, eig_sparse_shift_invert
from ladderspec.fem import DENSE_CUTOFF, _comb_dofs, assemble_p1
from ladderspec.graph1d import EDGE_MARGIN, truncated_half_ladder
from ladderspec.mesh import build_cell_mesh, build_supercell_mesh
from ladderspec.params import LadderParams, SymmetryClass

# first FEM gap (omega) of the eps = 0.2 ladder at h = 0.05, as pinned in test_fem
GAP_EPS02 = (1.442293309513593, 2.237909188561469)


def _oracle_cell(theta, h):
    """Dense complex Hermitian (K, M) of the oracle's symmetric L = 2 cell."""
    open_cell = graph1d._open_cell(2.0, SymmetryClass.SYMMETRIC, h)
    return tuple(graph1d._bloch_tie(A, theta) for A in open_cell)


def _random_pencil(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    K = 0.5 * (B + B.T)
    C = rng.standard_normal((n, n))
    M = C @ C.T + 0.5 * np.eye(n)
    return K, M


def _string_pencil(n):
    """P1 stiffness/mass of a clamped unit string, as sparse matrices."""
    h = 1.0 / (n + 1)
    K = sp.diags(
        [np.full(n - 1, -1.0 / h), np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h)],
        [-1, 0, 1],
        format="csr",
    )
    M = sp.diags(
        [np.full(n - 1, h / 6.0), np.full(n, 4.0 * h / 6.0), np.full(n - 1, h / 6.0)],
        [-1, 0, 1],
        format="csr",
    )
    return K, M


def _count_below(K, M, t):
    """Inertia count of eigenvalues below t via LDL^T pivots."""
    _, d, _ = scipy.linalg.ldl(K - t * M)
    return int(np.count_nonzero(np.linalg.eigvalsh(d) < 0.0))


def test_dense_counts_match_inertia():
    K, M = _random_pencil(40, seed=3)
    vals = eig_dense(K, M).values
    rng = np.random.default_rng(11)
    for t in rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, size=8):
        assert int(np.count_nonzero(vals < t)) == _count_below(K, M, t)


def test_dense_subset():
    K, M = _random_pencil(30, seed=5)
    full = eig_dense(K, M)
    assert full.values.size == 30
    assert np.all(np.diff(full.values) > 0)
    # vectors are M-orthonormal
    G = full.vectors.T @ M @ full.vectors
    assert np.abs(G - np.eye(30)).max() < 1e-8


def test_dense_rejects_indefinite_mass():
    K, M = _random_pencil(12, seed=9)
    M[0, 0] = -abs(M[0, 0])
    with pytest.raises(ValueError, match="positive definite"):
        eig_dense(K, M)


def test_shift_invert_matches_dense_real():
    K, M = _string_pencil(400)
    dense = eig_dense(K, M).values
    sigma = 230.0
    res = eig_sparse_shift_invert(K, M, sigma, 6)
    assert res.converged
    assert res.iterations > 0
    nearest = dense[np.argsort(np.abs(dense - sigma))[:6]]
    assert np.allclose(res.values, np.sort(nearest), rtol=1e-9, atol=1e-9)
    # M-orthonormal vectors and small pencil residuals
    G = res.vectors.T @ (M @ res.vectors)
    assert np.abs(G - np.eye(6)).max() < 1e-8
    assert res.residuals.max() < 1e-5 * scipy.sparse.linalg.norm(K)


def test_shift_invert_matches_dense_complex_hermitian():
    Kd, Md = _oracle_cell(0.7, 0.02)
    dense = eig_dense(Kd, Md).values
    sigma = 0.6 * dense[1] + 0.4 * dense[2]
    res = eig_sparse_shift_invert(sp.csr_matrix(Kd), sp.csr_matrix(Md), sigma, 4)
    assert res.converged
    nearest = np.sort(dense[np.argsort(np.abs(dense - sigma))[:4]])
    assert np.allclose(res.values, nearest, rtol=1e-9, atol=1e-9)
    G = res.vectors.conj().T @ (Md @ res.vectors)
    assert np.abs(G - np.eye(4)).max() < 1e-8


def test_shift_invert_deals_its_start_vector_out_node_for_node():
    # dealt the same draws node for node, a renumbered pencil runs the same
    # Krylov sequence: the same steps and, stopped early, the same Ritz
    # values up to round-off, where another start leaves other errors
    K, M = _string_pencil(400)
    p = np.random.default_rng(1).permutation(400)
    ref = eig_sparse_shift_invert(K, M, 230.0, 6, tol=1e-3)
    got = eig_sparse_shift_invert(
        K[p][:, p], M[p][:, p], 230.0, 6, tol=1e-3, draw_order=np.argsort(p)
    )
    assert got.iterations == ref.iterations
    assert np.allclose(got.values, ref.values, rtol=1e-12, atol=0)


class _CountingCSR(sp.csr_matrix):
    """CSR matrix that counts its `@` products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def test_shift_invert_sparse_products_per_step():
    # one Lanczos step forms two products with M, the new vector's M-norm
    # before and after its Gram-Schmidt pass, when the pass keeps the norm,
    # as on every step here; the start vector's norm and the residuals add
    # one each.  A per-basis-vector M @ w would grow with the step
    K, M = _string_pencil(400)
    M = _CountingCSR(M)
    res = eig_sparse_shift_invert(K, M, 230.0, 6)
    assert res.converged
    assert res.iterations > 10
    assert M.products == 2 * res.iterations + 2


def _m_orthonormal(M, X):
    """The columns of X made M-orthonormal, through a Cholesky factor of
    their M-Gram matrix."""
    C = np.linalg.cholesky(X.T @ (M @ X))
    return np.linalg.solve(C, X.T).T


def test_second_gram_schmidt_pass_runs_only_when_the_first_cancels(monkeypatch):
    # DGKS: a vector with no part in span(V) keeps its M-norm through one
    # pass, two products with M in all.  One that lies in span(V) up to
    # 1e-9 of its norm loses nearly all of it, and the first pass's
    # round-off, some eps of the norm it started from, is then about 2e-6
    # of what is left; the second pass brings that back to round-off
    K, M = _string_pencil(400)
    rng = np.random.default_rng(2)
    V = _m_orthonormal(M, rng.standard_normal((400, 30)))
    outside = rng.standard_normal(400)
    inside = V @ rng.standard_normal(30) + 1e-9 * outside

    def orthogonalised(w):
        counted = _CountingCSR(M)
        w, Mw, b = eigen._orthogonalise(V, counted, w.copy())
        assert np.isclose(b, math.sqrt(w @ (M @ w)), rtol=1e-12, atol=0)
        return np.abs(V.T @ Mw).max() / b, counted.products

    error, products = orthogonalised(outside)
    assert (error <= 1e-14, products) == (True, 2)
    error, products = orthogonalised(inside)
    assert (error <= 1e-14, products) == (True, 3)
    monkeypatch.setattr(eigen, "_DGKS_ETA", 0.0)  # one pass only
    error, products = orthogonalised(inside)
    assert (error > 1e-10, products) == (True, 2)


def _string_eigenvalues(n):
    """Exact spectrum of `_string_pencil(n)`: the discrete sine modes."""
    h = 1.0 / (n + 1)
    c = np.cos(np.arange(1, n + 1) * math.pi * h)
    return 6.0 / h**2 * (1.0 - c) / (2.0 + c)


def test_string_eigenvalues_match_dense():
    K, M = _string_pencil(300)
    exact = _string_eigenvalues(300)
    assert np.allclose(eig_dense(K, M).values, exact, rtol=1e-11, atol=0)


def test_shift_invert_long_run_stays_orthonormal(monkeypatch):
    # k = 20 at an interior shift keeps a basis of about 60 vectors; against
    # the exact sine spectrum, since a dense solve at 3000 dofs takes seconds
    K, M = _string_pencil(3000)
    exact = _string_eigenvalues(3000)
    sigma = 0.5 * (exact[999] + exact[1000])
    nearest = np.sort(exact[np.argsort(np.abs(exact - sigma))[:20]])
    runs = {}
    # no Gram-Schmidt pass of this run cancels (the M-norm keeps more than
    # 0.99999 of itself), so DGKS never repeats one; with the repeat forced
    # on every step, as classical Gram-Schmidt done twice does, the run
    # takes the same steps to the same values
    for eta, per_step in ((eigen._DGKS_ETA, 2), (2.0, 3)):
        monkeypatch.setattr(eigen, "_DGKS_ETA", eta)
        counted = _CountingCSR(M)
        res = eig_sparse_shift_invert(K, counted, sigma, 20)
        assert res.converged
        assert res.iterations >= 40
        assert counted.products == per_step * res.iterations + 2
        assert np.allclose(res.values, nearest, rtol=1e-9, atol=0)
        G = res.vectors.T @ (M @ res.vectors)
        assert np.abs(G - np.eye(20)).max() < 1e-10
        runs[per_step] = res
    assert runs[2].iterations == runs[3].iterations
    assert np.allclose(runs[2].values, runs[3].values, rtol=1e-13, atol=0)


def test_shift_invert_long_run_stays_orthonormal_complex_hermitian():
    # a complex Bloch pencil of 500 dofs, the size of the dense cutoff above
    # which `fem._lowest_eigs` sends such pencils down this path
    Kd, Md = _oracle_cell(0.7, 0.004)
    dense = eig_dense(Kd, Md).values
    sigma = 0.5 * (dense[99] + dense[100])
    res = eig_sparse_shift_invert(sp.csr_matrix(Kd), sp.csr_matrix(Md), sigma, 20)
    assert res.converged
    assert res.iterations >= 40
    nearest = np.sort(dense[np.argsort(np.abs(dense - sigma))[:20]])
    assert np.allclose(res.values, nearest, rtol=1e-9, atol=0)
    G = res.vectors.conj().T @ (Md @ res.vectors)
    assert np.abs(G - np.eye(20)).max() < 1e-10


def test_shift_invert_counts_match_inertia():
    K, M = _string_pencil(200)
    sigma = 500.0
    res = eig_sparse_shift_invert(K, M, sigma, 8)
    lo, hi = res.values[0], res.values[-1]
    expected = _count_below(K.toarray(), M.toarray(), hi + 1e-6) - _count_below(
        K.toarray(), M.toarray(), lo - 1e-6
    )
    # the 8 returned eigenvalues are exactly the pencil spectrum in [lo, hi]
    assert expected == 8


@settings(max_examples=60)
@given(
    seed=st.integers(0, 50),
    n=st.integers(2, 40),
    frac=st.floats(-0.2, 1.2, allow_nan=False),
)
def test_count_below_matches_dense_inertia_random(seed, n, frac):
    K, M = _random_pencil(n, seed)
    vals = eig_dense(K, M).values
    t = vals[0] + frac * (vals[-1] - vals[0])
    # at an eigenvalue the shifted pencil is singular and has no inertia
    assume(np.abs(vals - t).min() > 1e-9 * np.abs(vals).max())
    assert count_below(K, M, t) == _count_below(K, M, t)


@settings(max_examples=40)
@given(n=st.integers(3, 120), t=st.floats(-50.0, 2.0e5, allow_nan=False))
def test_count_below_matches_dense_inertia_string(n, t):
    K, M = _string_pencil(n)
    assert count_below(K, M, t) == _count_below(K.toarray(), M.toarray(), t)


def test_count_below_matches_dense_count_on_complex_bloch_pencil():
    # complex Hermitian Bloch pencil of the thin-ladder cell: SuperLU's
    # diag(U) must still carry the inertia, between every pair of eigenvalues
    for cls in (SymmetryClass.SYMMETRIC, SymmetryClass.ANTISYMMETRIC):
        mesh = build_cell_mesh(LadderParams(2.0, 0.2), cls, 0.05)
        K, M, _ = bloch_pencil(mesh, 0.7)
        assert np.iscomplexobj(K.toarray())
        vals = eig_dense(K, M).values
        for t in np.concatenate([[vals[0] - 1.0], 0.5 * (vals[:20] + vals[1:21])]):
            assert count_below(K, M, t) == int(np.count_nonzero(vals < t))


def test_shift_is_csc_for_every_input():
    # SuperLU takes the shift as it comes: CSC from a CSC pair on one
    # pattern (on the data arrays, with index arrays of its own, which
    # SuperLU may sort in place), from a CSR pair and from dense matrices
    K, M = _string_pencil(50)
    Kc, Mc = K.tocsc(), M.tocsc()
    on_data = _shifted(Kc, Mc, 3.0)
    assert np.array_equal(on_data.indptr, Kc.indptr)
    assert np.array_equal(on_data.indices, Kc.indices)
    assert not np.shares_memory(on_data.indptr, Kc.indptr)
    assert not np.shares_memory(on_data.indices, Kc.indices)
    want = K.toarray() - 3.0 * M.toarray()
    for shift in (on_data, _shifted(K, M, 3.0), _shifted(K.toarray(), M.toarray(), 3.0)):
        assert shift.format == "csc"
        assert np.array_equal(shift.toarray(), want)


def _assert_counts_match_dense(K, M, shifts):
    """At every shift t, count_below on the shared-pattern shift and on the
    sparse-difference fallback both equal the number of negative eigenvalues
    of the dense K - t*M, which t keeps clear of singular."""
    Kd, Md = K.toarray(), M.toarray()
    M_other = M.tocsc() if M.format == "csr" else M.tocsr()
    for t in shifts:
        d = np.linalg.eigvalsh(Kd - t * Md)
        assert np.abs(d).min() > 1e-10 * np.abs(d).max()
        want = int(np.count_nonzero(d < 0.0))
        assert count_below(K, M, t) == want
        assert count_below(K, M_other, t) == want


def test_count_below_matches_dense_inertia_on_supercell_pencil():
    # the supercell K and M share one pattern, so count_below shifts their
    # data; shifts at both ends of the symmetric gate-7-style window (inside
    # the first antisymmetric band) and at 6.0, inside a band of both classes,
    # on the coarsest mesh the builder allows (h = eps/3, about 1k dofs)
    lo, hi = (GAP_EPS02[0] * (1 + 1e-3)) ** 2, (GAP_EPS02[1] * (1 - 1e-3)) ** 2
    for cls in (SymmetryClass.SYMMETRIC, SymmetryClass.ANTISYMMETRIC):
        mesh = build_supercell_mesh(LadderParams(2.0, 0.2, mu=0.25), cls, 4, 0.2 / 3)
        K, M = assemble_p1(mesh, _comb_dofs(mesh))
        A = _shifted(K, M, lo)
        assert A.format == K.format and np.array_equal(A.indices, K.indices)
        _assert_counts_match_dense(K, M, [lo, hi, 6.0])


def test_count_below_matches_dense_inertia_on_oracle_pencil():
    for cls in (SymmetryClass.SYMMETRIC, SymmetryClass.ANTISYMMETRIC):
        gap = first_n_gaps(2.0, cls, 1)[0]
        pad = EDGE_MARGIN * gap.width
        ends = [(gap.omega_b + pad) ** 2, (gap.omega_t - pad) ** 2]
        # h = 2e-2, about 1k dofs: the shifts count 10, 12 and 16 (sym) and
        # 0, 1 and 2 (antisym) eigenvalues below them
        K, M, _ = truncated_half_ladder(2.0, 0.25, cls, 5, h=2e-2)
        _assert_counts_match_dense(K, M, ends + [1.3 * ends[1]])


def test_count_below_leaves_a_shared_unsorted_pattern_alone():
    # K and M permuted alike share one unsorted CSC pattern, so the count
    # shifts their data; SuperLU sorts the shift's indices in place, which
    # must not reach K's: a scrambled K would miscount every later shift
    K, M = graph1d._half_ladder(2.0, [0.125, 1, 1, 1, 1, 1], SymmetryClass.SYMMETRIC, 2e-2)
    p = np.random.default_rng(0).permutation(K.shape[0])
    K, M = K[p][:, p].tocsc(), M[p][:, p].tocsc()
    assert not K.has_sorted_indices
    assert np.array_equal(K.indices, M.indices) and np.array_equal(K.indptr, M.indptr)
    dense = eig_dense(K, M).values
    before = K.copy()
    for t in (2.0, 10.0, 30.0):
        assert count_below(K, M, t) == int(np.count_nonzero(dense < t))
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, a), getattr(before, a))


def _comb_pencils():
    """(name, K, M, sigma) for each sparse builder, shifted into a window
    of its own: supercells of both classes, a Bloch cell above the dense
    cutoff, the oracle's even sector and the truncated half ladder."""
    gap = [first_n_gaps(2.0, cls, 1)[0] for cls in SymmetryClass]
    hi = [graph1d._gap_window(g)[1] for g in gap]
    lo = (GAP_EPS02[0] * (1 + 1e-3)) ** 2
    for cls in SymmetryClass:
        mesh = build_supercell_mesh(LadderParams(2.0, 0.1, mu=0.25), cls, 10, 0.025)
        yield (f"supercell {cls.value}", *assemble_p1(mesh, _comb_dofs(mesh)), lo)
    # the gate-6 cell: its periodic rail closes into a ring, which natural
    # order sweeps with the tied column in tow (1.08 of minimum degree's fill
    # here, up to 1.17 on the L = 1/2 cells)
    mesh = build_cell_mesh(LadderParams(2.0, 0.05), SymmetryClass.SYMMETRIC, 0.0125)
    K, M = fem._BlochSplit(mesh).pencil(0.7)
    assert K.shape[0] > DENSE_CUTOFF
    yield "Bloch cell", K, M, 3.0
    for cls, top in zip(SymmetryClass, hi):
        K, M = graph1d._even_sector(2.0, 0.25, cls, 20, 4e-3)
        yield f"even sector {cls.value}", K, M, top
        K, M, _ = truncated_half_ladder(2.0, 0.25, cls, 20, 4e-3)
        yield f"truncated {cls.value}", K, M, top


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_comb_order_fills_no_more_than_minimum_degree():
    # every factorisation keeps the pencil's own order, so the builders'
    # numbering must do minimum degree's work: listing the rail edges before
    # the rungs (`_draw_order` in test_graph1d) leaves 6.1 times its fill on
    # the even sector
    for name, K, M, sigma in _comb_pencils():
        A = _shifted(K, M, sigma)
        mmd = scipy.sparse.linalg.splu(
            sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            panel_size=1, options=dict(SymmetricMode=True),
        )
        assert _fill(eigen._diagonal_lu(A)) <= 1.1 * _fill(mmd), name


def test_count_below_refuses_off_diagonal_pivots():
    # a zero diagonal forces SuperLU off the diagonal, which voids the count
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(RuntimeError, match="off-diagonal pivots"):
        count_below(K, sp.identity(2, format="csr"), 0.0)


def test_window_filter_counts_discards():
    K, M = _string_pencil(300)
    dense = eig_dense(K, M).values
    sigma = 0.5 * (dense[3] + dense[4])
    window = (dense[3] - 1e-6, dense[5] + 1e-6)
    res = eig_sparse_shift_invert(K, M, sigma, 7, window=window)
    assert res.values.size == 3
    assert res.n_outside_window == 4
    assert np.allclose(res.values, dense[3:6], rtol=1e-9, atol=1e-9)


def test_shift_invert_k_out_of_range():
    K, M = _string_pencil(10)
    with pytest.raises(ValueError):
        eig_sparse_shift_invert(K, M, 5.0, 0)
    with pytest.raises(ValueError):
        eig_sparse_shift_invert(K, M, 5.0, 10)


def test_shift_invert_breakdown_returns_the_pairs_it_has():
    # (I - 0.5 I)^-1 I = 2 I has a one-dimensional Krylov space: Lanczos
    # breaks down after one step with one of the three pairs asked for
    eye = sp.identity(10, format="csr")
    res = eig_sparse_shift_invert(eye, eye, 0.5, 3)
    assert not res.converged
    assert "breakdown" in res.message
    assert np.allclose(res.values, [1.0])


def test_shift_invert_singular_pencil_raises():
    # sigma = 2 is an eigenvalue: K - sigma*M is exactly singular
    K = sp.diags(np.arange(10.0), format="csr")
    with pytest.raises(RuntimeError):
        eig_sparse_shift_invert(K, sp.identity(10, format="csr"), 2.0, 3)
