"""Tests for the brute-force 1-D graph oracle.

The oracle shares no algebra with the closed-form dispersion machinery, so
every agreement here is a genuine two-route check: truncated-ladder defect
eigenvalues against `discrete_eigenvalues`, and quasi-periodic cell bands
against `essential_bands` / `bloch_curves`.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderspec import graph1d
from ladderspec.bands import bloch_curves, essential_bands, first_n_gaps
from ladderspec.dispersion import reflection_root
from ladderspec.eigen import count_below
from ladderspec.graph1d import (
    oracle_band_edges,
    oracle_gap_eigenvalues,
    truncated_half_ladder,
)
from ladderspec.modes import discrete_eigenvalues
from ladderspec.params import SymmetryClass

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC


def _cell(L, cls, theta, h):
    """Dense Hermitian (K, M) of one ladder period, its rail end tied to
    exp(i*theta) times its first vertex."""
    return tuple(graph1d._bloch_tie(X, theta) for X in graph1d._open_cell(L, cls, h))


def test_pencil_structure_and_constant_kernel():
    K, M, vertex_ids = truncated_half_ladder(2.0, 1.0, S, 6, h=0.05)
    # exact symmetry, not just allclose: assembly emits matching triplets
    assert abs(K - K.T).max() == 0.0
    assert abs(M - M.T).max() == 0.0
    # mass form is positive definite
    np.linalg.cholesky(M.toarray())
    # with natural ends and mu=1 the constant sits in the stiffness kernel
    ones = np.ones(K.shape[0])
    assert np.abs(K @ ones).max() <= 1e-8
    assert sorted(vertex_ids) == list(range(-6, 7))
    # antisymmetric class clamps the rung tips: constant no longer in kernel
    Ka, Ma, _ = truncated_half_ladder(2.0, 1.0, A, 6, h=0.05)
    assert np.abs(Ka @ np.ones(Ka.shape[0])).max() > 1.0
    np.linalg.cholesky(Ma.toarray())


def test_defect_weight_touches_only_central_rung():
    h = 0.05
    built = {
        mu: truncated_half_ladder(2.0, mu, S, 5, h=h) for mu in (1.0, 1.5, 2.0)
    }
    vertex_ids = built[1.0][2]
    for idx in (0, 1):  # stiffness, then mass
        d_half = (built[1.5][idx] - built[1.0][idx]).toarray()
        d_full = (built[2.0][idx] - built[1.0][idx]).toarray()
        # both forms are affine in mu with the same mu=1 offset
        assert np.allclose(2.0 * d_half, d_full, rtol=1e-12, atol=1e-12)
        rows = np.unique(d_full.nonzero()[0])
        assert rows.size > 0
        assert vertex_ids[0] in rows
        assert vertex_ids[1] not in rows and vertex_ids[-1] not in rows
        # support is the central rung chain: vertex + interiors + free tip
        assert rows.size <= round(0.5 * 2.0 / h) + 1


def _odd_sector(L, sym_class, n_cells, h):
    """The pencil of `truncated_half_ladder` restricted to functions odd under
    j -> -j, which the oracle does not solve.

    An odd function vanishes on the defect rung and at j = 0: the right half
    with j = 0 clamped, which is `_half_ladder` with n_cells rungs and its
    rung-less image vertex (id n_cells, standing for j = 0) removed.  It does
    not depend on mu.
    """
    K, M = graph1d._half_ladder(L, np.ones(n_cells), sym_class, h, image=True)
    keep = np.delete(np.arange(K.shape[0]), n_cells)
    return K[keep][:, keep], M[keep][:, keep]


def _dense_eigs(K, M):
    return scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)


def test_mirror_sectors_split_the_truncated_spectrum_exactly():
    eps = np.finfo(float).eps
    for cls in (S, A):
        for mu in (0.25, 1.7):
            K, M, _ = truncated_half_ladder(2.0, mu, cls, 6, h=0.05)
            full = _dense_eigs(K, M)
            sectors = [
                graph1d._even_sector(2.0, mu, cls, 6, 0.05),
                _odd_sector(2.0, cls, 6, 0.05),
            ]
            assert sum(Ks.shape[0] for Ks, _ in sectors) == K.shape[0]
            union = np.sort(np.concatenate([_dense_eigs(Ks, Ms) for Ks, Ms in sectors]))
            # dense round-off is relative to the largest eigenvalue: 12 eps
            # measured; a wrong defect weight moves eigenvalues by 1e-2 or more
            assert np.abs(union - full).max() <= 64 * eps * full.max()


def test_odd_sector_is_in_the_spectrum_at_every_defect_weight():
    # the odd sector takes no mu: its eigenvalues belong to the truncated
    # ladder's spectrum at a weakened and at a strengthened defect rung alike
    eps = np.finfo(float).eps
    for cls in (S, A):
        odd = _dense_eigs(*_odd_sector(2.0, cls, 6, 0.05))
        for mu in (0.25, 1.7):
            K, M, _ = truncated_half_ladder(2.0, mu, cls, 6, h=0.05)
            full = _dense_eigs(K, M)
            nearest = np.abs(odd[:, np.newaxis] - full[np.newaxis, :]).min(axis=1)
            assert nearest.max() <= 64 * eps * full.max()


def _edge_by_edge(n_vert, edges, h):
    """Reference P1 pencil built one edge and one element at a time.

    Node ids 0..n_vert-1 are the vertices; each edge (start, end, length,
    weight) then numbers its interior nodes, and end=None also a free tip;
    end=-1 clamps the tip, which gets no dof.
    """
    rows, cols, k_vals, m_vals = [], [], [], []
    n = n_vert
    for start, end, length, weight in edges:
        n_sub = max(1, round(length / h))
        step = length / n_sub
        chain = [start, *range(n, n + n_sub - 1)]
        n += n_sub - 1
        if end is None:
            chain.append(n)
            n += 1
        elif end != -1:
            chain.append(end)
        for e in range(n_sub):
            for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                if e + max(a, b) < len(chain):
                    rows.append(chain[e + a])
                    cols.append(chain[e + b])
                    k_vals.append(weight / step * (1.0 if a == b else -1.0))
                    m_vals.append(weight * step / 6.0 * (2.0 if a == b else 1.0))
    K = sp.coo_matrix((k_vals, (rows, cols)), (n, n)).tocsc()
    M = sp.coo_matrix((m_vals, (rows, cols)), (n, n)).tocsc()
    return K, M


def _draw_order(L, n_rungs, sym_class, h, image=False):
    """The node ids of `_half_ladder` listed vertex by vertex, then rail edge
    by rail edge, then rung by rung from its vertex out: the numbering of
    `_edge_by_edge` when it lists the rail edges before the rungs."""
    rails, rungs = graph1d._chains(L, n_rungs, sym_class, h, image)[:2]
    clamped = sym_class is not S
    return np.concatenate([
        np.arange(n_rungs + image),
        rails[:, 1:-1].ravel(),
        rungs[:, 1 : rungs.shape[1] - clamped].ravel(),
    ])


_PINNED = [(2.0, 0.25, 8e-3), (1.3, 1.7, 1e-2), (2.2714, 0.204, 7e-3)]


def _renumbered(A, L, n_rungs, cls, h, image=False):
    """An `_edge_by_edge` matrix (rail edges listed before the rungs) in the
    comb numbering of `_half_ladder`, canonical CSC."""
    inv = np.argsort(_draw_order(L, n_rungs, cls, h, image))
    out = A.tocsc()[inv][:, inv].tocsc()
    out.sort_indices()
    return out


def test_pencil_is_the_edge_by_edge_build_bit_for_bit():
    # at L = 2.2714, h = 7e-3 the three terms on a rail vertex's diagonal sum
    # inexactly, so the pin also holds the order of the duplicate sums;
    # (2, 0.4, 4e-3, 20) is the benchmark's defect window.  The builder
    # numbers the rungs before the rail edges, tip first
    for cls in (S, A):
        tip = None if cls is S else -1
        for L, mu, h, n_cells in [(*c, 6) for c in _PINNED] + [(2.0, 0.4, 4e-3, 20)]:
            n_vert = 2 * n_cells + 1
            rails = [(j, j + 1, 1.0, 1.0) for j in range(n_vert - 1)]
            rungs = [(j, tip, 0.5 * L, mu if j == n_cells else 1.0) for j in range(n_vert)]
            K, M, vertex_ids = truncated_half_ladder(L, mu, cls, n_cells, h)
            assert vertex_ids == {j: j + n_cells for j in range(-n_cells, n_cells + 1)}
            for got, ref in zip((K, M), _edge_by_edge(n_vert, rails + rungs, h)):
                want = _renumbered(ref, L, n_vert, cls, h)
                assert got.format == want.format == "csc"
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()


def test_cell_is_the_tied_edge_by_edge_build():
    # T keeps every dof of the open cell but its image vertex 1, which it
    # ties to exp(i*theta) times vertex 0.  The sparse triple product rounds
    # |exp(i*theta)|^2 and leaves ~1e-14 imaginary on vertex 0's diagonal
    # (L = 2.2714, h = 7e-3, theta = 0.7); its Hermitian part is the former
    # build of the cell, which the one-vertex tie reproduces exactly
    for cls in (S, A):
        tip = None if cls is S else -1
        for L, _, h in _PINNED:
            open_cell = [
                _renumbered(X, L, 1, cls, h, image=True)
                for X in _edge_by_edge(2, [(0, 1, 1.0, 1.0), (0, tip, 0.5 * L, 1.0)], h)
            ]
            n = open_cell[0].shape[0]
            for theta in (0.0, 0.7, math.pi / 2, math.pi):
                data = [*np.ones(n - 1), np.exp(1j * theta)]
                T = sp.csr_matrix((data, ([0, *range(2, n), 1], [*range(n - 1), 0])))
                for got, X in zip(_cell(L, cls, theta, h), open_cell):
                    assert np.array_equal(got, got.conj().T)
                    want = (T.conj().T @ X @ T).toarray()
                    assert np.array_equal(got, 0.5 * (want + want.conj().T))


def test_invalid_truncation_or_step_raises():
    gap = first_n_gaps(2.0, S, 1)[0]
    with pytest.raises(ValueError, match="at least 5 cells"):
        truncated_half_ladder(2.0, 0.5, S, 4)
    with pytest.raises(ValueError, match="at least 5 cells"):
        oracle_gap_eigenvalues(2.0, 0.5, S, gap, n_cells=4)
    for h in (0.2, 0.0, -0.01):
        with pytest.raises(ValueError, match="mesh step h"):
            truncated_half_ladder(2.0, 0.5, S, 10, h=h)
        with pytest.raises(ValueError, match="mesh step h"):
            oracle_gap_eigenvalues(2.0, 0.5, S, gap, h=h, n_cells=10)
        with pytest.raises(ValueError, match="mesh step h"):
            _cell(2.0, S, 0.3, h)
        with pytest.raises(ValueError, match="mesh step h"):
            oracle_band_edges(2.0, A, 2, h=h)


def test_oracle_matches_closed_form_symmetric():
    gap = first_n_gaps(2.0, S, 1)[0]
    exact = [e.omega for e in discrete_eigenvalues(2.0, 0.25, S, gap)]
    res = oracle_gap_eigenvalues(2.0, 0.25, S, gap, h=4e-3, n_cells=25)
    assert res.converged
    assert res.omegas.size == 2
    assert res.inertia_count == 2
    rel = np.abs(res.omegas - exact) / np.abs(exact)
    assert rel.max() <= 1e-4


def test_oracle_reports_the_run_that_produced_its_eigenvalues():
    # the convergence check adopts the wider truncation's eigenvalues, so the
    # size fields must describe that run, not the n_cells one
    gap = first_n_gaps(2.0, S, 1)[0]
    res = oracle_gap_eigenvalues(2.0, 0.25, S, gap, h=4e-3, n_cells=25)
    assert res.converged
    assert res.n_cells == 33
    K, _ = graph1d._even_sector(2.0, 0.25, S, 33, 4e-3)
    assert res.n_dofs == K.shape[0]
    assert np.array_equal(res.lams, res.history[-1][1])


def test_oracle_without_the_check_does_not_claim_convergence():
    # no wider truncation ran, so nothing agreed: the flag must not read True
    gap = first_n_gaps(2.0, S, 1)[0]
    res = oracle_gap_eigenvalues(2.0, 0.25, S, gap, h=4e-3, n_cells=25, check_convergence=False)
    assert res.converged is False
    assert res.n_cells == 25 and len(res.history) == 1
    assert res.omegas.size == 2


def test_oracle_matches_closed_form_antisymmetric_leading_gap():
    # the antisymmetric spectrum starts with a gap at omega = 0, so the
    # search window reaches the bottom of the spectrum and the inertia count
    # below its lower end is zero
    gap = first_n_gaps(2.0, A, 1)[0]
    assert gap.omega_b == 0.0
    exact = [e.omega for e in discrete_eigenvalues(2.0, 0.25, A, gap)]
    assert len(exact) == 1
    res = oracle_gap_eigenvalues(2.0, 0.25, A, gap, h=4e-3, n_cells=25)
    assert res.converged
    assert res.omegas.size == 1
    assert abs(res.omegas[0] - exact[0]) / exact[0] <= 1e-4


def test_oracle_returns_slowly_decaying_mode_it_counted():
    # the closed-form mode decays with r = -0.984, so at 20 cells it still
    # reaches the truncation ends; it is a defect mode all the same, and the
    # oracle returns every eigenvalue its inertia count finds in the window
    L, mu = 2.2714, 0.204
    gap = first_n_gaps(L, S, 2)[1]
    (exact,) = [e.omega for e in discrete_eigenvalues(L, mu, S, gap)]
    assert abs(reflection_root(exact, L, S)) > 0.98
    res = oracle_gap_eigenvalues(
        L, mu, S, gap, h=8e-3, n_cells=20, check_convergence=False
    )
    assert res.lams.size == res.inertia_count == 1
    assert abs(res.omegas[0] - exact) / exact <= 1e-4


@settings(max_examples=20)
@given(
    L=st.floats(0.5, 6.0),
    cls=st.sampled_from([S, A]),
    mu=st.floats(0.1, 0.9),
)
def test_oracle_agrees_with_closed_form_in_first_gap(L, cls, mu):
    gap = first_n_gaps(L, cls, 1)[0]
    exact = np.array([e.omega for e in discrete_eigenvalues(L, mu, cls, gap)])
    # a mode with |r| near 1 spreads past any affordable truncation
    assume(all(abs(reflection_root(w, L, cls)) <= 0.9 for w in exact))
    res = oracle_gap_eigenvalues(
        L, mu, cls, gap, h=8e-3, n_cells=20, check_convergence=False
    )
    assert res.lams.size == res.inertia_count == exact.size
    assert np.all(np.abs(res.omegas - exact) <= 5e-4 * exact)


def test_oracle_repeats_bit_for_bit():
    # ARPACK's own start vector comes from process-global state that every
    # eigsh call advances; the oracle passes a fixed one instead
    gap = first_n_gaps(2.0, S, 1)[0]

    def once():
        return oracle_gap_eigenvalues(
            2.0, 0.4, S, gap, h=1e-2, n_cells=10, check_convergence=False
        ).lams

    first = once()
    spla.eigsh(sp.diags(np.arange(1.0, 51.0)), k=2, which="LM")
    again = once()
    assert first.size == 2
    assert first.tobytes() == again.tobytes()


def _window_count(K, M, gap):
    """Inertia count of (K, M) in the oracle's window of gap."""
    lo, hi = graph1d._gap_window(gap)
    return count_below(K, M, hi) - (count_below(K, M, lo) if lo > 0.0 else 0)


def _tol0(K, M, gap, seed=0):
    """The eigenvalues of (K, M) in the oracle's window of gap, solved by
    the oracle's own ARPACK call (`graph1d._arpack`: its shift, LU and
    Krylov size) to ARPACK's machine-precision default (tol=0), from the
    oracle's start vector: one standard normal draw per dof, in order, from
    seed 0 unless another seed is given.  The bounds cover ARPACK's early
    stop only, so the reference runs on the same operator."""
    lo, hi = graph1d._gap_window(gap)
    k = _window_count(K, M, gap)
    if k == 0:
        return np.zeros(0)
    v0 = np.random.default_rng(seed).standard_normal(K.shape[0])
    return graph1d._arpack(K, M, 0.5 * (lo + hi), k, v0, 0)


def _tol0_lams(res, L, mu, cls, gap, seed=0):
    """The even-sector pencil the oracle solves, solved by `_tol0` from the
    oracle's start vector (drawn from seed)."""
    K, M = graph1d._even_sector(L, mu, cls, res.n_cells, res.h)
    return np.sort(_tol0(K, M, gap, seed))


def _within_bounds(res, ref):
    slack = 16.0 * np.finfo(float).eps * np.abs(res.lams)
    return np.abs(res.lams - ref) <= res.lam_error_bounds + slack


# (L, mu, class, gap index, h, n_cells): the six benchmark oracle pencils, the
# slowly decaying near-edge mode and the symmetric mu = 0.25 pencil of gate 4
_BOUND_PENCILS = [
    (2.0, mu, cls, 0, 4e-3, 20) for cls in (A, S) for mu in (0.25, 0.4, 0.5)
] + [(2.2714, 0.204, S, 1, 8e-3, 20), (2.0, 0.25, S, 0, 1e-3, 40)]


@pytest.mark.parametrize("L, mu, cls, gap_index, h, n_cells", _BOUND_PENCILS)
def test_oracle_eigenvalues_within_their_bounds_of_a_full_precision_solve(
    L, mu, cls, gap_index, h, n_cells
):
    gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
    res = oracle_gap_eigenvalues(
        L, mu, cls, gap, h=h, n_cells=n_cells, check_convergence=False
    )
    assert res.lams.size == res.inertia_count == res.lam_error_bounds.size >= 1
    assert np.all(_within_bounds(res, _tol0_lams(res, L, mu, cls, gap)))


def test_error_bounds_hold_and_are_tight_at_a_loose_tolerance(monkeypatch):
    # at sqrt(eps) the bounds sit below round-off; at 1e-6 they are ~1e-12,
    # where a bound a hundred times too small fails on the symmetric
    # mu = 0.25 pencil (its error is 0.06 of its bound).  How close an error
    # comes to its bound depends on ARPACK's start vector, drawn for the
    # oracle and its tol=0 reference alike: over these six pencils the worst
    # ratio reads 0.065 for the oracle's seed 0 and 0.001 to 0.37 for seeds
    # 1-6.  So every start vector drawn must keep its bounds, and tightness
    # is asserted on the largest ratio over seeds 0-3
    monkeypatch.setattr(graph1d, "_ARPACK_TOL", 1e-6)
    sector_eigs = graph1d._sector_eigs
    start = {"seed": 0}

    def from_seed(K, M, v0, lam_lo, lam_hi):
        v0 = np.random.default_rng(start["seed"]).standard_normal(K.shape[0])
        return sector_eigs(K, M, v0, lam_lo, lam_hi)

    monkeypatch.setattr(graph1d, "_sector_eigs", from_seed)
    worst = 0.0
    for L, mu, cls, gap_index, h, n_cells in _BOUND_PENCILS[:6]:
        gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
        for seed in range(4):
            start["seed"] = seed
            res = oracle_gap_eigenvalues(
                L, mu, cls, gap, h=h, n_cells=n_cells, check_convergence=False
            )
            ref = _tol0_lams(res, L, mu, cls, gap, seed)
            assert np.all(_within_bounds(res, ref)), seed
            worst = max(worst, (np.abs(res.lams - ref) / res.lam_error_bounds).max())
    assert worst > 0.01


@pytest.mark.parametrize("L, mu, cls, gap_index, h, n_cells", _BOUND_PENCILS[:6])
def test_folded_oracle_matches_a_full_precision_solve_of_the_full_pencil(
    L, mu, cls, gap_index, h, n_cells
):
    # only the even sector is solved; the odd one holds nothing in these
    # windows (test_odd_sector_holds_nothing_in_the_bound_pencils_windows),
    # so the values differ from the full pencil's by round-off only: at most
    # 1.3e-12 relative here, below these pencils' own floor (Ritz value
    # against Rayleigh quotient, 3.7e-13 to 1.5e-11 relative)
    gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
    res = oracle_gap_eigenvalues(
        L, mu, cls, gap, h=h, n_cells=n_cells, check_convergence=False
    )
    K, M, _ = truncated_half_ladder(L, mu, cls, n_cells, h)
    full = np.sort(_tol0(K, M, gap))
    assert res.n_dofs == graph1d._even_sector(L, mu, cls, n_cells, h)[0].shape[0]
    assert res.lams.size == res.inertia_count == full.size
    assert np.all(np.abs(res.lams - full) <= 5e-12 * full)


def test_benchmark_oracle_calls_solve_only_the_even_sector(monkeypatch):
    # the trapped modes of these pencils are even; the odd sector's inertia
    # count is 0, so ARPACK runs once, on the even sector's half-size pencil
    sizes = []
    real = graph1d.spla.eigsh

    def recorded(K, *args, **kwargs):
        sizes.append(K.shape[0])
        return real(K, *args, **kwargs)

    monkeypatch.setattr(graph1d.spla, "eigsh", recorded)
    for L, mu, cls, gap_index, h, n_cells in _BOUND_PENCILS[:6]:
        gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
        sizes.clear()
        oracle_gap_eigenvalues(
            L, mu, cls, gap, h=h, n_cells=n_cells, check_convergence=False
        )
        K_even, _ = graph1d._even_sector(L, mu, cls, n_cells, h)
        assert sizes == [K_even.shape[0]]


@pytest.mark.parametrize("check_convergence", [False, True])
def test_oracle_factors_each_shift_once_in_comb_order(monkeypatch, check_convergence):
    # every factorisation of an oracle call keeps the pencil's comb order:
    # one per inertia count at a factored window end, and the oracle's own
    # LU at the window centre, which ARPACK takes as its inverse operator,
    # with a Krylov size set from the count, instead of factoring again
    specs, arpack = [], []
    real_splu, real_eigsh = graph1d.spla.splu, graph1d.spla.eigsh

    def splu(A, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return real_splu(A, *args, **kwargs)

    def eigsh(K, *args, **kwargs):
        arpack.append((K.shape[0], kwargs))
        return real_eigsh(K, *args, **kwargs)

    monkeypatch.setattr(graph1d.spla, "splu", splu)
    monkeypatch.setattr(graph1d.spla, "eigsh", eigsh)
    runs = 2 if check_convergence else 1
    # the antisymmetric window starts at lambda = 0, which is not factored
    for cls, n_counts in ((A, 1), (S, 2)):
        gap = first_n_gaps(2.0, cls, 1)[0]
        specs.clear()
        arpack.clear()
        res = oracle_gap_eigenvalues(
            2.0, 0.25, cls, gap, h=4e-3, n_cells=20,
            check_convergence=check_convergence,
        )
        assert res.inertia_count >= 1
        assert specs == ["NATURAL"] * (runs * (n_counts + 1))
        assert len(arpack) == runs
        for n, kwargs in arpack:
            assert isinstance(kwargs["OPinv"], spla.LinearOperator)
            assert kwargs["ncv"] == graph1d._krylov_size(kwargs["k"], n)


@pytest.mark.parametrize("count, n", [(1, 10230), (2, 10230), (12, 81001), (3, 8), (7, 8)])
def test_krylov_size_exceeds_the_count(count, n):
    assert count < graph1d._krylov_size(count, n) <= n


def test_both_ladder_pencils_share_one_pattern():
    # the oracle forms K - sigma*M on the data arrays (`graph1d._arpack`)
    for K, M in (
        truncated_half_ladder(2.0, 0.25, A, 6, h=0.05)[:2],
        graph1d._even_sector(2.0, 0.25, S, 6, 0.05),
    ):
        assert K.format == M.format == "csc"
        assert np.array_equal(K.indptr, M.indptr)
        assert np.array_equal(K.indices, M.indices)


@pytest.mark.parametrize("L, mu, cls, gap_index, h, n_cells", _BOUND_PENCILS)
def test_odd_sector_holds_nothing_in_the_bound_pencils_windows(
    L, mu, cls, gap_index, h, n_cells
):
    # so on these pencils the even sector alone holds every eigenvalue the
    # truncated pencil has in the window
    gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
    assert _window_count(*_odd_sector(L, cls, n_cells, h), gap) == 0


def test_oracle_drops_the_odd_sector_end_state():
    # the truncated ladder holds an odd eigenvalue in this window, at omega
    # 6.471835: a pair of end states, whose even partner at 6.471819 the oracle
    # keeps; the odd sector holds no trapped mode, so it is not returned
    L, mu, h, n_cells = 1.4418, 0.1092, 8e-3, 20
    gap = first_n_gaps(L, S, 4)[3]
    assert _window_count(*_odd_sector(L, S, n_cells, h), gap) == 1
    res = oracle_gap_eigenvalues(
        L, mu, S, gap, h=h, n_cells=n_cells, check_convergence=False
    )
    assert res.lams.size == res.inertia_count == 3
    assert np.allclose(res.omegas, [6.471819, 6.520355, 7.336926], rtol=0, atol=1e-6)
    even = _tol0_lams(res, L, mu, S, gap)
    assert np.all(np.abs(res.lams - even) <= 5e-12 * even)
    exact = [e.omega for e in discrete_eigenvalues(L, mu, S, gap)]
    assert len(exact) == 2
    for w in exact:
        assert np.abs(res.omegas - w).min() <= 2e-4 * w


@settings(max_examples=20)
@given(
    L=st.floats(0.5, 6.0),
    cls=st.sampled_from([S, A]),
    mu=st.floats(0.1, 0.9),
)
def test_oracle_error_bounds_property(L, cls, mu):
    gap = first_n_gaps(L, cls, 1)[0]
    res = oracle_gap_eigenvalues(
        L, mu, cls, gap, h=8e-3, n_cells=20, check_convergence=False
    )
    assert res.lams.size == res.inertia_count == res.lam_error_bounds.size
    assert np.all(np.isfinite(res.lam_error_bounds))
    assert np.all(res.lam_error_bounds > 0.0)
    if res.inertia_count:
        assert np.all(_within_bounds(res, _tol0_lams(res, L, mu, cls, gap)))


def test_window_from_omega_zero_counts_once(monkeypatch):
    # the first antisymmetric gap starts at omega = 0: its window starts at
    # lambda = 0, below which the PSD stiffness has no eigenvalue, so only
    # the upper end is factored
    calls = []
    real = graph1d.count_below
    monkeypatch.setattr(
        graph1d, "count_below", lambda K, M, s: calls.append(s) or real(K, M, s)
    )
    # one count of the even sector at each factored end
    for cls, n_counts in ((A, 1), (S, 2)):
        gap = first_n_gaps(2.0, cls, 1)[0]
        calls.clear()
        oracle_gap_eigenvalues(
            2.0, 0.25, cls, gap, h=1e-2, n_cells=10, check_convergence=False
        )
        assert len(calls) == n_counts
        assert all(s > 0.0 for s in calls)
    assert graph1d._gap_window(first_n_gaps(2.0, A, 1)[0])[0] == 0.0


def test_oracle_empty_without_defect():
    for cls in (S, A):
        gap = first_n_gaps(2.0, cls, 1)[0]
        res = oracle_gap_eigenvalues(
            2.0, 1.0, cls, gap, h=4e-3, n_cells=25, check_convergence=False
        )
        assert res.lams.size == 0
        assert res.inertia_count == 0


def test_oracle_raises_when_solve_misses_counted_modes(monkeypatch):
    # ARPACK answers with one of the counted eigenvalues pushed out of the
    # window: the count mismatch must raise, not shrink the result
    real = graph1d.spla.eigsh

    def moves_one(*args, **kwargs):
        vals = real(*args, **kwargs).copy()  # the oracle asks for values only
        vals[-1] = 1e6
        return vals

    monkeypatch.setattr(graph1d.spla, "eigsh", moves_one)
    gap = first_n_gaps(2.0, S, 1)[0]
    with pytest.raises(RuntimeError, match="inertia counts 2"):
        oracle_gap_eigenvalues(
            2.0, 0.25, S, gap, h=8e-3, n_cells=12, check_convergence=False
        )


def test_truncation_shift_bounded_by_decay_rate():
    gap = first_n_gaps(2.0, S, 1)[0]
    kw = dict(h=8e-3, check_convergence=False)
    narrow = oracle_gap_eigenvalues(2.0, 0.25, S, gap, n_cells=12, **kw)
    wide = oracle_gap_eigenvalues(2.0, 0.25, S, gap, n_cells=20, **kw)
    assert narrow.lams.size == wide.lams.size == 2
    r = max(abs(reflection_root(w, 2.0, S)) for w in narrow.omegas)
    assert np.abs(wide.lams - narrow.lams).max() < 10.0 * r ** (2 * 12)


def test_cell_theta0_constant_and_second_order_convergence():
    roots = np.array(bloch_curves(2.0, S, 12.0, [0.0]).roots[0])
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        K, M = _cell(2.0, S, 0.0, h)
        vals = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert abs(vals[0]) < 1e-9  # constant mode
        om = np.sqrt(np.clip(vals, 0.0, None))
        errs.append(np.abs(om[1:4] - roots[1:4]))
    errs = np.array(errs)
    orders = np.concatenate([np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])])
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_cell_matches_dispersion_roots_midband():
    theta = math.pi / 2
    roots = np.array(bloch_curves(2.0, S, 12.0, [theta]).roots[0])
    K, M = _cell(2.0, S, theta, 2.5e-3)
    # quasi-periodic tying makes the pencil genuinely complex yet Hermitian
    assert np.iscomplexobj(K) and np.abs(K.imag).max() > 0.0
    assert np.array_equal(K, K.conj().T)
    assert np.array_equal(M, M.conj().T)
    vals = scipy.linalg.eigh(K, M, eigvals_only=True)
    om = np.sqrt(np.clip(vals, 0.0, None))
    assert np.abs(om[:4] - roots[:4]).max() <= 5e-5


def test_antisymmetric_pi_cell_stays_away_from_zero():
    # antisymmetric Bloch roots exclude omega = 0 at every theta
    K, M = _cell(2.0, A, math.pi, 5e-3)
    vals = scipy.linalg.eigh(K, M, eigvals_only=True)
    assert vals[0] > 1.0


@settings(max_examples=20)
@given(
    L=st.floats(0.3, 6.0),
    cls=st.sampled_from([S, A]),
    h=st.sampled_from([1e-2, 2e-2, 5e-2]),
    thetas=st.lists(
        st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), min_size=12, max_size=12
    ),
)
def test_cell_bands_run_monotone_from_theta_0_to_pi(L, cls, h, thetas):
    # why oracle_band_edges solves only the cells at theta = 0 and pi; a flat
    # band (L = 2 antisym) agrees with its ends only to round-off
    vals = np.array([
        scipy.linalg.eigh(*_cell(L, cls, theta, h), eigvals_only=True, subset_by_index=(0, 3))
        for theta in (0.0, *sorted(thetas), math.pi)
    ])
    tol = 1e-12 * np.abs(vals).max()
    lo, hi = np.minimum(vals[0], vals[-1]), np.maximum(vals[0], vals[-1])
    assert np.all(vals >= lo - tol) and np.all(vals <= hi + tol)
    steps = np.diff(vals, axis=0) * np.sign(vals[-1] - vals[0])
    assert steps.min() >= -tol


def test_band_edges_solve_the_periodic_and_antiperiodic_cells_only(monkeypatch):
    solved = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(
        scipy.linalg, "eigh", lambda K, M, **kw: solved.append((K, M)) or eigh(K, M, **kw)
    )
    edges = oracle_band_edges(2.0, S, 3, h=0.05)
    assert len(solved) == 2
    for pencil, theta in zip(solved, (0.0, math.pi)):
        assert all(map(np.array_equal, pencil, _cell(2.0, S, theta, 0.05)))
    assert len(edges) == 3


def _merge_touching(bands, tol=1e-2):
    merged = [list(bands[0])]
    for lo, hi in bands[1:]:
        if lo - merged[-1][1] <= tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def test_envelope_bands_match_graph_bands():
    # per-index envelopes split graph bands where branches cross (omega = n*pi
    # for L = 2), so merge touching intervals before comparing
    oracle = _merge_touching(oracle_band_edges(2.0, S, 5, h=5e-3))
    graph = essential_bands(2.0, S, 8.0)
    assert len(oracle) == len(graph) == 3
    for (lo, hi), band in zip(oracle, graph):
        assert abs(lo - band.omega_lo) <= 5e-4
        assert abs(hi - band.omega_hi) <= 5e-4


def test_envelope_reproduces_antisymmetric_flat_band():
    oracle = oracle_band_edges(2.0, A, 4, h=5e-3)
    graph = essential_bands(2.0, A, 7.0)
    assert len(oracle) == len(graph) == 4
    for (lo, hi), band in zip(oracle, graph):
        assert abs(lo - band.omega_lo) <= 5e-4
        assert abs(hi - band.omega_hi) <= 5e-4
    # the second band is flat: zero width up to discretisation error
    lo, hi = oracle[1]
    assert hi - lo <= 1e-4
    assert abs(0.5 * (lo + hi) - math.pi) <= 2e-4
