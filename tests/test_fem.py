"""Tests for the 2-D P1 assembly, Bloch bands, trapped modes and pseudo-modes.

Frozen numbers in here are regression pins from converged runs of this same
solver; the independent cross-checks against the limit-graph machinery live
in the convergence studies (graph edges, decay rates, residual exponents).
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from bloch_reference import bloch_pencil
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderspec import fem
from ladderspec.bands import first_n_gaps
from ladderspec.dispersion import reflection_root
from ladderspec.eigen import eig_dense
from ladderspec.fem import (
    assemble_p1,
    fem_bloch_bands,
    localized_modes,
    neumann_rectangle_eigs,
    quasimode_detail,
)
from ladderspec.mesh import build_cell_mesh, build_supercell_mesh, rectangle_mesh
from ladderspec.modes import build_eigenfunction, discrete_eigenvalues
from ladderspec.params import LadderParams, SymmetryClass

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC

# first spectral gap of the eps = 0.2 ladder at h = eps/4 (omega units),
# pinned from a converged run; the eps -> 0 drift toward the graph edges
# (1.2310, 1.9106) is checked by the convergence studies
GAP_EPS02 = (1.442293309513593, 2.237909188561469)
# same-solver first gap at eps = 0.05, h = eps/4
GAP_EPS005 = (1.2777275845440794, 1.9832114552649822)


def _shrunk_window(gap, margin=1e-3):
    return ((gap[0] * (1 + margin)) ** 2, (gap[1] * (1 - margin)) ** 2)


def test_p1_assembly_partition_properties():
    mesh = rectangle_mesh(1.5, 0.7, 6, 4)
    K, M = assemble_p1(mesh)
    assert abs(K - K.T).max() == 0.0
    assert abs(M - M.T).max() == 0.0
    # all-Neumann stiffness annihilates constants; mass sums to the area
    assert np.abs(K @ np.ones(mesh.n_nodes)).max() < 1e-12
    assert abs(M.sum() - 1.5 * 0.7) < 1e-12
    np.linalg.cholesky(M.toarray())


def test_assembly_rejects_a_clockwise_triangle():
    mesh = rectangle_mesh(1.5, 0.7, 6, 4)
    tris = mesh.triangles.copy()
    tris[5] = tris[5, ::-1]
    with pytest.raises(ValueError, match="mesh contains non-positively oriented triangles"):
        assemble_p1(dataclasses.replace(mesh, triangles=tris))


def test_every_pencil_is_built_in_csc(monkeypatch):
    # SuperLU takes CSC, so every pencil of the FEM route is built in it and
    # factored as built
    mesh = build_supercell_mesh(LadderParams(2.0, 0.4, 0.25), A, 4, 0.1)
    K, M = assemble_p1(mesh)
    assert K.format == M.format == "csc"
    assert np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)
    # symmetric, so the CSC arrays are the CSR ones, entry for entry
    for X in (K, M):
        R = X.tocsr()
        assert np.array_equal(X.indptr, R.indptr) and np.array_equal(X.indices, R.indices)
        assert X.data.tobytes() == R.data.tobytes()
    assert [X.format for X in assemble_p1(mesh, fem._comb_dofs(mesh))] == ["csc", "csc"]
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)  # the Lanczos side's pencil
    split = fem._BlochSplit(build_cell_mesh(LadderParams(2.0, 0.4), S, 0.1))
    for theta in (0.0, 0.7):
        assert [X.format for X in split.pencil(theta)] == ["csc", "csc"]


def test_bloch_pencil_real_at_endpoints_complex_inside(monkeypatch):
    # the CSC pencil of the Lanczos side, forced onto this small cell
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    split = fem._BlochSplit(mesh)
    for theta in (0.0, math.pi):
        K, _ = split.pencil(theta)
        assert not np.iscomplexobj(K.toarray())
        assert abs(K - K.T).max() == 0.0
    K, M = split.pencil(0.7)
    assert np.iscomplexobj(K.toarray())
    assert np.abs(K.toarray().imag).max() > 0.0
    assert abs(K - K.conj().T).max() == 0.0
    assert abs(M - M.conj().T).max() == 0.0
    # reduction eliminated exactly the slave column
    assert K.shape[0] == mesh.n_nodes - mesh.right.size
    with pytest.raises(ValueError):
        bloch_pencil(mesh, 4.0)


def _scipy_fold(mesh, free):
    """(A0, A1) of K and of M in the columns `free`, dense, folded from the
    assembled pair by scipy's COO -> CSC sum: a reference built apart from
    the package's fold, which starts from the element entries."""
    col = np.full(mesh.n_nodes, -1)
    col[free] = np.arange(free.size)
    col[mesh.right] = col[mesh.left]
    tied = np.zeros(mesh.n_nodes, dtype=bool)
    tied[mesh.right] = True
    parts = []
    for A in assemble_p1(mesh):
        A = A.tocoo()
        r, c = col[A.row], col[A.col]
        live = (r >= 0) & (c >= 0)
        parts.append(tuple(
            sp.csc_matrix((A.data[k], (r[k], c[k])), shape=(free.size,) * 2).toarray()
            for k in (live & (tied[A.row] == tied[A.col]), live & ~tied[A.row] & tied[A.col])
        ))
    return parts


def test_bloch_split_matches_direct_reduction(monkeypatch):
    # the once-per-mesh split A0 + e^{-i theta} A1 + e^{i theta} A1^T must
    # equal T^H A T, with T tying the right trace to e^{-i theta} times the left
    dense_cutoff = fem.DENSE_CUTOFF
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    for cls in (S, A):
        mesh = build_cell_mesh(LadderParams(2.0, 0.2), cls, 0.05)
        split = fem._BlochSplit(mesh)
        x = np.random.default_rng(3).standard_normal(mesh.n_nodes - mesh.right.size)
        for theta in (0.0, 0.7, math.pi):
            K_ref, M_ref, T = bloch_pencil(mesh, theta, split.free)
            u = T @ x[: T.shape[1]]
            assert np.abs(u[mesh.right] - np.exp(-1j * theta) * u[mesh.left]).max() < 1e-15
            K, M = split.pencil(theta)
            for got, ref in ((K, K_ref), (M, M_ref)):
                ref = ref.toarray()
                assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
                assert abs(got - got.conj().T).max() == 0.0
            if theta != 0.7:
                assert not np.iscomplexobj(K.toarray())
                assert not np.iscomplexobj(M.toarray())
    # the dense side folds the element entries straight into A0 and the q-q
    # block of A1: the scipy fold to round-off, A0 exactly symmetric and
    # K(theta) exactly Hermitian
    monkeypatch.setattr(fem, "DENSE_CUTOFF", dense_cutoff)
    real_reduce = fem._BlochSplit._reduce
    folds = []

    def recording(self, K, M):
        folds.append((K, M))
        return real_reduce(self, K, M)

    monkeypatch.setattr(fem._BlochSplit, "_reduce", recording)
    for cls in (S, A):
        mesh = build_cell_mesh(LadderParams(2.0, 0.2), cls, 0.05)
        split = fem._BlochSplit(mesh)
        assert split.dense
        n, m = split.free.size, split.free.size - split.interface.d.size
        for (A0, A1), (ref0, ref1) in zip(folds.pop(), _scipy_fold(mesh, split.free)):
            assert A0.shape == (n, n) and A1.shape == (m, m)
            assert np.abs(A0 - ref0).max() <= 1e-14 * np.abs(ref0).max()
            # A1 lives on the trailing q-q block alone
            assert not ref1[:, : n - m].any() and not ref1[: n - m].any()
            assert np.abs(A1 - ref1[n - m :, n - m :]).max() <= 1e-14 * np.abs(ref1).max()
            assert np.array_equal(A0, A0.T)
            A1_full = np.zeros_like(A0)
            A1_full[n - m :, n - m :] = A1
            for theta in (0.0, 0.7, math.pi):
                At = fem._tied_at(fem._bloch_phase(theta), A0, A1_full, A1_full.T)
                assert np.array_equal(At, At.conj().T)


def test_bloch_split_never_assembles_a_csc_pair(monkeypatch):
    # both sides of the cutoff fold the P1 element entries themselves, in
    # one pass: neither builds the assembled pair and folds it again
    calls = []
    real = fem.assemble_p1
    monkeypatch.setattr(fem, "assemble_p1", lambda *a, **k: calls.append(a) or real(*a, **k))
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    assert fem._BlochSplit(mesh).dense
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    assert not fem._BlochSplit(mesh).dense
    assert calls == []


def test_bloch_theta0_kernel_is_constant():
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    K, M, _ = bloch_pencil(mesh, 0.0)
    res = eig_dense(K, M)
    assert abs(res.values[0]) < 1e-9
    vec = res.vectors[:, 0]
    assert np.abs(vec - vec.mean()).max() < 1e-6 * np.abs(vec.mean())


def test_bloch_tying_rejects_mismatched_boundaries():
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    mesh.right = mesh.right[:-1]
    with pytest.raises(ValueError):
        fem._BlochSplit(mesh)


def test_bloch_bands_frozen_gap_and_table_shape():
    rep = fem_bloch_bands(LadderParams(2.0, 0.2), S, 4, 0.05)
    assert abs(rep.gaps[0]["omega_b"] - GAP_EPS02[0]) < 1e-9
    assert abs(rep.gaps[0]["omega_t"] - GAP_EPS02[1]) < 1e-9
    table = rep.tables["theta_eigenvalues"]
    assert table["columns"] == ["theta", "band", "lambda", "omega"]
    assert len(table["rows"]) == 4 * 17
    # every extreme sits at theta in {0, pi}: one dense solve per grid theta
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    assert rep.diagnostics["n_dofs"] == bloch_pencil(mesh, 0.3)[0].shape[0]
    assert rep.diagnostics["solver"] == "dense"
    assert rep.diagnostics["n_solves"] == 17
    lams = np.array([r[2] for r in table["rows"]])
    assert lams.min() > -1e-10
    # band intervals never invert, and every reported gap is a real opening
    for lo, hi in rep.bands:
        assert lo <= hi
    for gap in rep.gaps:
        assert gap["omega_b"] < gap["omega_t"]
    # thin ladder edges sit within O(eps) of the limit-graph edges
    graph_gap = first_n_gaps(2.0, S, 1)[0]
    assert abs(rep.gaps[0]["omega_b"] - graph_gap.omega_b) < 2.0 * 0.2
    assert abs(rep.gaps[0]["omega_t"] - graph_gap.omega_t) < 2.0 * 0.2


def test_bloch_bands_config_omits_the_mu_it_never_reads():
    # the periodicity cell has a unit rung whatever mu, so the bands are
    # those of mu = 1 and the config does not record mu
    rep = fem_bloch_bands(LadderParams(2.0, 0.2, 0.5), S, 2, 0.05)
    ref = fem_bloch_bands(LadderParams(2.0, 0.2), S, 2, 0.05)
    assert "mu" not in rep.config
    assert rep.config == ref.config and rep.bands == ref.bands


def _synthetic_bands(monkeypatch, lam):
    """Run fem_bloch_bands on the synthetic lambda(theta) -> lam(theta) array.

    The split's solver is replaced by lam itself, so it records which thetas
    it is asked for; returns the report and solved thetas.  The cell is
    antisymmetric: on a symmetric one the sweep sets band 0 at theta = 0 to
    the 0 of the constant mode, whatever lam gives.
    """
    solved = []

    def lowest(self, thetas, nev, **_kw):
        solved.extend(float(t) for t in thetas)
        return np.array([lam(t) for t in thetas], dtype=float)

    monkeypatch.setattr(fem._BlochSplit, "lowest", lowest)
    rep = fem_bloch_bands(LadderParams(2.0, 0.4), A, 2, 0.1)
    return rep, solved


def test_bloch_refinement_finds_interior_extreme(monkeypatch):
    # band 0 has its minimum at theta = 0.9, between two grid points: the
    # grid alone reads lambda(0.98) = 1.0067, refinement must find 1
    rep, solved = _synthetic_bands(
        monkeypatch, lambda t: (1.0 + (t - 0.9) ** 2, 10.0 + math.cos(t))
    )
    assert rep.bands[0][0] ** 2 == pytest.approx(1.0, abs=1e-9)
    best = min(solved, key=lambda t: (t - 0.9) ** 2)
    assert abs(best - 0.9) <= fem.THETA_XATOL
    assert rep.diagnostics["n_solves"] == len(set(solved)) > 17
    # the other three extremes sit at theta in {0, pi} and stay grid values
    assert rep.bands[0][1] ** 2 == pytest.approx(1.0 + (math.pi - 0.9) ** 2, rel=1e-14)
    assert rep.bands[1] == pytest.approx([math.sqrt(9.0), math.sqrt(11.0)], rel=1e-14)


def test_bloch_endpoint_extremes_cost_one_solve_per_grid_point(monkeypatch):
    rep, solved = _synthetic_bands(
        monkeypatch, lambda t: (2.0 - math.cos(t), 5.0 + math.cos(t))
    )
    assert len(solved) == 17
    assert rep.diagnostics["n_solves"] == 17
    assert rep.bands[0] == pytest.approx([1.0, math.sqrt(3.0)], rel=1e-14)
    assert rep.bands[1] == pytest.approx([2.0, math.sqrt(6.0)], rel=1e-14)


@pytest.mark.xfail(strict=True, reason="a band extreme at a grid end is kept unrefined")
def test_gap_edge_clears_a_band_maximum_inside_the_first_grid_step():
    # band 5 of this 85-dof dense cell reads 141.82013610 at theta = 0, a
    # critical point by evenness, but peaks near theta = 0.026, inside the
    # first grid step of pi/16, at 141.82013690; the sweep keeps the grid
    # value, so the gap above the band starts inside the spectrum
    params = LadderParams(1.0, 0.3)
    rep = fem_bloch_bands(params, S, 10, 0.075)
    assert rep.gaps[4]["omega_b"] == rep.bands[5][1]
    split = fem._BlochSplit(build_cell_mesh(params, S, 0.075))
    inside = split.lowest([0.026], 10)[0][5]
    assert rep.gaps[4]["omega_b"] ** 2 >= inside


# (L, class, eps, h) of dense-side Bloch cells: 180, 175 and 230 dofs
DENSE_CELLS = ((2.0, S, 0.2, 0.05), (2.0, A, 0.2, 0.05), (0.5, S, 0.1, 0.025))


def _dense_lowest(mesh, theta, nev):
    """The nev lowest eigenvalues of the CSR Bloch pencil, densified."""
    K, M, _ = bloch_pencil(mesh, theta)
    return eig_dense(K, M).values[:nev]


def test_interface_lowest_values_match_the_dense_csr_pencil():
    thetas = (0.0, 0.7, math.pi)
    for L, cls, eps, h in DENSE_CELLS:
        mesh = build_cell_mesh(LadderParams(L, eps), cls, h)
        split = fem._BlochSplit(mesh)
        assert split.dense
        grid = split.lowest(thetas, 12)  # every theta in one solve
        floor = np.finfo(float).eps * np.abs(split.interface.d).max()

        def width(lam):
            # the bracket a root of `lowest` is certified to
            return np.maximum(fem.INTERFACE_RTOL * np.abs(lam), floor)

        for row, theta in zip(grid, thetas):
            ref = _dense_lowest(mesh, theta, 12)
            assert np.abs(row - ref).max() <= 1e-12 * ref.max()
            # the lowest two alone are the same roots of the same interface:
            # each solve's bracket holds its root, so the two differ by at
            # most both widths (the dense reference's own round-off moves
            # with the BLAS thread count, to 1.2e-12 of ref[1])
            two = split.lowest([theta], 2)[0]
            assert np.all(np.abs(two - row[:2]) <= width(two) + width(row[:2]))
    # every eigenvalue of the 80-dof cell, the last ones above every pole
    mesh = build_cell_mesh(LadderParams(2.0, 0.4), S, 0.1)
    split = fem._BlochSplit(mesh)
    n = split.free.size
    assert n == 80
    for theta in thetas:
        ref = _dense_lowest(mesh, theta, n)
        assert np.abs(split.lowest([theta], n)[0] - ref).max() <= 1e-12 * ref.max()


def test_interface_solves_one_band_alone_for_the_refinement():
    # 80 dofs, nev 12: 49 of its 66 solves refine an interior band extreme
    mesh = build_cell_mesh(LadderParams(2.0, 0.4), S, 0.1)
    split = fem._BlochSplit(mesh)
    thetas = (0.4, 1.9)
    full = split.lowest(thetas, 12)
    for band in (0, 5, 11):
        one = split.lowest(thetas, 12, band=band)
        assert np.isnan(np.delete(one, band, axis=1)).all()
        # the same root to round-off: numpy forms a one-row product by gemv
        # and a batch by gemm, so the iterates may differ in the last bits
        err = np.abs(one[:, band] - full[:, band]).max()
        assert err <= fem.INTERFACE_RTOL * full[:, band].max()
    rep = fem_bloch_bands(LadderParams(2.0, 0.4), S, 12, 0.1)
    sweep = fem._BlochSplit(mesh)
    sweep.lowest(np.linspace(0.0, math.pi, 17), 12)
    refined = rep.diagnostics["n_solves"] - 17
    assert refined > 17
    # each refinement step solves one root, about 6 Schur evaluations
    assert rep.diagnostics["n_schur_evals"] - sweep.interface.evals <= 10 * refined


@functools.cache
def _count_cell(cell):
    L, cls, eps, h = cell
    mesh = build_cell_mesh(LadderParams(L, eps), cls, h)
    return mesh, fem._BlochSplit(mesh)


@settings(max_examples=60, deadline=None)
@given(
    cell=st.sampled_from(DENSE_CELLS),
    theta=st.floats(0.0, math.pi),
    rank=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_interface_count_is_the_dense_pencil_count(cell, theta, rank, data):
    # lam runs over the whole spectrum and between its eigenvalues, kept
    # 1e-8 relative away from every one and from every pole; the index i
    # puts the root's branch of S below 0, on one of its m eigenvalues, or
    # at or above m
    mesh, split = _count_cell(cell)
    interface = split.interface
    d, m = interface.d, interface.Gq.shape[0]
    ref = _dense_lowest(mesh, theta, split.free.size)
    rank *= ref.size - 1
    j = min(int(rank), ref.size - 2)
    lam = ref[j] + (rank - j) * (ref[j + 1] - ref[j])
    scale = 1e-8 * max(abs(lam), ref[1])
    assume(np.abs(lam - ref).min() >= scale and np.abs(lam - d).min() >= scale)
    i = np.searchsorted(d, lam) + data.draw(st.integers(-3, m + 2), label="branch")
    assume(0 <= i < ref.size)
    assert _interface_above(interface, theta, lam, i) == (np.count_nonzero(ref < lam) > i)


def _interface_above(interface, theta, lam, i):
    """Whether the bordered pencil at theta has more than i eigenvalues
    below lam (not a pole), read as `lowest` reads its bracket: from the
    sign of one eigenvalue of its Schur complement."""
    K, M = interface._blocks([fem._bloch_phase(theta)])
    return bool(interface._schur(np.array([float(lam)]), K, M, np.array([i]))[0][0])


def _synthetic_bordered(d, Gq, K, M, K1):
    """A bordered pencil with the given blocks, and the dense eigenvalues of
    the whole pencil at theta = 0.7."""
    pencil = fem._BorderedPencil(d, Gq, (K, K1, K1.T), (M, 0.0 * K1, 0.0 * K1))
    Kt = K + np.exp(-0.7j) * K1 + np.exp(0.7j) * K1.T
    A = np.block([[np.diag(d), Gq.T], [Gq, Kt]])
    B = np.eye(A.shape[0], dtype=complex)
    B[d.size :, d.size :] = M
    return pencil, eig_dense(A, B).values


def test_interface_roots_on_a_pole_and_at_a_double_eigenvalue(monkeypatch):
    rng = np.random.default_rng(5)
    phase = [np.exp(-0.7j)]
    # a zero column of Gq decouples its mode: d_3 is an eigenvalue of the
    # pencil, exactly at a pole of S
    d = np.array([0.4, 1.3, 2.2, 2.9, 4.1, 5.7, 7.5])
    Gq = rng.standard_normal((3, d.size))
    Gq[:, 3] = 0.0
    R = rng.standard_normal((3, 3))
    K, K1 = R @ R.T + 3.0 * np.eye(3), 0.3 * rng.standard_normal((3, 3))
    M = np.eye(3) + 0.1 * (R + R.T)
    pencil, ref = _synthetic_bordered(d, Gq, K, M, K1)
    got = pencil.lowest(phase, ref.size)[0]
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()
    assert np.abs(got - d[3]).min() <= 1e-12 * ref.max()
    # no point is ever evaluated on a pole, where S is undefined
    moved = pencil._admissible(d[[3]], d[[0]], d[[4]])
    assert d[0] < moved[0] < d[4] and moved[0] not in d
    # two interfaces whose secular equations share the root 3 (poles 1, 4
    # and 2, 5), mixed by a rotation: a double eigenvalue off the poles
    d = np.array([1.0, 2.0, 4.0, 5.0])
    g = np.array([[0.8, 0.0, 1.1, 0.0], [0.0, 0.6, 0.0, 1.4]])
    mass = np.array([1.5, 0.7])
    stiff = 3.0 * mass + (g**2 / (d - 3.0)).sum(axis=1)
    U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    pencil, ref = _synthetic_bordered(
        d, U @ g, U @ np.diag(stiff) @ U.T, U @ np.diag(mass) @ U.T, np.zeros((2, 2))
    )
    assert np.sort(np.abs(ref - 3.0))[1] <= 1e-13
    got = pencil.lowest(phase, ref.size)[0]
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()
    assert np.count_nonzero(np.abs(got - 3.0) <= 1e-12 * ref.max()) == 2
    # a root-finder that runs out of steps raises instead of returning
    monkeypatch.setattr(fem, "_INTERFACE_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="not bracketed"):
        pencil.lowest(phase, ref.size)


def test_dense_split_keeps_theta_dependence_on_the_boundary():
    # the per-theta work is sized by the theta-dependent dofs q: the tying
    # masters and their tied neighbours, at most two per left-boundary node
    for L, _, eps, h in DENSE_CELLS:
        for cls in (S, A):
            mesh = build_cell_mesh(LadderParams(L, eps), cls, h)
            split = fem._BlochSplit(mesh)
            assert split.dense
            # the q block trails the p block of the bordered pencil
            assert split.free.size - split.interface.d.size <= 2 * mesh.left.size


def test_dense_split_rejects_indefinite_mass(monkeypatch):
    # the split solves its p-p blocks with eig_dense, which refuses the mass
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    real = fem._p1_elements

    def negated_mass(m):
        K, (m_off, m_diag) = real(m)
        return K, (-m_off, -m_diag)

    monkeypatch.setattr(fem, "_p1_elements", negated_mass)
    with pytest.raises(ValueError, match="mass matrix is not positive definite"):
        fem._BlochSplit(mesh)


def test_dense_bloch_sweep_diagonalises_once_per_cell(monkeypatch):
    # one cell on the dense side: one real generalized solve of the p-p
    # blocks per cell and none of the pencil per theta; each theta costs a
    # Rayleigh-Ritz start (one values-only generalized solve of a
    # (k + m) x (k + m) pair, k = min(nev + m + 4, n_p)) and m x m Schur
    # complements, each one eigenpair, counted in the diagnostics
    cell, ritz, pairs = [], [], []
    real_dense, real_gv, real_pair = fem.eig_dense, fem.lapack.zhegv, fem._eigpair

    def recording(K, M, **kw):
        cell.append((K.shape, K.dtype, M.shape, M.dtype))
        return real_dense(K, M, **kw)

    def recording_gv(a, b, **kw):
        ritz.append((a.shape, b.shape, kw.get("jobz")))
        return real_gv(a, b, **kw)

    def recording_pair(a, k):
        pairs.append(a.shape)
        return real_pair(a, k)

    monkeypatch.setattr(fem, "eig_dense", recording)
    monkeypatch.setattr(fem.lapack, "zhegv", recording_gv)
    monkeypatch.setattr(fem, "_eigpair", recording_pair)
    rep = fem_bloch_bands(LadderParams(2.0, 0.2), S, 2, 0.05)
    assert rep.diagnostics["solver"] == "dense"
    assert rep.diagnostics["n_solves"] == 17
    n = rep.diagnostics["n_dofs"]
    n_p = cell[0][0][0]
    m = n - n_p
    assert 0 < m <= 10
    assert cell == [((n_p, n_p), np.float64, (n_p, n_p), np.float64)]
    k = min(2 + m + 4, n_p)
    assert ritz == [((k + m, k + m), (k + m, k + m), "N")] * 17
    assert set(pairs) == {(m, m)}
    assert rep.diagnostics["n_schur_evals"] == len(pairs) > 17 * 2


def _whitened_ritz_start(interface, K, M, nev):
    """The Rayleigh-Ritz start taken by hand: whiten the interface mass
    M + fold_slope by its eigenvectors, W = U / sqrt(mu), then solve the
    standard Hermitian eigenproblem of the whitened pencil at each phase."""
    d, Gq = interface.d, interface.Gq
    m, k = Gq.shape[0], min(nev + Gq.shape[0] + 4, d.size)
    g = Gq[:, k:]
    fold = (g / d[k:]) @ g.T
    fold_slope = (g / d[k:] ** 2) @ g.T
    start = np.empty((K.shape[0], nev))
    for t, (K_t, M_t) in enumerate(zip(K, M)):
        mu, U = np.linalg.eigh(M_t + fold_slope)
        W = U / np.sqrt(mu)
        C = np.zeros((k + m, k + m), dtype=complex)
        C[np.arange(k), np.arange(k)] = d[:k]
        C[k:, :k] = W.conj().T @ Gq[:, :k]
        C[:k, k:] = C[k:, :k].conj().T
        C[k:, k:] = W.conj().T @ (K_t - fold) @ W
        start[t] = np.linalg.eigvalsh(C)[:nev]
    return start


def test_ritz_start_matches_the_whitened_reference():
    thetas = (0.0, 0.7, 2.3, math.pi)
    for cell in DENSE_CELLS:
        interface = _count_cell(cell)[1].interface
        K, M = interface._blocks([fem._bloch_phase(t) for t in thetas])
        for nev in (2, 12):
            got = interface._ritz_start(K, M, nev)
            ref = _whitened_ritz_start(interface, K, M, nev)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


_BAND_0 = """
import sys
sys.path.insert(0, {src!r})
from ladderspec import fem
from ladderspec.params import LadderParams
for L, eps, h, cutoff in ((0.5, 0.1, 0.025, fem.DENSE_CUTOFF), (2.0, 0.2, 0.05, 0)):
    fem.DENSE_CUTOFF = cutoff  # 0 sends the second cell to the Lanczos side
    rep = fem.fem_bloch_bands(LadderParams(L, eps), "sym", 3, h)
    theta, band, lam, _ = rep.tables["theta_eigenvalues"]["rows"][0]
    print(rep.diagnostics["solver"], rep.bands[0][0], theta, band, lam)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_symmetric_band_0_starts_at_exactly_0(threads):
    # the constant spans the kernel of the tied symmetric stiffness at
    # theta = 0; a solve gives it as round-off that moves with the BLAS
    # thread count, which must be set before numpy loads
    src = str(Path(fem.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _BAND_0.format(src=src)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [r[0] for r in rows] == ["dense", "lanczos"]
    for _, omega, theta, band, lam in rows:
        assert float(omega) == 0.0
        assert (float(theta), int(band), float(lam)) == (0.0, 0, 0.0)


def test_bloch_bands_reject_more_bands_than_the_solver_returns(monkeypatch):
    params = LadderParams(2.0, 0.4)
    # the dense side returns at most n eigenvalues: nev = n runs, n + 1 not
    n = fem_bloch_bands(params, S, 1, 0.1).diagnostics["n_dofs"]
    assert len(fem_bloch_bands(params, S, n, 0.1, n_theta=2).bands) == n
    with pytest.raises(ValueError, match=f"nev={n + 1} .*n_dofs={n}"):
        fem_bloch_bands(params, S, n + 1, 0.1)
    # the Lanczos side at most n - 2, refused before any solve
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(fem, "_lowest_eigs", None)
    with pytest.raises(ValueError, match=f"nev={n - 1} .*n_dofs={n}"):
        fem_bloch_bands(params, S, n - 1, 0.1)


# (params, class, h) of dense-side cells for the forced-Lanczos comparisons:
# the 80-dof cell, and the 380- and 375-dof cells of gates 6 and 7, which
# any cutoff below 375 would send to the Lanczos side
SIDE_CELLS = (
    (LadderParams(2.0, 0.4), S, 0.1),
    (LadderParams(2.0, 0.1), S, 0.025),
    (LadderParams(2.0, 0.1), A, 0.025),
)


def _lambda_edges(rep):
    """Band and gap edges of a `fem_bloch_bands` report, in lambda."""
    gaps = [(g["omega_b"], g["omega_t"]) for g in rep.gaps]
    return np.square(rep.bands), np.square(np.reshape(gaps, (-1, 2)))


def test_sweep_form_solver_and_diagnostics_follow_one_predicate(monkeypatch):
    # the cutoff decides the pencil form, the solver and the reported solver
    # together: forced to the Lanczos side, the sweep hands CSR pencils to
    # the certified Lanczos path, one inertia count per solve, and reports
    # it.  Neither it nor the rectangle self-check reaches eig_dense, which
    # serves the dense side's once-per-cell reduction alone
    dense = [fem_bloch_bands(params, cls, 2, h) for params, cls, h in SIDE_CELLS]
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)

    def failing(*args, **kwargs):
        raise RuntimeError("eig_dense reached")

    monkeypatch.setattr(fem, "eig_dense", failing)
    forms, counts = [], []
    real, real_count = fem._lowest_eigs, fem.count_below

    def recording(K, M, nev, **kw):
        forms.append(sp.issparse(K) and sp.issparse(M))
        return real(K, M, nev, **kw)

    def recording_count(K, M, sigma):
        counts.append(sigma)
        return real_count(K, M, sigma)

    monkeypatch.setattr(fem, "_lowest_eigs", recording)
    monkeypatch.setattr(fem, "count_below", recording_count)
    vals, exact = neumann_rectangle_eigs(1.0, 0.55, 10, 6, 6)
    assert vals.size == exact.size == 6
    assert len(forms) == len(counts) == 1
    for (params, cls, h), ref in zip(SIDE_CELLS, dense):
        forms.clear()
        counts.clear()
        sparse = fem_bloch_bands(params, cls, 2, h)
        assert ref.diagnostics["solver"] == "dense"
        assert sparse.diagnostics["solver"] == "lanczos"
        assert len(forms) == len(counts) == sparse.diagnostics["n_solves"] == 17
        assert all(forms)
        # compared in lambda: omega = sqrt(lambda) magnifies round-off at zero
        for got, want in zip(_lambda_edges(sparse), _lambda_edges(ref)):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_lowest_eigs_refuses_more_values_than_lanczos_returns():
    # a 9-node rectangle: Lanczos returns at most 7 of its eigenvalues, and
    # asking for 8 raises instead of quietly returning 7
    with pytest.raises(ValueError, match="nev=8 .*n_dofs=9"):
        neumann_rectangle_eigs(1.0, 0.55, 2, 2, 8)
    # 7 it returns, its Krylov space grown to the whole 9-dof space
    vals, exact = neumann_rectangle_eigs(1.0, 0.55, 2, 2, 7)
    K, M = assemble_p1(rectangle_mesh(1.0, 0.55, 2, 2))
    assert exact.size == 7
    assert np.allclose(vals, eig_dense(K, M).values[:7], rtol=1e-9, atol=1e-12)


def test_sparse_lowest_eigs_match_dense_and_are_certified(monkeypatch):
    mesh = build_cell_mesh(LadderParams(2.0, 0.05), S, 0.0125)
    K, M, _ = bloch_pencil(mesh, 0.7)
    assert K.shape[0] > fem.DENSE_CUTOFF
    dense = eig_dense(K, M).values[:4]
    assert np.allclose(fem._lowest_eigs(K, M, 4), dense, rtol=1e-9, atol=1e-12)
    # a Lanczos solve that skips the lowest pair leaves an eigenvalue below
    # its largest value uncounted; the inertia count must catch it
    real = fem.eig_sparse_shift_invert

    def skips_lowest(K, M, sigma, k, **kw):
        res = real(K, M, sigma, k + 1, **kw)
        res.values, res.vectors = res.values[1:], res.vectors[:, 1:]
        res.residuals = res.residuals[1:]
        return res

    monkeypatch.setattr(fem, "eig_sparse_shift_invert", skips_lowest)
    with pytest.raises(RuntimeError, match="inertia counts 5"):
        fem._lowest_eigs(K, M, 4)


def _localized_residual_bound(params, sym_class, window, n_cells, h):
    """The largest ||K x - lam M x||_2, x M-normalised, that LOCALIZED_TOL
    allows a mode of `localized_modes` on this supercell.

    Lanczos stops once every Ritz pair (theta, y) of the inverted operator
    S = (K - sigma M)^-1 M, sigma the window centre, has a residual
    r = S y - theta y with ||r||_M <= tol |theta|.  Multiplying by
    (K - sigma M) / theta and putting lam = sigma + 1/theta gives
    K y - lam M y = -(K - sigma M) r / theta, so

        ||K y - lam M y||_2 <= tol ||K - sigma M||_2 max_z ||z||_2 / ||z||_M.

    ||K - sigma M||_2 is at most its largest absolute row sum.  Each
    triangle T adds |T|/12 (1 + delta_ij) to M, whose eigenvalues are
    |T|/12 times 4, 1, 1, so M >= diag(sum of |T|/12 over the triangles at
    node i) and ||z||_M^2 >= min_i (sum_{T at i} |T|/12) ||z||_2^2.
    """
    mesh = build_supercell_mesh(params, sym_class, n_cells, h)
    keep = fem._comb_dofs(mesh)
    K, M = assemble_p1(mesh, keep)
    sigma = 0.5 * (window[0] + window[1])
    node_area = np.bincount(
        mesh.triangles.ravel(), weights=np.repeat(mesh.areas(), 3), minlength=mesh.n_nodes
    )[keep]
    shifted_norm = abs(K - sigma * M).sum(axis=1).max()
    return fem.LOCALIZED_TOL * shifted_norm / math.sqrt(node_area.min() / 12.0)


def test_localized_modes_flagship_example():
    # L=2, eps=0.06, mu=0.25, symmetric class, first gap, 10 cells
    p = LadderParams(2.0, 0.06, mu=0.25)
    bands = fem_bloch_bands(p, S, 2, 0.015, n_theta=7)
    gap = bands.gaps[0]
    window = _shrunk_window((gap["omega_b"], gap["omega_t"]), margin=1e-2)
    # other start vectors meet only the residual bound that LOCALIZED_TOL
    # implies (the 1e-8 below holds for seed 0, not for every seed)
    bound = _localized_residual_bound(p, S, window, 10, 0.015)
    for seed in (1, 2, 3):
        other = localized_modes(p, S, window, 10, 0.015, seed=seed)
        assert other.diagnostics["solver_converged"]
        assert all(row[4] < bound for row in other.tables["modes"]["rows"])
    rep = localized_modes(p, S, window, 10, 0.015)
    rows = rep.tables["modes"]["rows"]
    assert len(rows) >= 1
    assert rep.diagnostics["solver_converged"]
    assert rep.diagnostics["inertia_count"] == len(rows)
    lam_lo, lam_hi = gap["omega_b"] ** 2, gap["omega_t"] ** 2
    for omega, lam, r_hat, centre, residual, n_fit in rows:
        assert lam_lo < lam < lam_hi  # strictly inside the same-eps FEM gap
        assert centre >= 0.9  # mass concentrated in the central 3 cells
        assert 0.0 < r_hat < 1.0
        assert residual < 1e-8
        assert n_fit >= 3
    profiles = rep.tables["mass_profiles"]["rows"]
    assert len(profiles) == len(rows) * 21
    for omega, *_ in rows:
        fr = [row[2] for row in profiles if row[0] == omega]
        assert abs(sum(fr) - 1.0) < 1e-9


def test_localized_modes_frozen_lambdas():
    # supercell eigenvalues in the eps = 0.1 window of the defect benchmark
    # (first FEM gap at 17 thetas, shrunk by 1e-3), pinned from a converged
    # run; a change to the Lanczos loop may move them by round-off only
    p = LadderParams(2.0, 0.1, mu=0.25)
    window = _shrunk_window((1.3282277039514456, 2.061524473894085))
    rep = localized_modes(p, S, window, 10, 0.1 / 4)
    lams = [row[1] for row in rep.tables["modes"]["rows"]]
    assert rep.diagnostics["inertia_count"] == 2
    assert np.allclose(lams, [2.0818039195518208, 3.7660323138951033], rtol=1e-12, atol=0)


def test_localized_window_from_zero_factors_only_its_upper_end(monkeypatch):
    # the supercell stiffness is positive semi-definite, so a window starting
    # at lambda = 0 counts nothing below it and factors only its upper end;
    # the count matches the one factored at a lower end just above 0
    calls = []
    real = fem.count_below
    monkeypatch.setattr(
        fem, "count_below", lambda K, M, s: calls.append(s) or real(K, M, s)
    )
    p, hi = LadderParams(2.0, 0.1, mu=0.25), (0.89 * 0.999) ** 2
    from_zero = localized_modes(p, A, (0.0, hi), 6, 0.025)
    assert calls == [hi]
    calls.clear()
    above_zero = localized_modes(p, A, (1e-6, hi), 6, 0.025)
    assert calls == [1e-6, hi]
    assert from_zero.diagnostics["inertia_count"] == 1
    assert above_zero.diagnostics["inertia_count"] == 1


def test_localized_modes_empty_without_defect():
    rep = localized_modes(
        LadderParams(2.0, 0.2, mu=1.0), S, _shrunk_window(GAP_EPS02), 6, 0.05
    )
    assert rep.eigenvalues == []
    assert rep.tables["modes"]["rows"] == []
    # a zero count runs no Lanczos solve, so none converged
    assert rep.diagnostics["solver_converged"] is False
    assert rep.diagnostics["inertia_count"] == 0


def test_localized_modes_raises_when_solve_misses_counted_modes(monkeypatch):
    # a windowed solve that returns fewer in-window pairs than inertia counts
    # must fail loudly instead of reporting a partial spectrum
    real = fem.eig_sparse_shift_invert

    def drops_one(*args, **kwargs):
        res = real(*args, **kwargs)
        res.values, res.vectors = res.values[:-1], res.vectors[:, :-1]
        res.residuals = res.residuals[:-1]
        return res

    monkeypatch.setattr(fem, "eig_sparse_shift_invert", drops_one)
    with pytest.raises(RuntimeError, match="inertia counts 2"):
        localized_modes(
            LadderParams(2.0, 0.2, mu=0.25), S, _shrunk_window(GAP_EPS02), 6, 0.05
        )


def test_localized_modes_rejects_empty_window():
    with pytest.raises(ValueError):
        localized_modes(LadderParams(2.0, 0.2, mu=0.25), S, (4.0, 2.0), 6, 0.05)


def test_defect_decay_rate_matches_graph_reflection():
    # fitted per-cell decay r_hat^2 against the graph decay r^2, eps = 0.05
    p = LadderParams(2.0, 0.05, mu=0.25)
    rep = localized_modes(p, S, _shrunk_window(GAP_EPS005), 10, 0.0125)
    rows = rep.tables["modes"]["rows"]
    assert len(rows) == 2
    evs = discrete_eigenvalues(2.0, 0.25, S, first_n_gaps(2.0, S, 1)[0])
    for omega, lam, r_hat, *_ in rows:
        ev = min(evs, key=lambda e: abs(e.omega - omega))
        r2 = reflection_root(ev.omega, 2.0, S) ** 2
        assert abs(r_hat**2 - r2) <= 0.2 * r2


def test_antisymmetric_supercell_pencil_is_the_reduction_bit_for_bit():
    # the axis rows and columns are dropped at assembly and the rest come in
    # comb order: the same entries as E^T A E with E the kept columns of the
    # identity in keep order, and one pattern shared by K and M
    mesh = build_supercell_mesh(LadderParams(2.0, 0.2, mu=0.25), A, 4, 0.05)
    keep = fem._comb_dofs(mesh)
    K, M = assemble_p1(mesh, keep)
    assert np.array_equal(np.sort(keep), np.setdiff1d(np.arange(mesh.n_nodes), mesh.axis))
    E = sp.identity(mesh.n_nodes, format="csr")[:, keep]
    for got, full in zip((K, M), assemble_p1(mesh)):
        assert (got != (E.T @ full @ E)).nnz == 0
    assert np.array_equal(K.indptr, M.indptr)
    assert np.array_equal(K.indices, M.indices)


def test_per_cell_mass_totals_match_mass_matrix():
    p = LadderParams(2.0, 0.2, mu=0.25)
    mesh = build_supercell_mesh(p, S, 4, 0.05)
    _, M = assemble_p1(mesh)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((mesh.n_nodes, 3))
    areas = mesh.areas()
    prof = fem._cell_masses(mesh, areas, vals, 4)
    assert prof.shape == (3, 9)
    # per field, the triangle integrals of u^2 added cell by cell in mesh
    # order, as np.add.at does
    cell = np.clip(np.rint(mesh.nodes[mesh.triangles, 0].mean(axis=1)), -4, 4).astype(int) + 4
    for u, row in zip(vals.T, prof):
        v = u[mesh.triangles]
        cross = v[:, 0] * v[:, 1] + v[:, 0] * v[:, 2] + v[:, 1] * v[:, 2]
        ref = np.zeros(9)
        np.add.at(ref, cell, areas / 12.0 * (2.0 * (v * v).sum(axis=1) + 2.0 * cross))
        assert row.tobytes() == ref.tobytes()
        assert np.all(row >= 0.0)
        total = float(u @ (M @ u))
        assert abs(row.sum() - total) < 1e-12 * total


def _interpolate_pseudo_mode_reference(mesh, ef, params):
    """`fem._interpolate_pseudo_mode` column by column: each rung's column
    |x - j| <= w_j eps/2 split into its junction square and its rung, the
    rest strip."""
    L, eps, mu = params.L, params.eps, params.mu
    n_cells = mesh.meta["n_cells"]
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    out = np.empty(mesh.n_nodes)
    in_col = np.zeros(mesh.n_nodes, dtype=bool)
    y_top = -0.5 * L + eps
    t_scale = 1.0 - 2.0 * eps / L
    tol = 1e-12
    sign = 1.0 if ef.ev.sym_class is S else -1.0
    for j in range(-n_cells, n_cells + 1):
        wj = mu if j == 0 else 1.0
        col = np.abs(x - j) <= 0.5 * wj * eps + tol
        junc = col & (y <= y_top + tol)
        rung = col & ~junc
        out[junc] = sign * ef.vertex_value(j)
        out[rung] = ef.vertical_trace(j, y[rung] / t_scale)
        in_col |= col
    strip = ~in_col
    xs = x[strip]
    jf = np.floor(xs).astype(int)
    wl = np.where(jf == 0, mu, 1.0)
    wr = np.where(jf + 1 == 0, mu, 1.0)
    s = (xs - jf - wl * eps / 2.0) / (1.0 - (wl + wr) * eps / 2.0)
    out[strip] = sign * ef.horizontal_trace(jf, s)
    return out


@pytest.mark.parametrize("cls", [S, A])
@pytest.mark.parametrize("mu", [0.25, 0.75])
def test_pseudo_mode_interpolation_matches_the_column_loop(cls, mu):
    ev = discrete_eigenvalues(2.0, mu, cls, first_n_gaps(2.0, cls, 1)[0])[0]
    ef = build_eigenfunction(ev, 2.0)
    for eps in (0.2, 0.05):
        p = LadderParams(2.0, eps, mu)
        mesh = build_supercell_mesh(p, cls, 6, eps / 4)
        got = fem._interpolate_pseudo_mode(mesh, ef, p)
        assert got.tobytes() == _interpolate_pseudo_mode_reference(mesh, ef, p).tobytes()


def test_quasimode_ratios_frozen_and_monotone():
    gap = first_n_gaps(2.0, S, 1)[0]
    ev = discrete_eigenvalues(2.0, 0.25, S, gap)[0]
    d02 = quasimode_detail(LadderParams(2.0, 0.2, mu=0.25), S, ev, 0.05)
    d01 = quasimode_detail(LadderParams(2.0, 0.1, mu=0.25), S, ev, 0.025)
    assert abs(d02["ratio_dual"] - 2.9835455933e-01) < 1e-8
    assert abs(d01["ratio_dual"] - 1.8031110829e-01) < 1e-8
    # the H^1-dual ratio decreases with eps ...
    assert d01["ratio_dual"] < d02["ratio_dual"]
    # ... while the L^2-dual one is dominated by interface layers and does
    # not; both are reported so the study command can show the contrast
    assert d02["ratio_mass"] > d02["ratio_dual"]
    assert d02["lambda"] == ev.omega**2


def test_quasimode_ratios_frozen_antisymmetric():
    # the lower-half sign -1 on junctions and strip, and the sin rung trace;
    # pinned from this solver at eps = 0.2, h = eps/4, ten cells per side
    gap = first_n_gaps(2.0, A, 1)[0]
    ev = discrete_eigenvalues(2.0, 0.25, A, gap)[0]
    d = quasimode_detail(LadderParams(2.0, 0.2, mu=0.25), A, ev, 0.05)
    assert d["n_dofs"] == 3680
    assert abs(d["ratio_dual"] - 1.7406450611e-01) < 1e-8
    assert abs(d["ratio_mass"] - 4.0123412633e00) < 1e-8


def test_quasimode_validates_inputs():
    gap = first_n_gaps(2.0, S, 1)[0]
    ev = discrete_eigenvalues(2.0, 0.25, S, gap)[0]
    with pytest.raises(ValueError):
        quasimode_detail(LadderParams(2.0, 0.2, mu=0.25), A, ev, 0.05)
    with pytest.raises(ValueError):
        quasimode_detail(LadderParams(2.0, 0.2, mu=0.5), S, ev, 0.05)


def test_neumann_rectangle_reference_values():
    vals, exact = neumann_rectangle_eigs(1.0, 0.55, 40, 22, 6)
    assert exact[0] == 0.0
    assert abs(vals[0]) < 1e-9
    rel = np.abs(vals[1:] - exact[1:]) / exact[1:]
    assert rel.max() < 1e-2
