"""Tests for the 2-D P1 assembly, Bloch bands, trapped modes and pseudo-modes.

Frozen numbers in here are regression pins from converged runs of this same
solver; the independent cross-checks against the limit-graph machinery live
in the convergence studies (graph edges, decay rates, residual exponents).
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from ladderspec import fem
from ladderspec.bands import first_n_gaps
from ladderspec.dispersion import reflection_root
from ladderspec.eigen import eig_dense
from ladderspec.fem import (
    assemble_bloch_pencil,
    assemble_p1,
    fem_bloch_bands,
    localized_modes,
    neumann_rectangle_eigs,
    per_cell_mass,
    quasimode_detail,
)
from ladderspec.mesh import build_cell_mesh, build_supercell_mesh, rectangle_mesh
from ladderspec.modes import discrete_eigenvalues
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


def test_bloch_pencil_real_at_endpoints_complex_inside():
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    for theta in (0.0, math.pi):
        p = assemble_bloch_pencil(mesh, theta)
        assert not np.iscomplexobj(p.K.toarray())
        assert abs(p.K - p.K.T).max() == 0.0
    p = assemble_bloch_pencil(mesh, 0.7)
    assert np.iscomplexobj(p.K.toarray())
    assert np.abs(p.K.toarray().imag).max() > 0.0
    assert abs(p.K - p.K.conj().T).max() == 0.0
    assert abs(p.M - p.M.conj().T).max() == 0.0
    # reduction eliminated exactly the slave column
    assert p.K.shape[0] == mesh.n_nodes - mesh.right.size
    with pytest.raises(ValueError):
        assemble_bloch_pencil(mesh, 4.0)


def test_bloch_split_matches_direct_reduction():
    # the once-per-mesh split A0 + e^{-i theta} A1 + e^{i theta} A1^T must
    # equal T^H A T, with T tying the right trace to e^{-i theta} times the left
    for cls in (S, A):
        mesh = build_cell_mesh(LadderParams(2.0, 0.2), cls, 0.05)
        K, M = assemble_p1(mesh)
        x = np.random.default_rng(3).standard_normal(mesh.n_nodes - mesh.right.size)
        for theta in (0.0, 0.7, math.pi):
            p = assemble_bloch_pencil(mesh, theta)
            u = p.T @ x[: p.T.shape[1]]
            assert np.abs(u[mesh.right] - np.exp(-1j * theta) * u[mesh.left]).max() < 1e-15
            for got, full in ((p.K, K), (p.M, M)):
                ref = (p.T.conj().T @ full @ p.T).toarray()
                assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
                assert abs(got - got.conj().T).max() == 0.0
            if theta != 0.7:
                assert not np.iscomplexobj(p.K.toarray())
                assert not np.iscomplexobj(p.M.toarray())


def test_bloch_theta0_kernel_is_constant():
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    p = assemble_bloch_pencil(mesh, 0.0)
    res = eig_dense(p.K, p.M, subset=(0, 0))
    assert abs(res.values[0]) < 1e-9
    vec = res.vectors[:, 0]
    assert np.abs(vec - vec.mean()).max() < 1e-6 * np.abs(vec.mean())


def test_bloch_tying_rejects_mismatched_boundaries():
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    mesh.right = mesh.right[:-1]
    with pytest.raises(ValueError):
        assemble_bloch_pencil(mesh, 0.3)


def test_bloch_bands_frozen_gap_and_table_shape():
    rep = fem_bloch_bands(LadderParams(2.0, 0.2), S, 4, 0.05)
    assert abs(rep.gaps[0]["omega_b"] - GAP_EPS02[0]) < 1e-9
    assert abs(rep.gaps[0]["omega_t"] - GAP_EPS02[1]) < 1e-9
    table = rep.tables["theta_eigenvalues"]
    assert table["columns"] == ["theta", "band", "lambda", "omega"]
    assert len(table["rows"]) == 4 * 17
    # every extreme sits at theta in {0, pi}: one dense solve per grid theta
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    assert rep.diagnostics["n_dofs"] == assemble_bloch_pencil(mesh, 0.3).K.shape[0]
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


def _synthetic_bands(monkeypatch, lam):
    """Run fem_bloch_bands on the synthetic lambda(theta) -> lam(theta) array.

    The pencil at theta is replaced by theta itself, so the patched solver
    sees which theta it is asked for; returns the report and solved thetas.
    """
    solved = []

    def pencil(self, theta):
        return fem.HermitianPencil(theta, None, None, self.free, theta)

    def lowest(theta, _, nev, **_kw):
        solved.append(float(theta))
        return np.asarray(lam(theta), dtype=float)

    monkeypatch.setattr(fem._BlochSplit, "pencil", pencil)
    monkeypatch.setattr(fem, "_lowest_eigs", lowest)
    rep = fem_bloch_bands(LadderParams(2.0, 0.4), S, 2, 0.1)
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


# (L, class, eps, h) of dense-side Bloch cells: 180, 175 and 230 dofs
DENSE_CELLS = ((2.0, S, 0.2, 0.05), (2.0, A, 0.2, 0.05), (0.5, S, 0.1, 0.025))


def _standard_form(K, M):
    """L^-1 K L^-H for the lower Cholesky factor L of M, densely."""
    L = np.linalg.cholesky(M)
    W = np.linalg.solve(L, K)
    return np.linalg.solve(L, W.conj().T).conj().T


def test_dense_sweep_pencil_is_the_standard_form_of_the_csr_pencil():
    for L, cls, eps, h in DENSE_CELLS:
        mesh = build_cell_mesh(LadderParams(L, eps), cls, h)
        split = fem._BlochSplit(mesh)
        assert split.dense
        for theta in (0.0, 0.7, math.pi):
            p = split.pencil(theta)
            ref = assemble_bloch_pencil(mesh, theta)
            assert p.T is None and p.M is None
            C = p.K
            assert isinstance(C, np.ndarray)
            assert np.array_equal(C, C.conj().T)
            assert np.iscomplexobj(C) == (theta == 0.7)
            # the CSR pencil renumbered in the split's p-then-q order and
            # reduced by the Cholesky factor of its whole mass matrix
            col = {node: i for i, node in enumerate(ref.free)}
            perm = np.array([col[node] for node in p.free])
            Kd = ref.K.toarray()[np.ix_(perm, perm)]
            Md = ref.M.toarray()[np.ix_(perm, perm)]
            want = _standard_form(Kd, Md)
            assert np.abs(C - want).max() <= 1e-12 * np.abs(want).max()
            lams = eig_dense(C, None, subset=(0, 11), vectors=False).values
            ref_lams = eig_dense(Kd, Md, subset=(0, 11), vectors=False).values
            assert np.abs(lams - ref_lams).max() <= 1e-12 * np.abs(ref_lams).max()


def test_dense_split_keeps_theta_dependence_on_the_boundary():
    # the per-theta work is sized by the theta-dependent dofs q: the tying
    # masters and their tied neighbours, at most two per left-boundary node
    for L, _, eps, h in DENSE_CELLS:
        for cls in (S, A):
            mesh = build_cell_mesh(LadderParams(L, eps), cls, h)
            split = fem._BlochSplit(mesh)
            assert split.dense
            # the q block trails the p block of the standard form
            assert split.free.size - split.C_pp.shape[0] <= 2 * mesh.left.size


def test_dense_split_rejects_indefinite_mass(monkeypatch):
    # the split factors the mass matrix itself, and raises as eig_dense does
    mesh = build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    real = fem.assemble_p1

    def negated_mass(m):
        K, M = real(m)
        return K, -M

    monkeypatch.setattr(fem, "assemble_p1", negated_mass)
    with pytest.raises(ValueError, match="mass matrix is not positive definite"):
        fem._BlochSplit(mesh)


def test_values_only_dense_subset_equals_vector_subset_bit_for_bit():
    for L, cls, eps, h in DENSE_CELLS:
        split = fem._BlochSplit(build_cell_mesh(LadderParams(L, eps), cls, h))
        for theta in (0.0, 0.7, math.pi):
            p = split.pencil(theta)
            assert p.M is None
            for subset in ((0, 1), (0, 11)):
                only = eig_dense(p.K, None, subset=subset, vectors=False)
                full = eig_dense(p.K, None, subset=subset)
                assert only.vectors is None and only.residuals is None
                assert np.array_equal(only.values, full.values)


def test_dense_bloch_sweep_solves_values_only_standard_problems(monkeypatch):
    # one cell on the dense side: one values-only standard LAPACK call per
    # grid theta on an ndarray; the theta-independent blocks are built once
    # per cell (one Cholesky factor of the p-p mass block), and each theta
    # factors only the q-q Schur complement
    solves, factored = [], []
    real_eig, real_chol = fem.eig_dense, fem.mass_cholesky

    def recording(K, M, **kw):
        solves.append((K, M, kw))
        return real_eig(K, M, **kw)

    def chol(M):
        factored.append(M.shape[0])
        return real_chol(M)

    monkeypatch.setattr(fem, "eig_dense", recording)
    monkeypatch.setattr(fem, "mass_cholesky", chol)
    rep = fem_bloch_bands(LadderParams(2.0, 0.2), S, 2, 0.05)
    assert rep.diagnostics["solver"] == "dense"
    assert rep.diagnostics["n_solves"] == len(solves) == 17
    for K, M, kw in solves:
        assert isinstance(K, np.ndarray) and M is None
        assert kw["vectors"] is False
    n = rep.diagnostics["n_dofs"]
    m = n - factored[0]
    assert 0 < m <= 10
    assert factored == [n - m] + [m] * 17


def test_sweep_form_solver_and_diagnostics_follow_one_predicate(monkeypatch):
    # the cutoff decides the pencil form, the solver and the reported solver
    # together: forced to the Lanczos side, the sweep hands CSR pencils to
    # the certified Lanczos path and reports it
    params = LadderParams(2.0, 0.4)
    dense = fem_bloch_bands(params, S, 2, 0.1)
    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(fem, "eig_dense", None)
    forms = []
    real = fem._lowest_eigs

    def recording(K, M, nev, **kw):
        forms.append(sp.issparse(K) and sp.issparse(M))
        return real(K, M, nev, **kw)

    monkeypatch.setattr(fem, "_lowest_eigs", recording)
    sparse = fem_bloch_bands(params, S, 2, 0.1)
    assert dense.diagnostics["solver"] == "dense"
    assert sparse.diagnostics["solver"] == "lanczos"
    assert len(forms) == 17 and all(forms)
    # compared in lambda: omega = sqrt(lambda) magnifies round-off at zero
    assert np.allclose(np.square(sparse.bands), np.square(dense.bands), rtol=1e-10, atol=1e-10)


def test_sparse_lowest_eigs_match_dense_and_are_certified(monkeypatch):
    mesh = build_cell_mesh(LadderParams(2.0, 0.1), S, 0.025)
    p = assemble_bloch_pencil(mesh, 0.7)
    assert p.K.shape[0] > fem.DENSE_CUTOFF
    dense = eig_dense(p.K, p.M, subset=(0, 3)).values
    assert np.allclose(fem._lowest_eigs(p.K, p.M, 4), dense, rtol=1e-9, atol=1e-12)
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
        fem._lowest_eigs(p.K, p.M, 4)


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
    K, M, keep = fem._supercell_pencil(mesh)
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
    assert rep.diagnostics["solver_converged"]
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
    K, M, keep = fem._supercell_pencil(mesh)
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
    vals = rng.standard_normal(mesh.n_nodes)
    prof = per_cell_mass(mesh, vals, 4)
    # the triangle integrals added cell by cell in mesh order, as np.add.at does
    areas, cell = fem._triangle_cells(mesh, 4)
    ref = np.zeros(9)
    np.add.at(ref, cell, fem._tri_mass_integrals(mesh.triangles, areas, vals))
    assert prof.tobytes() == ref.tobytes()
    assert prof.shape == (9,)
    assert np.all(prof >= 0.0)
    total = float(vals @ (M @ vals))
    assert abs(prof.sum() - total) < 1e-12 * total


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
