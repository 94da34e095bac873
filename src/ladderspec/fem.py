"""2-D P1 finite elements on the thin ladder: Bloch bands, trapped modes,
and the fattened pseudo-mode residual.

Everything operates on the symmetry-reduced lower half of the ladder, so the
class enters only through the boundary condition on the y = 0 line: natural
(Neumann) for the symmetric family, essential (Dirichlet) for the
antisymmetric one.  The essential spectrum comes from theta-quasi-periodic
pencils on the periodicity cell; the discrete spectrum from Neumann-truncated
supercells around the perturbed rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack, solve_triangular

from .eigen import (
    EigenResult,
    count_below,
    eig_dense,
    eig_sparse_shift_invert,
    mass_cholesky,
    solve_once,
)
from .mesh import Mesh, build_cell_mesh, build_supercell_mesh, rectangle_mesh
from .modes import build_eigenfunction
from .params import LadderParams, SymmetryClass
from .report import SpectralReport

# Pencils with at most this many dofs go to dense LAPACK, larger ones to the
# inertia-certified shift-invert Lanczos.  One Bloch pencil solve at
# theta = 0.7 (symmetric L = 2 or 1/2 cells, h = eps/4): values-only dense
# standard `eigh` on the sweep's ndarray C vs Lanczos plus inertia count on
# the CSR pencil in comb order, pencils formed beforehand, both columns
# measured together, one OpenBLAS thread on a 2-core host, median over three
# runs of the medians of 41 interleaved solves (5 at 1580 dofs):
#     80 dofs, nev  2: 0.68 vs 2.7 ms     80 dofs, nev 12: 0.88 vs 6.8 ms
#    180 dofs, nev  2:  3.2 vs 2.7 ms    180 dofs, nev 12:  3.5 vs 8.8 ms
#    230 dofs, nev  2:  5.7 vs 3.1 ms    230 dofs, nev 12:  7.2 vs  12 ms
#    380 dofs, nev  2:   24 vs 4.1 ms    380 dofs, nev 12:   22 vs 7.7 ms
#    480 dofs, nev 12:   45 vs 8.8 ms    780 dofs, nev  2:  178 vs 5.2 ms
#   1580 dofs, nev  2: 2.9 s vs 9.5 ms
# Forming C at theta costs a further 0.2-0.5 ms.  Every `fem bands` pencil
# up to 230 dofs stays dense; a lower or nev-aware cutoff would move band
# edges by round-off.
DENSE_CUTOFF = 300

#: theta tolerance of the bounded search that sharpens an interior band extreme
THETA_XATOL = 1e-5
#: relative Ritz-bound tolerance of the supercell Lanczos in `localized_modes`
LOCALIZED_TOL = 1e-9


def assemble_p1(mesh: Mesh, dofs=None):
    """Real stiffness/mass pair for continuous P1 on the triangulation.

    dofs lists the mesh node ids that become dofs, in dof order (default:
    every node in id order); the rows and columns of the other nodes are
    dropped, an essential condition on them.  Every entry is summed over its
    triangles in triangle order, whatever the numbering: a diagonal one by
    `bincount`, an off-diagonal one has at most two terms.  So a renumbered
    pencil holds the very entries of the mesh-numbered one.
    """
    pts, tris = mesh.nodes, mesh.triangles
    x = pts[tris, 0]  # (m, 3)
    y = pts[tris, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    if np.any(det <= 0):
        raise ValueError("mesh contains non-positively oriented triangles")
    area = 0.5 * det
    del x, y, det  # b, c and area hold all the geometry the forms need
    # 32-bit dof ids, as the sparse matrices store them; -1 marks a dropped node
    if dofs is None:
        n = mesh.n_nodes
        idx = tris.astype(np.intc)
    else:
        n = len(dofs)
        dof_of = np.full(mesh.n_nodes, -1, dtype=np.intc)
        dof_of[dofs] = np.arange(n, dtype=np.intc)
        idx = dof_of[tris]
    li, lj = np.nonzero(~np.eye(3, dtype=bool))  # the six off-diagonal pairs
    rows, cols = idx[:, li].ravel(), idx[:, lj].ravel()
    off = (rows >= 0) & (cols >= 0)
    on = idx.ravel() >= 0
    diag = np.arange(n, dtype=np.intc)
    rows, cols = np.concatenate([rows[off], diag]), np.concatenate([cols[off], diag])

    def csr(off_values, diag_values):
        # per triangle, the six off-diagonal and the three diagonal entries
        d = np.bincount(idx.ravel()[on], weights=diag_values.ravel()[on], minlength=n)
        vals = np.concatenate([off_values.ravel()[off], d])
        # the summed matrix may keep views of the triplet-sized arrays: the
        # copy holds the entries alone
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr().copy()

    # stiffness (b_i b_j + c_i c_j) / (4 area), mass (1 + delta_ij) area / 12
    four_area = (4.0 * area)[:, None]
    k_off = b[:, li] * b[:, lj]
    k_off += c[:, li] * c[:, lj]
    k_off /= four_area
    k_diag = b * b
    k_diag += c * c
    k_diag /= four_area
    K = csr(k_off, k_diag)
    del k_off, k_diag
    area = area[:, None]
    M = csr(
        np.repeat((1.0 / 12.0) * area, 6, axis=1), np.repeat((2.0 / 12.0) * area, 3, axis=1)
    )
    return K, M


def _comb_order(mesh, nodes):
    """The mesh node ids `nodes` in comb order: the rung nodes (above the
    rail strip) rung by rung, each rung row by row from its tip down, then
    the rail strip column by column in x; rows run in x and columns from the
    top down, the direction of each triangle's diagonal.

    Eliminated in this order, a rung fills a band as wide as one of its rows
    and the rail strip one as wide as one of its columns: on a supercell
    0.92-0.97 times the fill of minimum degree, with no ordering pass.  On a
    periodicity cell the tied rail closes into a ring, which the sweep goes
    round with its first column in tow: 1.08-1.17 times.
    """
    x, y = mesh.nodes[nodes, 0], mesh.nodes[nodes, 1]
    on_rung = y > -0.5 * mesh.meta["L"] + mesh.meta["eps"] + 1e-12
    rung = np.lexsort((x, -y, np.rint(x)))
    rung = rung[on_rung[rung]]
    rail = np.lexsort((-y, x))
    rail = rail[~on_rung[rail]]
    return nodes[np.concatenate([rung, rail])]


@dataclass
class HermitianPencil:
    """Reduced (K, M) after quasi-periodic tying / Dirichlet elimination.

    `assemble_bloch_pencil` returns the CSR pair (K, M) with its tying map T
    (u_full = T u_red), and free lists the full-mesh node ids that survived
    as their own dofs, in column order.  In the Bloch sweep T is None; a
    pencil that goes to Lanczos is that CSR pair, and one that goes to dense
    LAPACK (`_solved_dense`) is the standard form: K is the dense matrix
    C = L^-1 K L^-H of the block Cholesky factor L of M, and M is None.  C
    acts on the coordinates L^H u, whose order free gives.
    """

    K: np.ndarray | sp.csr_matrix
    M: sp.csr_matrix | None
    T: sp.csr_matrix | None
    free: np.ndarray
    theta: float


def _solved_dense(n):
    """True when an n-dof pencil goes to dense LAPACK, False for Lanczos."""
    return n <= DENSE_CUTOFF


def _bloch_phase(theta):
    """e^{-i theta}, snapped to the real 1 and -1 at theta = 0 and pi so
    that those pencils come out exactly real symmetric."""
    if theta == 0.0:
        return 1.0
    if theta == math.pi:
        return -1.0
    return np.exp(-1j * theta)


def _lower_solve(L, B):
    return solve_triangular(L, B, lower=True, check_finite=False)


class _BlochSplit:
    """Theta-independent parts of the tied pencil on one periodicity cell.

    The tying map is T(theta) = T0 + e^{-i theta} T1: T0 keeps every dof
    that survives as a column, T1 holds only the right-boundary rows, tied
    to their left-boundary masters.  For A = K and A = M the reduced matrix
    T^H A T is therefore A0 + e^{-i theta} A1 + e^{i theta} A1^T with
    A0 = T0^T A T0 + T1^T A T1 and A1 = T0^T A T1, formed once per mesh.
    The columns come in comb order (`_comb_order`).  On the Lanczos side of
    the cutoff the pencil is that CSR sum, in those columns (`free`).

    On the dense side (`dense`, from `_solved_dense` unless given) the
    pencil is reduced to standard form by the block Cholesky factor of
    M(theta) (Golub & Van Loan, Matrix Computations, sec. 8.7).  A1 touches
    only a set q of dofs, the tying masters and their tied neighbours; with
    p the other dofs, ordered p then q, every block but the q-q one is real
    and independent of theta.  Once per cell, in real arithmetic:

        L_pp = chol(M_pp),  X = L_pp^-1 M_pq,  Y = L_pp^-1 K_pq,
        C_pp = L_pp^-1 K_pp L_pp^-T,  G = Y^T - X^T C_pp,
        S_q = X^T X,  R_q = X^T C_pp X - X^T Y - Y^T X;

    and at each theta only m = |q| sized work:

        L_qq = chol(M_qq(theta) - S_q),  C_qp = L_qq^-1 G,
        C_qq = L_qq^-1 (K_qq(theta) + R_q) L_qq^-H.

    C(theta) is the matrix LAPACK's generalized solver forms from the whole
    pencil, up to round-off; it is made exactly Hermitian, and it is real at
    theta = 0 and pi.  The dense A0 arrays are dropped once the blocks exist.
    """

    def __init__(self, mesh, *, dense=None):
        if mesh.left.size != mesh.right.size:
            raise ValueError("left/right boundary node counts differ")
        n = mesh.n_nodes
        drop = np.zeros(n, dtype=bool)
        drop[mesh.right] = True
        if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
            drop[mesh.axis] = True
        keep = _comb_order(mesh, np.nonzero(~drop)[0])
        col_of = -np.ones(n, dtype=int)
        col_of[keep] = np.arange(keep.size)
        masters = col_of[mesh.left]
        if np.any(masters < 0):
            raise ValueError("a tying master node was eliminated")
        shape = (n, keep.size)
        self.T0 = sp.csr_matrix((np.ones(keep.size), (keep, col_of[keep])), shape=shape)
        self.T1 = sp.csr_matrix((np.ones(masters.size), (mesh.right, masters)), shape=shape)
        self.dense = _solved_dense(keep.size) if dense is None else dense
        K, M = assemble_p1(mesh)
        K0, K1 = self._parts(K)
        M0, M1 = self._parts(M)
        if self.dense:
            keep = keep[self._reduce(K0, K1, M0, M1)]
        else:
            self.K_parts = (K0, K1, K1.T.tocsr())
            self.M_parts = (M0, M1, M1.T.tocsr())
        self.free = keep
        # the Lanczos start vector is drawn over the free nodes in id order
        self.draw_order = np.argsort(keep)

    def _reduce(self, K0, K1, M0, M1):
        """The once-per-cell blocks of the standard form, from the CSR parts;
        returns the p-then-q column order."""
        # q: the rows and columns of the entries A1 stores
        touched = np.zeros(K0.shape[0], dtype=bool)
        for A1 in (K1, M1):
            touched[np.diff(A1.indptr) > 0] = True
            touched[A1.indices] = True
        q = np.flatnonzero(touched)
        order = np.concatenate([np.flatnonzero(~touched), q])
        n_p = order.size - q.size
        K0, M0 = (A.toarray()[order][:, order] for A in (K0, M0))
        K1, M1 = (A.toarray()[np.ix_(q, q)] for A in (K1, M1))
        L = mass_cholesky(M0[:n_p, :n_p])
        X, Y = _lower_solve(L, M0[:n_p, n_p:]), _lower_solve(L, K0[:n_p, n_p:])
        # L^-1 K_pp L^-T in the lower triangle, as the generalized solver
        # forms it, mirrored into the upper one
        C_pp = lapack.dsygst(K0[:n_p, :n_p], L, lower=1)[0]
        C_pp = np.where(np.tri(n_p, dtype=bool), C_pp, C_pp.T)
        XtY = X.T @ Y
        self.C_pp = C_pp
        self.G = Y.T - X.T @ C_pp
        # the q-q blocks of M(theta) - X^T X and K(theta) + R_q, split as the
        # tied pencil is
        self.M_q = (M0[n_p:, n_p:] - X.T @ X, M1, M1.T)
        self.K_q = (K0[n_p:, n_p:] + X.T @ C_pp @ X - (XtY + XtY.T), K1, K1.T)
        return order

    def _parts(self, A):
        T0, T1 = self.T0, self.T1
        return (T0.T @ A @ T0 + T1.T @ A @ T1).tocsr(), (T0.T @ A @ T1).tocsr()

    def pencil(self, theta):
        """Reduced pencil at Bloch phase theta, exactly Hermitian: the CSR
        pair on the Lanczos side, the standard form (C, None) on the dense
        side."""
        phase = _bloch_phase(theta)
        if not self.dense:
            K = _tied_at(phase, *self.K_parts)
            M = _tied_at(phase, *self.M_parts)
            return HermitianPencil(K, M, None, self.free, float(theta))
        L = mass_cholesky(_tied_at(phase, *self.M_q))
        n_p = self.C_pp.shape[0]
        W = _lower_solve(L, np.concatenate([self.G, _tied_at(phase, *self.K_q)], axis=1))
        C_qp = W[:, :n_p]
        Z = _lower_solve(L, W[:, n_p:].conj().T)
        C_qq = 0.5 * (Z + Z.conj().T)  # exactly Hermitian
        C = np.empty((self.free.size,) * 2, dtype=C_qq.dtype)
        C[:n_p, :n_p] = self.C_pp
        C[n_p:, :n_p] = C_qp
        C[:n_p, n_p:] = C_qp.conj().T
        C[n_p:, n_p:] = C_qq
        return HermitianPencil(C, None, None, self.free, float(theta))


def _tied_at(phase, A0, A1, A1T):
    # A0 + e^{-i theta} A1 + e^{i theta} A1^T, sparse or dense: A0 is
    # symmetric and the bracket Hermitian entry by entry, so the sum is
    # exactly Hermitian
    return A0 + (phase * A1 + np.conj(phase) * A1T)


def assemble_bloch_pencil(mesh, theta):
    """Quasi-periodic CSR pencil, with its tying map T, on a
    periodicity-cell mesh at Bloch phase theta.

    The right boundary trace is e^{-i theta} times the left one; the class
    stored in the mesh metadata decides the y = 0 condition.
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta={theta} outside [0, pi]")
    split = _BlochSplit(mesh, dense=False)
    p = split.pencil(theta)
    p.T = (split.T0 + _bloch_phase(theta) * split.T1).tocsr()
    return p


def _supercell_pencil(mesh):
    """Real supercell (K, M) and the mesh node ids kept as dofs, in order.

    The dofs come in comb order (`_comb_order`).  The class stored in the
    mesh metadata decides the y = 0 condition: the antisymmetric class drops
    the axis nodes (Dirichlet) at assembly, the symmetric class keeps every
    node.  K and M share the one pattern they are assembled with.
    """
    nodes = np.arange(mesh.n_nodes)
    if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
        nodes = np.setdiff1d(nodes, mesh.axis)
    keep = _comb_order(mesh, nodes)
    K, M = assemble_p1(mesh, keep)
    return K, M, keep


def _lowest_eigs(Kr, Mr, nev, *, seed=0, draw_order=None):
    """Lowest nev eigenvalues: dense LAPACK up to DENSE_CUTOFF dofs, else a
    shift-invert Lanczos (seed and draw_order as in `eig_sparse_shift_invert`)
    certified by one inertia count above its top value."""
    n = Kr.shape[0]
    nev = min(nev, n)
    if _solved_dense(n):
        return eig_dense(Kr, Mr, subset=(0, nev - 1), vectors=False).values
    res = eig_sparse_shift_invert(
        Kr, Mr, -1e-2, min(nev, n - 2), seed=seed, draw_order=draw_order
    )
    if not res.converged:
        raise RuntimeError(f"lowest-eigenvalue Lanczos solve failed: {res.message}")
    # the margin sits well above the Lanczos error and the round-off of the
    # inertia count; a next eigenvalue closer than it also reads as a miss
    top = float(res.values[-1])
    count = count_below(Kr, Mr, top + 1e-8 * max(1.0, abs(top)))
    if count != res.values.size:
        raise RuntimeError(
            f"inertia counts {count} eigenvalue(s) up to the Lanczos solve's "
            f"largest value {top!r}, but it returned {res.values.size}"
        )
    return res.values


def fem_bloch_bands(params: LadderParams, sym_class, nev, h, *, n_theta=17, seed=0):
    """First nev Bloch bands of the unperturbed thin ladder.

    Sweeps theta over [0, pi] (the pencil spectrum is even in theta), one
    eigensolve per grid point.  Each band extreme found strictly inside the
    grid is then sharpened by a bounded 1-D minimisation between its two
    neighbours.  An extreme at either grid end is kept as it is: every
    lambda_n(theta) is even about both 0 and pi, so those two points are
    always critical points, and a bounded search, which never evaluates its
    bracket ends, could only walk back toward the grid value.  Bands and gaps
    are reported in omega = sqrt(lambda); the per-theta eigenvalue grid is
    kept as a table.
    """
    sym_class = SymmetryClass.parse(sym_class)
    mesh = build_cell_mesh(params, sym_class, h)
    split = _BlochSplit(mesh)
    cache = {}

    def lam_at(theta):
        key = round(float(theta), 12)
        if key not in cache:
            p = split.pencil(theta)
            cache[key] = _lowest_eigs(
                p.K, p.M, nev, seed=seed, draw_order=split.draw_order
            )
        return cache[key]

    thetas = np.linspace(0.0, math.pi, n_theta)
    grid = np.array([lam_at(t) for t in thetas])

    def _refined_extreme(band, sign):
        """min (sign=+1) or max (sign=-1) of lambda_band(theta)."""
        vals = sign * grid[:, band]
        i0 = int(np.argmin(vals))
        best = vals[i0]
        if 0 < i0 < thetas.size - 1:
            # lazy: scipy.optimize costs ~0.2 s to import, and only an interior extreme needs it
            from scipy.optimize import minimize_scalar

            r = minimize_scalar(
                lambda t: sign * lam_at(t)[band],
                bounds=(thetas[i0 - 1], thetas[i0 + 1]),
                method="bounded",
                options={"xatol": THETA_XATOL},
            )
            best = min(best, r.fun)
        return sign * best

    bands = []
    for bnd in range(grid.shape[1]):
        lam_lo = _refined_extreme(bnd, +1)
        lam_hi = _refined_extreme(bnd, -1)
        bands.append(
            (math.sqrt(max(lam_lo, 0.0)), math.sqrt(max(lam_hi, 0.0)))
        )
    gaps = []
    for (lo0, hi0), (lo1, hi1) in zip(bands[:-1], bands[1:]):
        if lo1 > hi0 * (1 + 1e-12) + 1e-12:
            gaps.append({"omega_b": hi0, "omega_t": lo1})
    report = SpectralReport(
        kind="fem_bloch_bands",
        config={
            "L": params.L,
            "eps": params.eps,
            "mu": params.mu,
            "sym_class": sym_class.value,
            "h": h,
            "nev": nev,
            "n_theta": int(thetas.size),
        },
        bands=[list(b) for b in bands],
        gaps=gaps,
        diagnostics={
            "n_nodes": mesh.n_nodes,
            "n_dofs": int(split.free.size),
            "n_solves": len(cache),
            "solver": "dense" if split.dense else "lanczos",
            "mesh_area": mesh.total_area(),
        },
    )
    rows = [
        (float(t), bnd, float(grid[i, bnd]), math.sqrt(max(float(grid[i, bnd]), 0.0)))
        for i, t in enumerate(thetas)
        for bnd in range(grid.shape[1])
    ]
    report.add_table("theta_eigenvalues", ["theta", "band", "lambda", "omega"], rows)
    return report


def _tri_mass_integrals(tris, areas, values):
    """Per-triangle integral of |u_h|^2 for nodal values (possibly complex)."""
    v = values[tris]
    sq = np.abs(v) ** 2
    cross = (
        v[:, 0] * v[:, 1].conj() + v[:, 0] * v[:, 2].conj() + v[:, 1] * v[:, 2].conj()
    ).real
    return areas / 12.0 * (2.0 * sq.sum(axis=1) + 2.0 * cross)


def _triangle_cells(mesh, n_cells):
    """Triangle areas, and the index j + n_cells of the unit cell j that holds
    each triangle: what every per-cell mass profile on the mesh shares."""
    cx = mesh.nodes[mesh.triangles, 0].mean(axis=1)
    return mesh.areas(), np.clip(np.rint(cx).astype(int), -n_cells, n_cells) + n_cells


def _cell_mass(mesh, areas, cell, values, n_cells):
    return np.bincount(
        cell,
        weights=_tri_mass_integrals(mesh.triangles, areas, values),
        minlength=2 * n_cells + 1,
    )


def per_cell_mass(mesh, values, n_cells):
    """L^2 mass of a nodal field per unit cell j = -n_cells..n_cells."""
    return _cell_mass(mesh, *_triangle_cells(mesh, n_cells), values, n_cells)


def _fit_decay(profile, n_cells):
    """Fit mass_j ~ C r^(2|j|) on interior cells; returns (r_hat, n_points)."""
    js, logs = [], []
    for j in range(-n_cells, n_cells + 1):
        if abs(j) < 1 or abs(j) > n_cells - 2:
            continue
        m = profile[j + n_cells]
        if m > 0:
            js.append(abs(j))
            logs.append(math.log(m))
    if len(js) < 3 or len(set(js)) < 2:
        return math.nan, len(js)
    slope = np.polyfit(js, logs, 1)[0]
    return math.exp(0.5 * slope), len(js)


def localized_modes(
    params: LadderParams,
    sym_class,
    window,
    n_cells,
    h,
    *,
    seed=0,
    dump_prefix=None,
):
    """Trapped modes of the perturbed supercell inside a lambda window.

    window must lie inside a spectral gap of the same-eps periodic problem.
    Sylvester inertia at both window ends counts the supercell eigenvalues
    inside it (a lower end at or below 0 counts none without factorising,
    the stiffness being positive semi-definite); one shift-invert Lanczos
    solve at the window centre then asks for exactly that many pairs, which
    are the ones inside, so nothing inside can be missed.  A solve that
    returns a different in-window count raises.
    Each in-window eigenpair gets a per-cell mass profile, a fitted geometric
    decay rate r_hat, and the share of mass in the central three cells.
    """
    sym_class = SymmetryClass.parse(sym_class)
    lam_lo, lam_hi = float(window[0]), float(window[1])
    if not lam_lo < lam_hi:
        raise ValueError("empty window")
    mesh = build_supercell_mesh(params, sym_class, n_cells, h)
    K, M, keep = _supercell_pencil(mesh)
    n = K.shape[0]
    # K is an assembled P1 stiffness, positive semi-definite: nothing lies
    # below a lower end lam_lo <= 0, so that end needs no factorisation
    below_lo = count_below(K, M, lam_lo) if lam_lo > 0.0 else 0
    count = count_below(K, M, lam_hi) - below_lo
    res = EigenResult(np.zeros(0), np.zeros((n, 0)), np.zeros(0))
    if count:
        res = eig_sparse_shift_invert(
            K, M, 0.5 * (lam_lo + lam_hi), count,
            window=(lam_lo, lam_hi), seed=seed, tol=LOCALIZED_TOL,
            draw_order=np.argsort(keep),
        )
        if res.values.size != count:
            raise RuntimeError(
                f"inertia counts {count} eigenvalue(s) in the window but the "
                f"Lanczos solve found {res.values.size} (converged={res.converged})"
            )
    areas, cell = _triangle_cells(mesh, n_cells)
    report = SpectralReport(
        kind="localized_modes",
        config={
            "L": params.L,
            "eps": params.eps,
            "mu": params.mu,
            "sym_class": sym_class.value,
            "n_cells": n_cells,
            "h": h,
            "window": [lam_lo, lam_hi],
        },
        diagnostics={
            "n_dofs": n,
            "inertia_count": int(count),
            "solver_converged": bool(res.converged),
            "mesh_area": float(areas.sum()),
        },
    )
    mode_rows = []
    profile_rows = []
    for rank, lam in enumerate(res.values.tolist()):
        full = np.zeros(mesh.n_nodes, dtype=res.vectors.dtype)
        full[keep] = res.vectors[:, rank]
        if dump_prefix is not None:
            mesh.save(f"{dump_prefix}{rank}.mesh", values=np.real(full))
        prof = _cell_mass(mesh, areas, cell, full, n_cells)
        total = prof.sum()
        r_hat, n_fit = _fit_decay(prof, n_cells)
        centre = prof[n_cells - 1 : n_cells + 2].sum() / total if total > 0 else 0.0
        omega = math.sqrt(max(lam, 0.0))
        report.eigenvalues.append(omega)
        mode_rows.append(
            (
                omega,
                lam,
                r_hat,
                float(centre),
                float(res.residuals[rank]),
                n_fit,
            )
        )
        for j in range(-n_cells, n_cells + 1):
            profile_rows.append((omega, j, float(prof[j + n_cells] / total)))
    report.add_table(
        "modes",
        ["omega", "lambda", "r_hat", "center_mass_fraction", "residual", "n_fit_cells"],
        mode_rows,
    )
    report.add_table("mass_profiles", ["omega", "cell", "mass_fraction"], profile_rows)
    return report


# -- pseudo-mode ------------------------------------------------------------


def _interpolate_pseudo_mode(mesh, ef, params):
    """Nodal values of the fattened eigenfunction on a supercell mesh.

    Junction squares carry the vertex value, rungs the rescaled vertical
    trace, strip spans the rescaled horizontal trace, exactly in the lower
    half-domain convention (for the antisymmetric class this flips the sign
    of strip and junction values relative to the upper rail; the rung trace
    produces that sign automatically at y = -L/2).  The values come from the
    traces of `ef`; only the geometry is decided here.
    """
    L, eps, mu = params.L, params.eps, params.mu
    n_cells = mesh.meta["n_cells"]
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    out = np.empty(mesh.n_nodes)
    in_col = np.zeros(mesh.n_nodes, dtype=bool)
    y_top = -0.5 * L + eps
    t_scale = 1.0 - 2.0 * eps / L
    tol = 1e-12
    # lower-rail vertex value relative to u_j
    sign = 1.0 if ef.ev.sym_class is SymmetryClass.SYMMETRIC else -1.0
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


def quasimode_detail(params: LadderParams, sym_class, graph_ev, h, *, n_cells=10):
    """Residual diagnostics for the fattened graph eigenfunction.

    Returns both residual ratios for lambda = omega_graph^2 on the supercell
    pencil: 'ratio_dual' measures the residual in the (K+M)^-1 norm (the
    discrete H^1 dual, mesh-stable), 'ratio_mass' in the M^-1 norm
    (the L^2 dual; singular interface layers make it mesh-sensitive).  The
    denominator is the K+M (full H^1) norm of the pseudo-mode in both cases.
    """
    sym_class = SymmetryClass.parse(sym_class)
    if graph_ev.sym_class is not sym_class:
        raise ValueError("eigenvalue belongs to the other symmetry class")
    if abs(graph_ev.mu - params.mu) > 1e-12:
        raise ValueError("params.mu must match the eigenvalue's mu")
    ef = build_eigenfunction(graph_ev, params.L)
    mesh = build_supercell_mesh(params, sym_class, n_cells, h)
    values = _interpolate_pseudo_mode(mesh, ef, params)
    K, M, keep = _supercell_pencil(mesh)
    vec = values[keep]
    lam = graph_ev.omega**2
    resid = K @ vec - lam * (M @ vec)
    num_dual = math.sqrt(max(float(resid @ solve_once(K + M, resid)), 0.0))
    num_mass = math.sqrt(max(float(resid @ solve_once(M, resid)), 0.0))
    den = math.sqrt(float(vec @ (K @ vec) + vec @ (M @ vec)))
    return {
        "lambda": lam,
        "omega": graph_ev.omega,
        "ratio_dual": num_dual / den,
        "ratio_mass": num_mass / den,
        "h1_norm": den,
        "n_dofs": K.shape[0],
        "n_cells": n_cells,
        "h": h,
    }


def neumann_rectangle_eigs(a, b, nx, ny, nev):
    """Lowest Neumann eigenvalues of (0,a)x(0,b): computed vs exact.

    The exact values are pi^2 (m^2/a^2 + n^2/b^2) over integer pairs; used as
    the self-check of the assembly + solver chain on a geometry with a known
    closed form.
    """
    mesh = rectangle_mesh(a, b, nx, ny)
    K, M = assemble_p1(mesh)
    vals = _lowest_eigs(K, M, nev)
    exact = sorted(
        math.pi**2 * (m * m / (a * a) + n * n / (b * b))
        for m in range(12)
        for n in range(12)
    )[:nev]
    return np.asarray(vals), np.asarray(exact)
