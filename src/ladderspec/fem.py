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

from .eigen import (
    EigenResult,
    count_below,
    eig_dense,
    eig_sparse_shift_invert,
    solve_once,
)
from .mesh import Mesh, build_cell_mesh, build_supercell_mesh, rectangle_mesh
from .modes import build_eigenfunction
from .params import LadderParams, SymmetryClass
from .report import SpectralReport

# Pencils with at most this many dofs go to dense LAPACK, larger ones to the
# inertia-certified shift-invert Lanczos.  One Bloch pencil solve at
# theta = 0.7 (symmetric L = 2 or 1/2 cells, h = eps/4): values-only dense
# `eigh` on the sweep's ndarray pencil vs Lanczos plus inertia count on the
# CSR pencil, one OpenBLAS thread on a 2-core host, median over three runs
# of the medians of 41 interleaved solves (5 at 1580 dofs):
#     80 dofs, nev  2: 1.4 vs 4.4 ms     180 dofs, nev  2: 8.4 vs 6.1 ms
#    230 dofs, nev 12:  15 vs  18 ms     380 dofs, nev  2:  50 vs 7.0 ms
#    380 dofs, nev 12:  49 vs  13 ms     480 dofs, nev 12:  98 vs  17 ms
#    780 dofs, nev  2: 337 vs 9.3 ms    1580 dofs, nev  2: 2.6 s vs 15 ms
# Every `fem bands` pencil up to 230 dofs stays dense; a lower or nev-aware
# cutoff would move band edges by round-off.
DENSE_CUTOFF = 300

#: theta tolerance of the bounded search that sharpens an interior band extreme
THETA_XATOL = 1e-5
#: relative Ritz-bound tolerance of the supercell Lanczos in `localized_modes`
LOCALIZED_TOL = 1e-9


def assemble_p1(mesh: Mesh):
    """Real stiffness/mass pair for continuous P1 on the triangulation."""
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
    # 32-bit indices, as the sparse matrices store them; each form's element
    # matrices live only while that form is converted
    idx = tris.astype(np.intc)
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    n = mesh.n_nodes

    def csr(element_matrices):
        return sp.coo_matrix((element_matrices.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    Ke = b[:, :, None] * b[:, None, :]
    Ke += c[:, :, None] * c[:, None, :]
    Ke /= (4.0 * area)[:, None, None]
    K = csr(Ke)
    del Ke
    M = csr(((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :] * area[:, None, None])
    return K, M


@dataclass
class HermitianPencil:
    """Reduced (K, M) after quasi-periodic tying / Dirichlet elimination.

    In the Bloch sweep K and M are dense ndarrays when the pencil goes to
    dense LAPACK (`_solved_dense`) and CSR matrices when it goes to Lanczos;
    `assemble_bloch_pencil` always returns CSR.  T maps reduced dofs to full
    mesh nodes (u_full = T u_red); only `assemble_bloch_pencil` builds it,
    the sweep leaves it None.  free lists the full-mesh node ids that
    survived as their own dofs, in column order.
    """

    K: np.ndarray | sp.csr_matrix
    M: np.ndarray | sp.csr_matrix
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


class _BlochSplit:
    """Theta-independent parts of the tied pencil on one periodicity cell.

    The tying map is T(theta) = T0 + e^{-i theta} T1: T0 keeps every dof
    that survives as a column, T1 holds only the right-boundary rows, tied
    to their left-boundary masters.  For A = K and A = M the reduced matrix
    T^H A T is therefore A0 + e^{-i theta} A1 + e^{i theta} A1^T with
    A0 = T0^T A T0 + T1^T A T1 and A1 = T0^T A T1, formed once per mesh.

    On the dense side of the cutoff (`dense`, from `_solved_dense` unless
    given) A0 is kept as one real ndarray and A1 as COO triplets, and each
    pencil is a copy of A0 with e^{-i theta} A1 and e^{i theta} A1^T
    scattered in; A1 and A1^T share no entry, so every entry is the same
    float sum as in the CSR pencil.  Otherwise the pencil is that CSR sum.
    """

    def __init__(self, mesh, *, dense=None):
        if mesh.left.size != mesh.right.size:
            raise ValueError("left/right boundary node counts differ")
        n = mesh.n_nodes
        drop = np.zeros(n, dtype=bool)
        drop[mesh.right] = True
        if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
            drop[mesh.axis] = True
        keep = np.nonzero(~drop)[0]
        col_of = -np.ones(n, dtype=int)
        col_of[keep] = np.arange(keep.size)
        masters = col_of[mesh.left]
        if np.any(masters < 0):
            raise ValueError("a tying master node was eliminated")
        shape = (n, keep.size)
        self.T0 = sp.csr_matrix((np.ones(keep.size), (keep, col_of[keep])), shape=shape)
        self.T1 = sp.csr_matrix((np.ones(masters.size), (mesh.right, masters)), shape=shape)
        self.free = keep
        self.dense = _solved_dense(keep.size) if dense is None else dense
        K, M = assemble_p1(mesh)
        self.K_parts = self._parts(K)
        self.M_parts = self._parts(M)

    def _parts(self, A):
        T0, T1 = self.T0, self.T1
        A0 = (T0.T @ A @ T0 + T1.T @ A @ T1).tocsr()
        A1 = (T0.T @ A @ T1).tocsr()
        if self.dense:
            return A0.toarray(), A1.tocoo()
        return A0, A1, A1.T.tocsr()

    def pencil(self, theta):
        """Reduced pencil at Bloch phase theta, exactly Hermitian."""
        phase = _bloch_phase(theta)
        at = _dense_at if self.dense else _sparse_at
        return HermitianPencil(
            at(phase, *self.K_parts),
            at(phase, *self.M_parts),
            None,
            self.free,
            float(theta),
        )


def _sparse_at(phase, A0, A1, A1T):
    # A0 is symmetric and the bracket Hermitian entry by entry, so the sum
    # is exactly Hermitian
    return A0 + (phase * A1 + np.conj(phase) * A1T)


def _dense_at(phase, A0, A1):
    out = A0.astype(np.result_type(A0.dtype, phase))
    out[A1.row, A1.col] += phase * A1.data
    out[A1.col, A1.row] += np.conj(phase) * A1.data
    return out


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

    The class stored in the mesh metadata decides the y = 0 condition: the
    antisymmetric class eliminates the axis nodes (Dirichlet) by keeping the
    other rows and columns, the symmetric class keeps every node.  K and M
    keep the one pattern they are assembled with.
    """
    K, M = assemble_p1(mesh)
    if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
        keep = np.setdiff1d(np.arange(mesh.n_nodes), mesh.axis)
        return K[keep][:, keep], M[keep][:, keep], keep
    return K, M, np.arange(mesh.n_nodes)


def _lowest_eigs(Kr, Mr, nev, *, seed=0):
    """Lowest nev eigenvalues: dense LAPACK up to DENSE_CUTOFF dofs, else a
    shift-invert Lanczos certified by one inertia count above its top value."""
    n = Kr.shape[0]
    nev = min(nev, n)
    if _solved_dense(n):
        return eig_dense(Kr, Mr, subset=(0, nev - 1), vectors=False).values
    res = eig_sparse_shift_invert(Kr, Mr, -1e-2, min(nev, n - 2), seed=seed)
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
            cache[key] = _lowest_eigs(p.K, p.M, nev, seed=seed)
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
    inside it; one shift-invert Lanczos solve at the window centre then asks
    for exactly that many pairs, which are the ones inside, so nothing inside
    can be missed.  A solve that returns a different in-window count raises.
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
    count = count_below(K, M, lam_hi) - count_below(K, M, lam_lo)
    res = EigenResult(np.zeros(0), np.zeros((n, 0)), np.zeros(0))
    if count:
        res = eig_sparse_shift_invert(
            K, M, 0.5 * (lam_lo + lam_hi), count,
            window=(lam_lo, lam_hi), seed=seed, tol=LOCALIZED_TOL,
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
