"""Brute-force variational solver on the half-ladder metric graph.

This is the slow, assumption-free cross-check for the closed-form machinery:
piecewise-linear finite elements on every edge of the (symmetry-reduced)
graph, with the defect rung carrying measure weight mu in both the stiffness
and the mass form.  Two geometries are provided:

* a truncated ladder with Dirichlet far ends, for defect eigenvalues in gaps;
* a single quasi-periodic cell, for band edges of the unperturbed ladder.

Nothing here reuses the transfer-matrix algebra, so agreement with
`modes.discrete_eigenvalues` / `bands.essential_bands` is a genuine
two-route consistency check.  The only import from the FEM side is
`eigen.count_below`, an inertia count that computes no eigenvalue; the
spectrum itself comes from ARPACK, not from the FEM route's Lanczos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .eigen import count_below
from .params import SymmetryClass

DEFAULT_H = 1e-3
#: relative change under which the oracle counts as converged in the truncation
ORACLE_REL_TOL = 1e-6
#: margin, relative to the gap width, by which the oracle shrinks its gap window
EDGE_MARGIN = 1e-6


def _edge_matrices(n_sub, length, weight):
    """COO triplets of the P1 stiffness/mass pair on one subdivided edge.

    Local node numbering is 0..n_sub along the edge; the caller remaps to
    global indices.
    """
    h = length / n_sub
    a = np.arange(n_sub)
    rows = np.concatenate([a, a, a + 1, a + 1])
    cols = np.concatenate([a, a + 1, a, a + 1])
    k_vals = (weight / h) * np.concatenate(
        [np.ones(n_sub), -np.ones(n_sub), -np.ones(n_sub), np.ones(n_sub)]
    )
    m_vals = (weight * h / 6.0) * np.concatenate(
        [2.0 * np.ones(n_sub), np.ones(n_sub), np.ones(n_sub), 2.0 * np.ones(n_sub)]
    )
    return rows, cols, k_vals, m_vals


class _Assembler:
    """Accumulates edge contributions into one global sparse pencil."""

    def __init__(self):
        self.n_nodes = 0
        self.rows, self.cols, self.k_vals, self.m_vals = [], [], [], []

    def new_nodes(self, count):
        out = np.arange(self.n_nodes, self.n_nodes + count)
        self.n_nodes += count
        return out

    def add_edge(self, start, end, n_sub, length, weight):
        """Subdivided edge between existing node ids; returns interior ids.

        end=None allocates a fresh terminal node (free tip); end=-1 clamps the
        far end (homogeneous Dirichlet, the terminal dof is never created and
        the last element keeps only its inner-node coupling).
        """
        interior = self.new_nodes(n_sub - 1)
        if end is None:
            end_id = self.new_nodes(1)[0]
            chain = np.concatenate([[start], interior, [end_id]])
            keep_last = True
        elif end == -1:
            chain = np.concatenate([[start], interior, [interior[-1] if n_sub > 1 else start]])
            keep_last = False
        else:
            chain = np.concatenate([[start], interior, [end]])
            keep_last = True
        rows, cols, kv, mv = _edge_matrices(n_sub, length, weight)
        glob_r, glob_c = chain[rows], chain[cols]
        if not keep_last:
            # Dirichlet tip: drop every entry touching the clamped node, which
            # in local numbering is node n_sub.
            mask = (rows != n_sub) & (cols != n_sub)
            glob_r, glob_c, kv, mv = glob_r[mask], glob_c[mask], kv[mask], mv[mask]
        self.rows.append(glob_r)
        self.cols.append(glob_c)
        self.k_vals.append(kv)
        self.m_vals.append(mv)
        return interior

    def build(self):
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        shape = (self.n_nodes, self.n_nodes)
        K = sp.coo_matrix((np.concatenate(self.k_vals), (rows, cols)), shape).tocsr()
        M = sp.coo_matrix((np.concatenate(self.m_vals), (rows, cols)), shape).tocsr()
        return K, M


def _subdivisions(length, h):
    return max(1, round(length / h))


def truncated_half_ladder(L, mu, sym_class, n_cells, h=DEFAULT_H):
    """Sparse (K, M, vertex_ids) for the half ladder truncated at +-n_cells.

    Rail vertices j = -n_cells..n_cells, each carrying its rung; the rail
    simply stops after the outermost vertices (natural ends, no boundary
    rows needed).  Rungs have length L/2 with a free tip for the symmetric
    class and a clamped tip for the antisymmetric class; the rung at j = 0
    is weighted by mu in both forms.  Returns the assembled pencil and the
    rail-vertex dof indices keyed by j.
    """
    if n_cells < 5:
        raise ValueError("need at least 5 cells per side")
    if not 0.0 < h <= 0.1:
        raise ValueError("mesh step h must lie in (0, 0.1]")
    asm = _Assembler()
    verts = asm.new_nodes(2 * n_cells + 1)  # index j + n_cells
    n_rail = _subdivisions(1.0, h)
    n_rung = _subdivisions(0.5 * L, h)
    for j in range(-n_cells, n_cells):
        asm.add_edge(verts[j + n_cells], verts[j + 1 + n_cells], n_rail, 1.0, 1.0)
    rung_end = None if sym_class is SymmetryClass.SYMMETRIC else -1
    for j in range(-n_cells, n_cells + 1):
        w = mu if j == 0 else 1.0
        asm.add_edge(verts[j + n_cells], rung_end, n_rung, 0.5 * L, w)
    K, M = asm.build()
    vertex_ids = {j: int(verts[j + n_cells]) for j in range(-n_cells, n_cells + 1)}
    return K.tocsc(), M.tocsc(), vertex_ids


@dataclass
class OracleResult:
    """Defect eigenvalues found by the truncated-graph solve.

    n_cells, n_dofs and inertia_count describe the run that produced the
    eigenvalues (the wider one once the convergence check adopts it);
    inertia_count is the number of pencil eigenvalues in its search window,
    as counted by Sylvester inertia, and equals lams.size.
    """

    omegas: np.ndarray
    lams: np.ndarray
    n_cells: int
    h: float
    n_dofs: int
    converged: bool
    inertia_count: int
    history: list = field(default_factory=list)


def _gap_eigs_once(L, mu, sym_class, lam_lo, lam_hi, n_cells, h):
    K, M, _ = truncated_half_ladder(L, mu, sym_class, n_cells, h)
    count = count_below(K, M, lam_hi) - count_below(K, M, lam_lo)
    if count == 0:
        return np.zeros(0), K.shape[0], 0
    # the window is symmetric about sigma, so the count eigenvalues nearest
    # sigma are exactly the ones inside it
    sigma = 0.5 * (lam_lo + lam_hi)
    # a fixed start vector: without v0 ARPACK draws one from process-global state
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    vals, _ = spla.eigsh(K, k=count, M=M, sigma=sigma, which="LM", v0=v0)
    found = int(np.count_nonzero((vals > lam_lo) & (vals < lam_hi)))
    if found != count:
        raise RuntimeError(
            f"inertia counts {count} eigenvalue(s) in the window but ARPACK "
            f"found {found}"
        )
    return np.sort(vals), K.shape[0], count


def oracle_gap_eigenvalues(
    L,
    mu,
    sym_class,
    gap,
    *,
    h=DEFAULT_H,
    n_cells=40,
    check_convergence=True,
):
    """Eigenvalues of the truncated defect graph inside the given gap.

    The search window is the open gap shrunk by EDGE_MARGIN (relative to the
    gap width) to avoid grazing the band edges.  Sylvester inertia at both
    window ends counts the pencil eigenvalues inside it; one ARPACK
    shift-invert solve at the gap centre then asks for exactly that many,
    and raises if a different number lands inside, so every counted
    eigenvalue is returned.  With check_convergence the run is repeated with
    a wider truncation and flagged converged if every eigenvalue moved by
    less than ORACLE_REL_TOL relatively; the wider run's eigenvalues and size
    are then returned.
    """
    pad = EDGE_MARGIN * gap.width
    lam_lo, lam_hi = (gap.omega_b + pad) ** 2, (gap.omega_t - pad) ** 2
    lams, ndof, count = _gap_eigs_once(L, mu, sym_class, lam_lo, lam_hi, n_cells, h)
    history = [(n_cells, lams)]
    converged = not check_convergence
    if check_convergence:
        lams2, ndof2, count2 = _gap_eigs_once(
            L, mu, sym_class, lam_lo, lam_hi, n_cells + 8, h
        )
        history.append((n_cells + 8, lams2))
        if lams.size == lams2.size and np.all(
            np.abs(lams2 - lams) <= ORACLE_REL_TOL * np.abs(lams)
        ):
            converged = True
            n_cells, lams, ndof, count = n_cells + 8, lams2, ndof2, count2
    return OracleResult(
        np.sqrt(lams), lams, n_cells, h, ndof, converged, count, history
    )


def quasiperiodic_cell(L, sym_class, theta, h=0.01):
    """Dense Hermitian (K, M) for one ladder period with Bloch phase theta.

    One rail edge of length 1 plus the rung at its left vertex; the right
    rail end is tied to exp(i*theta) times the left vertex.
    """
    asm = _Assembler()
    v0, v1 = asm.new_nodes(2)
    n_rail = _subdivisions(1.0, h)
    n_rung = _subdivisions(0.5 * L, h)
    asm.add_edge(v0, v1, n_rail, 1.0, 1.0)
    rung_end = None if sym_class is SymmetryClass.SYMMETRIC else -1
    asm.add_edge(v0, rung_end, n_rung, 0.5 * L, 1.0)
    K, M = asm.build()
    n = asm.n_nodes
    keep = np.setdiff1d(np.arange(n), [v1])
    # v0 is column 0 after elimination; v1 is tied to it with the phase
    rows = np.append(keep, v1)
    cols = np.append(np.arange(n - 1), 0)
    data = np.append(np.ones(n - 1, dtype=complex), np.exp(1j * theta))
    T = sp.csr_matrix((data, (rows, cols)), shape=(n, n - 1))
    Kr = (T.conj().T @ K @ T).toarray()
    Mr = (T.conj().T @ M @ T).toarray()
    Kr = 0.5 * (Kr + Kr.conj().T)
    Mr = 0.5 * (Mr + Mr.conj().T)
    return Kr, Mr


def oracle_band_edges(L, sym_class, n_bands, *, h=0.01, n_theta=61):
    """First n_bands Bloch bands of the unperturbed ladder, as (lo, hi) in omega.

    Sweeps theta over [0, pi] (the spectrum is even in theta), solves the
    dense quasi-periodic cell pencil, and takes the per-index envelope.  Flat
    bands come out with lo == hi up to discretisation error.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    per_theta = np.empty((n_theta, n_bands))
    for i, th in enumerate(thetas):
        Kr, Mr = quasiperiodic_cell(L, sym_class, th, h=h)
        vals = scipy.linalg.eigh(Kr, Mr, eigvals_only=True)
        per_theta[i] = vals[:n_bands]
    lo = np.sqrt(np.clip(per_theta.min(axis=0), 0.0, None))
    hi = np.sqrt(per_theta.max(axis=0))
    return list(zip(lo, hi))
