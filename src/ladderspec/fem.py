"""2-D P1 finite elements on the thin ladder: Bloch bands, trapped modes,
and the fattened pseudo-mode residual.

Everything operates on the symmetry-reduced lower half of the ladder, so the
class enters only through the boundary condition on the y = 0 line: natural
(Neumann) for the symmetric family, essential (Dirichlet) for the
antisymmetric one.  The essential spectrum comes from theta-quasi-periodic
pencils on the periodicity cell; the discrete spectrum from Neumann-truncated
supercells around the perturbed rung.

A cell pencil depends on theta only through its few tying-interface dofs.
Which solver takes a cell is decided once, where the cell is built
(`_BlochSplit`).  Up to `DENSE_CUTOFF` dofs the P1 element entries
(`_p1_elements`) are folded straight into dense blocks, and the pencil is
reduced once per cell, by one generalized `eig_dense` of its
theta-independent block that forms no eigenvectors (`project=`), to a
bordered diagonal pencil (`_BorderedPencil`), whose eigenvalues at every
theta are roots of an interface-sized Schur complement, counted by
Sylvester inertia.  Larger cells, and the Neumann-rectangle self-check, are
assembled in CSC (`assemble_p1`) and go to the inertia-certified
shift-invert Lanczos of `eigen` (`_lowest_eigs`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .eigen import (
    EigenResult,
    _shifted,
    count_below,
    eig_dense,
    eig_sparse_shift_invert,
    solve_once,
)
from .mesh import Mesh, build_cell_mesh, build_supercell_mesh, rectangle_mesh
from .modes import build_eigenfunction
from .params import LadderParams, SymmetryClass
from .report import SpectralReport

# Cells with at most this many dofs go to the dense interface solver
# (`_BorderedPencil`), larger ones to the inertia-certified shift-invert
# Lanczos; `_BlochSplit` alone reads it.  Whole 17-theta `fem_bloch_bands`
# sweeps (symmetric unless marked, h = eps/4, 17 solves each), forced to
# either side, in ms; one OpenBLAS thread on a 2-core host, median of 9
# interleaved runs:
#    cell                dofs  nev  Lanczos  dense
#    L = 2,   eps 0.2     180    2       45     11
#    L = 1/2, eps 0.1     230   12      144     35
#    L = 2,   eps 0.1     375    2       55     30   antisymmetric
#    L = 2,   eps 0.1     380    2       53     26
#    L = 2,   eps 0.1     380   12      122     49
#    L = 1/2, eps 0.05    480   12      139     66
#    L = 2,   eps 0.08    480    2       64     47
#    L = 2,   eps 0.07    560    2       70     65
#    L = 1/2, eps 0.04    605   12      163    102
#    L = 2,   eps 0.06    655    2       84     87
#    L = 2,   eps 0.05    780    2       76    128
#    L = 2,   eps 0.05    780   12      172    158
# The dense side's once-per-cell reduction grows as n^3, so the sides cross
# between 560 and 655 dofs at nev 2 and above 780 at nev 12; a second set
# (12 interleaved runs) put the nev-2 crossing at 560 (62 against 63 ms)
# and had the dense side ahead at 705 dofs, nev 12 (130 against 153 ms).
# No benchmark workload has a cell near the cutoff (the `bloch_cell` cells
# have 80 to 230 dofs).  On the cells above up to 560 dofs, those of gates
# 6, 7 and 9 among them, the two sides agree to 6.4e-13 of the top
# eigenvalue: moving the cutoff moves band edges by round-off.
DENSE_CUTOFF = 560

#: theta tolerance of the bounded search that sharpens an interior band extreme
THETA_XATOL = 1e-5
#: relative Ritz-bound tolerance of the supercell Lanczos in `localized_modes`
LOCALIZED_TOL = 1e-9
#: relative width of the inertia bracket at which a dense Bloch eigenvalue
#: is done (`_BorderedPencil.lowest`)
INTERFACE_RTOL = 1e-14
#: iteration cap of that root-finder; bisection alone from an interlacing
#: bracket to INTERFACE_RTOL takes about 60 steps
_INTERFACE_MAX_STEPS = 200


#: the six off-diagonal (row, column) pairs of a triangle's three nodes
_LI, _LJ = np.nonzero(~np.eye(3, dtype=bool))


def _p1_elements(mesh: Mesh):
    """The P1 element entries of every triangle, in triangle order: for the
    stiffness and then the mass, the six off-diagonal ones (local pairs
    `_LI`, `_LJ`) and the three diagonal ones, as (triangles, 6) and
    (triangles, 3) arrays.  Each consumer packs them itself."""
    tris = mesh.triangles
    area = mesh.areas()
    if np.any(area <= 0):
        raise ValueError("mesh contains non-positively oriented triangles")
    x, y = mesh.nodes[:, 0][tris], mesh.nodes[:, 1][tris]  # (m, 3)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    del x, y  # b, c and area hold all the geometry the forms need
    # stiffness (b_i b_j + c_i c_j) / (4 area), mass (1 + delta_ij) area / 12
    four_area = (4.0 * area)[:, None]
    k_off = b[:, _LI] * b[:, _LJ]
    k_off += c[:, _LI] * c[:, _LJ]
    k_off /= four_area
    k_diag = b * b
    k_diag += c * c
    k_diag /= four_area
    # the mass entries are read-only views of the areas: packing copies them
    area = area[:, None]
    m_off = np.broadcast_to((1.0 / 12.0) * area, (area.size, 6))
    m_diag = np.broadcast_to((2.0 / 12.0) * area, (area.size, 3))
    return (k_off, k_diag), (m_off, m_diag)


def assemble_p1(mesh: Mesh, dofs=None):
    """Real stiffness/mass pair for continuous P1 on the triangulation.

    dofs lists the mesh node ids that become dofs, in dof order (default:
    every node in id order); the rows and columns of the other nodes are
    dropped, an essential condition on them.  Every entry is summed over its
    triangles in triangle order, whatever the numbering: a diagonal one by
    `bincount`, an off-diagonal one has at most two terms.  So a renumbered
    pencil holds the very entries of the mesh-numbered one.

    Both matrices are CSC, the format SuperLU takes, so they are factored as
    built.  K and M share one pattern, and being symmetric each has the
    arrays of its CSR form, entry for entry.
    """
    stiffness, mass = _p1_elements(mesh)
    # 32-bit dof ids, as the sparse matrices store them; -1 marks a dropped node
    if dofs is None:
        dofs = np.arange(mesh.n_nodes)
    n = len(dofs)
    dof_of = np.full(mesh.n_nodes, -1, dtype=np.intc)
    dof_of[dofs] = np.arange(n, dtype=np.intc)
    idx = dof_of[mesh.triangles]
    rows, cols = idx[:, _LI].ravel(), idx[:, _LJ].ravel()
    off = (rows >= 0) & (cols >= 0)
    on = idx.ravel() >= 0
    diag = np.arange(n, dtype=np.intc)
    rows, cols = np.concatenate([rows[off], diag]), np.concatenate([cols[off], diag])

    def csc(off_values, diag_values):
        d = np.bincount(idx.ravel()[on], weights=diag_values.ravel()[on], minlength=n)
        vals = np.concatenate([off_values.ravel()[off], d])
        # the summed matrix may keep views of the triplet-sized arrays: the
        # copy holds the entries alone
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc().copy()

    K = csc(*stiffness)
    del stiffness  # K's element entries go before M is packed
    return K, csc(*mass)


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


def _comb_dofs(mesh, tied=None):
    """The mesh node ids kept as dofs, in comb order (`_comb_order`): every
    node but the `tied` ones and, for the antisymmetric class stored in the
    mesh metadata, the axis nodes (the Dirichlet condition on y = 0)."""
    drop = np.zeros(mesh.n_nodes, dtype=bool)
    if tied is not None:
        drop[tied] = True
    if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
        drop[mesh.axis] = True
    return _comb_order(mesh, np.flatnonzero(~drop))


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
    A0 = T0^T A T0 + T1^T A T1 and A1 = T0^T A T1, formed once per mesh
    with no T: each entry of A is folded onto the columns of its two nodes,
    a right-boundary node taking its master's, into A0 when both nodes or
    neither are tied, into A1 when only the column's node is (the row-tied
    rest is A1^T).  The columns come in comb order (`_comb_dofs`).  On the
    Lanczos side of the cutoff the pencil is that sum, in those columns
    (`free`), folded from the assembled CSC pair: CSC, factored as built.

    On the dense side (`dense`: at most `DENSE_CUTOFF` columns, decided here
    and nowhere else) the pencil is reduced once per cell to a bordered
    diagonal one (`_BorderedPencil`).  A1 touches only a set q of dofs, the
    tying masters and their tied neighbours; with p the other dofs, ordered
    p then q, every block but the q-q one is real and independent of theta.
    The element entries (`_p1_elements`) are folded straight into dense
    arrays, A0 in the p-then-q columns and A1 into its q-q block, each by
    one `bincount` in triangle order, so A0 comes out exactly symmetric.
    Once per cell, in real arithmetic, one generalized solve of the p-p
    blocks (`eig_dense`), K_pp V = M_pp V diag(d) with V^T M_pp V = I,
    gives d and, with no V formed,

        Wm = V^T M_pq,  Wk = V^T K_pq,  Gq = (Wk - diag(d) Wm)^T,

    and the pencil in the coordinates (V^T (M_pp u_p + M_pq u_q), u_q) is

        [[diag(d), Gq^T], [Gq, K_qq(theta) - Wk^T Wm - Wm^T Gq^T]]
            - lam [[I, 0], [0, M_qq(theta) - Wm^T Wm]],

    so at each theta only its m x m q-q blocks are formed (`lowest`).
    """

    def __init__(self, mesh):
        if mesh.left.size != mesh.right.size:
            raise ValueError("left/right boundary node counts differ")
        n = mesh.n_nodes
        keep = _comb_dofs(mesh, mesh.right)
        # the column of every node: a right-boundary node takes its master's,
        # a dropped node none (-1)
        col_of = np.full(n, -1, dtype=np.intc)
        col_of[keep] = np.arange(keep.size, dtype=np.intc)
        masters = col_of[mesh.left]
        if np.any(masters < 0):
            raise ValueError("a tying master node was eliminated")
        col_of[mesh.right] = masters
        tied = np.zeros(n, dtype=bool)
        tied[mesh.right] = True

        def fold(rows, cols):
            # the columns of the entries at node pairs (rows, cols), and
            # which of them A0 and A1 take; an entry with a dropped node
            # goes to neither
            r, c = col_of[rows], col_of[cols]
            live = (r >= 0) & (c >= 0)
            t_r, t_c = tied[rows], tied[cols]
            return r, c, live & (t_r == t_c), live & ~t_r & t_c

        self.dense = keep.size <= DENSE_CUTOFF
        if self.dense:
            # triangle by triangle, its six off-diagonal entries, then its
            # three diagonal ones
            tris = mesh.triangles
            rows = np.hstack([tris[:, _LI], tris]).ravel()
            cols = np.hstack([tris[:, _LJ], tris]).ravel()
            values = [np.hstack(entries).ravel() for entries in _p1_elements(mesh)]
            order, K, M = _dense_fold(keep.size, *fold(rows, cols), values)
            self._reduce(K, M)
            keep = keep[order]
        else:
            shape = (keep.size, keep.size)
            parts = []
            for A in assemble_p1(mesh):
                A = A.tocoo()
                r, c, *masks = fold(A.row, A.col)
                A0, A1 = (
                    sp.csc_matrix((A.data[part], (r[part], c[part])), shape=shape)
                    for part in masks
                )
                parts.append((A0, A1, A1.T.tocsc()))
            self.K_parts, self.M_parts = parts
        self.free = keep
        # the Lanczos start vector is drawn over the free nodes in id order
        self.draw_order = np.argsort(keep)

    def _reduce(self, K, M):
        """The bordered pencil (`interface`) from the dense fold (A0, A1)
        of K and of M (`_dense_fold`)."""
        (K0, K1), (M0, M1) = K, M
        n_p = K0.shape[0] - K1.shape[0]
        modes = eig_dense(
            K0[:n_p, :n_p], M0[:n_p, :n_p], project=[M0[:n_p, n_p:], K0[:n_p, n_p:]]
        )
        d, (Wm, Wk) = modes.values, modes.projected
        Gq = (Wk - d[:, None] * Wm).T
        self.interface = _BorderedPencil(
            d,
            Gq,
            # the q-q blocks, split as the tied pencil is
            (K0[n_p:, n_p:] - Wk.T @ Wm - Wm.T @ Gq.T, K1, K1.T),
            (M0[n_p:, n_p:] - Wm.T @ Wm, M1, M1.T),
        )

    def pencil(self, theta):
        """Reduced CSC pencil at Bloch phase theta, exactly Hermitian (the
        Lanczos side of the cutoff), as (K, M) in the columns `free`."""
        phase = _bloch_phase(theta)
        return _tied_at(phase, *self.K_parts), _tied_at(phase, *self.M_parts)

    def lowest(self, thetas, nev, *, seed=0, band=None):
        """The nev lowest eigenvalues at each theta, one row per theta: all
        thetas in one interface solve on the dense side, one certified
        Lanczos solve per theta (seed as in `_lowest_eigs`) on the other.
        Given a band, the dense side solves that root alone and leaves the
        row's other entries NaN; the Lanczos side fills every row."""
        if self.dense:
            return self.interface.lowest([_bloch_phase(t) for t in thetas], nev, band)
        return np.array([
            _lowest_eigs(K, M, nev, seed=seed, draw_order=self.draw_order)
            for K, M in map(self.pencil, thetas)
        ])


def _dense_fold(n, r, c, to_a0, to_a1, values):
    """The p-then-q column order of a dense cell and, for each entry array
    in `values`, A0 in those n columns and A1 on its trailing q-q block,
    each summed by one `bincount` in entry order.  The entries sit at
    columns (r, c); `to_a0` and `to_a1` pick the ones each part takes."""
    # q: the columns of every entry A1 takes, whatever its value (P1
    # stiffness stores exact zeros on right triangles)
    touched = np.zeros(n, dtype=bool)
    touched[r[to_a1]] = True
    touched[c[to_a1]] = True
    q = np.flatnonzero(touched)
    order = np.concatenate([np.flatnonzero(~touched), q])
    n_p, m = n - q.size, q.size
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    r0, c0 = pos[r[to_a0]], pos[c[to_a0]]
    r1, c1 = pos[r[to_a1]] - n_p, pos[c[to_a1]] - n_p
    return order, *(
        (
            np.bincount(r0 * n + c0, weights=v[to_a0], minlength=n * n).reshape(n, n),
            np.bincount(r1 * m + c1, weights=v[to_a1], minlength=m * m).reshape(m, m),
        )
        for v in values
    )


class _BorderedPencil:
    """The dense Bloch pencil on its theta-dependent interface:

        [[diag(d), Gq^T], [Gq, K(theta)]] - lam [[I, 0], [0, M(theta)]],

    with d ascending, Gq real m x n_p, and only the m x m blocks
    K(theta) = K0 + e^{-i theta} K1 + e^{i theta} K1^T and M(theta) alike
    depending on theta.  Eliminating the diagonal block leaves the Schur
    complement

        S(lam) = K - lam M - Gq diag(1/(d - lam)) Gq^T,

    and by Haynsworth's inertia additivity (Linear Algebra Appl. 1 (1968)
    73-81) the pencil has #{d_j < lam} + #{eig S(lam) < 0} eigenvalues
    below any lam off the poles d.  Each eigenvalue of S decreases in lam,
    with derivative -v^H (M + Gq diag(1/(d - lam)^2) Gq^T) v, and Cauchy
    interlacing puts the i-th pencil eigenvalue (from 0) in
    [d_{i-m}, d_i].  `lowest` finds each wanted eigenvalue as the root of
    branch i - #{d_j < lam} of S, after the secular-equation solvers of
    Bunch, Nielsen & Sorensen (Numer. Math. 31 (1978) 31-48).  The count
    against index i needs no more than that branch's eigenvalue: the pencil
    has more than i eigenvalues below lam exactly when branch
    b = i - #{d_j < lam} is below 0, or lies in 0..m-1 with eigenvalue b of
    S(lam) negative.  Each S costs that one eigenpair (`_eigpair`), counted
    in `evals`.
    """

    def __init__(self, d, Gq, K_q, M_q):
        m = Gq.shape[0]
        self.d, self.Gq, self.K_q, self.M_q = d, Gq, K_q, M_q
        # g_j g_j^T of every column of Gq, flattened: one row per mode
        self.P = (Gq.T[:, :, None] * Gq.T[:, None, :]).reshape(d.size, m * m)
        self.evals = 0

    def _ritz_start(self, K, M, nev):
        """Rayleigh-Ritz values on the lowest k = nev + m + 4 modes and the
        interface, the dropped modes folded into the q-q block to first
        order at lam = 0: g g^T / (d - lam) ~ g g^T / d + lam g g^T / d^2,
        so K - fold and M + fold_slope; one LAPACK zhegv per phase."""
        m, k = K.shape[1], min(nev + K.shape[1] + 4, self.d.size)
        d, P = self.d[k:], self.P[k:]
        fold = ((1.0 / d) @ P).reshape(m, m)
        fold_slope = ((1.0 / d**2) @ P).reshape(m, m)
        # zhegv reads the lower triangles only: the upper right blocks stay zero
        A = np.zeros((k + m, k + m), dtype=complex)
        A[np.arange(k), np.arange(k)] = self.d[:k]
        A[k:, :k] = self.Gq[:, :k]
        B = np.eye(k + m, dtype=complex)
        start = np.empty((K.shape[0], nev))
        for t, (K_t, M_t) in enumerate(zip(K, M)):
            A[k:, k:] = K_t - fold
            B[k:, k:] = M_t + fold_slope
            w, _, info = lapack.zhegv(A, B, itype=1, jobz="N", uplo="L")
            if info:
                raise np.linalg.LinAlgError(f"zhegv failed with info={info}")
            start[t] = w[:nev]
        return start

    def _blocks(self, phases):
        """K(theta) and M(theta), one m x m slice per phase."""
        phase = np.asarray(phases, dtype=complex)[:, None, None]
        return _tied_at(phase, *self.K_q), _tied_at(phase, *self.M_q)

    def _schur(self, x, K, M, index):
        """S(x) = K - x M - Gq diag(w) Gq^T, w = 1/(d - x), at each point x
        off the poles, with K and M its slices, for the root of each `index`
        i: whether the pencil has more than i eigenvalues below x, and
        eigenvalue b = i - #{d_j < x} of S (ascending) with its vector, NaN
        and zero where S has no branch b."""
        w = 1.0 / (self.d - x[:, None])
        S = K - x[:, None, None] * M
        S -= (w @ self.P).reshape(S.shape)
        branch = index - np.searchsorted(self.d, x)
        above = branch < 0
        f, v = np.full(x.size, np.nan), np.zeros(S.shape[:2], dtype=S.dtype)
        on = np.flatnonzero(~above & (branch < S.shape[1]))
        for r in on:
            f[r], v[r] = _eigpair(S[r], branch[r])
        above[on] = f[on] < 0.0
        self.evals += on.size
        return above, f, v, w

    def _admissible(self, y, lo, hi):
        """y where it lies strictly inside (lo, hi), else the bracket's
        midpoint, or a step out from its finite end while it is
        half-infinite; a point on a pole, where S is undefined, moves
        halfway to that fallback."""
        d, down = self.d, np.isinf(lo)
        end = np.where(down, hi, lo)
        out = end + np.where(down, -1.0, 1.0) * np.maximum(np.abs(end), 1.0)
        back = np.where(down | np.isinf(hi), out, 0.5 * (lo + hi))
        y = np.where((lo < y) & (y < hi), y, back)
        pole = d[np.minimum(np.searchsorted(d, y), d.size - 1)] == y
        return np.where(pole, 0.5 * (y + back), y)

    def lowest(self, phases, nev, band=None):
        """The nev lowest eigenvalues at each Bloch phase e^{-i theta}, one
        row per phase; only column `band`, the others NaN, when one is given.

        All (phase, i) roots run together.  Each keeps an inertia bracket
        lo <= lam_i <= hi, opened by interlacing and shrunk by the count at
        every point it evaluates.  The first point is the Rayleigh-Ritz
        value, the next ones Newton steps on the root's branch of S, pushed
        a quarter tolerance past the root so that the bracket closes from
        both sides; a point outside the bracket, or off every branch,
        bisects it instead (`_admissible`).  A root is done when its bracket
        is INTERFACE_RTOL relative wide, or eps times the largest |d|
        absolute, and is its bracket's midpoint.  The roots share nothing
        but the Rayleigh-Ritz start, which is taken for all nev, so a root
        solved alone differs from the same root solved with others only by
        the rounding of the batched product with P (numpy forms a one-row
        product by gemv and a batch by gemm): by a few ulp.
        """
        d, P, m = self.d, self.P, self.Gq.shape[0]
        K, M = self._blocks(phases)
        bands = np.arange(nev) if band is None else np.array([band])
        at = np.repeat(np.arange(len(phases)), bands.size)
        index = np.tile(bands, len(phases))
        lam = self._ritz_start(K, M, nev)[at, index]
        ends = np.concatenate([[-np.inf], d, [np.inf]])
        lo = ends[np.maximum(index - m + 1, 0)]
        hi = ends[np.minimum(index + 1, d.size + 1)]
        floor = np.finfo(float).eps * np.abs(d).max(initial=0.0)
        lam = self._admissible(lam, lo, hi)
        out = np.empty(lam.size)
        todo = np.arange(lam.size)
        for _ in range(_INTERFACE_MAX_STEPS):
            x, t = lam[todo], at[todo]
            M_t = M[t]
            # the bracket moves by the sign of the root's branch of S alone
            above, f, v, w = self._schur(x, K[t], M_t, index[todo])
            lo[todo] = np.where(above, lo[todo], x)
            hi[todo] = np.where(above, x, hi[todo])
            a, b = lo[todo], hi[todo]
            tol = np.maximum(INTERFACE_RTOL * np.abs(x), floor)
            done = b - a <= tol
            out[todo[done]] = 0.5 * (a[done] + b[done])
            # Newton on that branch, NaN off it: S v = f v,
            # -dS/dlam = M + Gq diag(w^2) Gq^T
            w *= w
            slope = np.einsum("ni,nij,nj->n", v.conj(), M_t, v).real + np.einsum(
                "ni,nij,nj->n", v.conj(), (w @ P).reshape(M_t.shape), v
            ).real
            step = f / slope
            y = x + step + np.copysign(0.25 * tol, step)
            lam[todo] = self._admissible(y, a, b)
            todo = todo[~done]
            if todo.size == 0:
                rows = np.full((len(phases), nev), np.nan)
                rows[at, index] = out
                return rows
        raise RuntimeError(
            f"interface root-finder: {todo.size} eigenvalue(s) not bracketed to "
            f"{INTERFACE_RTOL} in {_INTERFACE_MAX_STEPS} steps"
        )


def _eigpair(a, k):
    """Eigenvalue number k (from 0, ascending) of one dense Hermitian
    matrix, read from its lower triangle, and its unit vector, by scipy's
    LAPACK zheevr restricted to that index: 25 us at n = 20, zheev's every
    pair 77 us (one OpenBLAS thread, 2-core host, best of 5 x 20000)."""
    w, z, _, _, info = lapack.zheevr(a, range="I", il=k + 1, iu=k + 1, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheevr failed with info={info}")
    return w[0], z[:, 0]


def _tied_at(phase, A0, A1, A1T):
    # A0 + e^{-i theta} A1 + e^{i theta} A1^T, sparse or dense, one phase or
    # a stack of them: A0 is symmetric and the bracket Hermitian entry by
    # entry, so the sum is exactly Hermitian
    return A0 + (phase * A1 + np.conj(phase) * A1T)


def _lowest_eigs(Kr, Mr, nev, *, seed=0, draw_order=None):
    """Lowest nev eigenvalues of a sparse pencil with K positive
    semi-definite, by one shift-invert Lanczos solve just below zero (seed
    and draw_order as in `eig_sparse_shift_invert`), certified by one
    inertia count above its top value.  Raises ValueError when nev exceeds
    n_dofs - 2, the most that solve returns."""
    n = Kr.shape[0]
    if nev > n - 2:
        raise ValueError(f"nev={nev} exceeds n_dofs - 2 = {n - 2} (n_dofs={n})")
    res = eig_sparse_shift_invert(Kr, Mr, -1e-2, nev, seed=seed, draw_order=draw_order)
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

    Sweeps theta over [0, pi] (the pencil spectrum is even in theta): the
    dense side solves the whole grid at once on the tying interface, the
    Lanczos side one pencil per grid point.  Each band extreme found
    strictly inside the grid is then sharpened by a bounded 1-D
    minimisation between its two neighbours.  An extreme at either grid end
    is kept as it is, unrefined.  Every lambda_n(theta) is even about both 0
    and pi, so those points are critical, but a critical point need not be
    the extreme: a band can rise from its theta = 0 value to a maximum
    inside the first grid step, and the reported edge is then the grid
    value, with the gap too wide by that rise (L = 1, eps = 0.3 symmetric,
    h = 0.075: 5.6e-9 relative on its fifth gap).  Symmetric band 0 is set
    to 0 at theta = 0, where the constant spans the stiffness kernel (each
    P1 stiffness row sums to 0); a solve gives round-off there, whose square
    root (~1e-6) moves with the BLAS thread count.  Bands and gaps are
    reported in omega = sqrt(lambda); the per-theta eigenvalue grid is kept
    as a table.  Raises ValueError, before any solve, when nev exceeds the
    eigenvalues the cell's solver returns (n_dofs dense, n_dofs - 2
    Lanczos).
    """
    sym_class = SymmetryClass.parse(sym_class)
    mesh = build_cell_mesh(params, sym_class, h)
    split = _BlochSplit(mesh)
    n = int(split.free.size)
    most = n if split.dense else n - 2
    if nev > most:
        raise ValueError(
            f"nev={nev} exceeds the {most} Bloch eigenvalues the "
            f"{'dense' if split.dense else 'Lanczos'} solver returns on this "
            f"cell (n_dofs={n})"
        )
    thetas = np.linspace(0.0, math.pi, n_theta)
    grid = split.lowest(thetas, nev, seed=seed)
    if sym_class is SymmetryClass.SYMMETRIC:
        grid[0, 0] = 0.0
    n_solves = thetas.size

    def lam_at(theta, band):
        return split.lowest([theta], nev, seed=seed, band=band)[0, band]

    def _refined_extreme(band, sign):
        """min (sign=+1) or max (sign=-1) of lambda_band(theta)."""
        nonlocal n_solves
        vals = sign * grid[:, band]
        i0 = int(np.argmin(vals))
        best = vals[i0]
        if 0 < i0 < thetas.size - 1:
            # lazy: scipy.optimize costs ~0.2 s to import, and only an interior extreme needs it
            from scipy.optimize import minimize_scalar

            r = minimize_scalar(
                lambda t: sign * lam_at(t, band),
                bounds=(thetas[i0 - 1], thetas[i0 + 1]),
                method="bounded",
                options={"xatol": THETA_XATOL},
            )
            n_solves += r.nfev
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
            "n_dofs": n,
            "n_solves": n_solves,
            "n_schur_evals": split.interface.evals if split.dense else 0,
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


def _cell_masses(mesh, areas, values, n_cells):
    """L^2 mass of each real nodal field, the columns of values, per unit
    cell j = -n_cells..n_cells: one row per field, column j + n_cells.

    A triangle belongs to the cell that holds its centroid; each bin adds
    its triangles' integrals in triangle order."""
    n_bins = 2 * n_cells + 1
    cx = mesh.nodes[:, 0][mesh.triangles].mean(axis=1)
    cell = np.clip(np.rint(cx).astype(int), -n_cells, n_cells) + n_cells
    # the values at each triangle corner, one row per field
    a, b, c = (values.T[:, corner] for corner in mesh.triangles.T)
    mass = areas / 12.0 * (2.0 * (a * a + b * b + c * c) + 2.0 * (a * b + a * c + b * c))
    bins = np.arange(values.shape[1])[:, None] * n_bins + cell
    return np.bincount(
        bins.ravel(), weights=mass.ravel(), minlength=bins.shape[0] * n_bins
    ).reshape(-1, n_bins)


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
    returns fewer than that many values inside the window raises.
    Each in-window eigenpair gets a per-cell mass profile of its eigenvector,
    real as the pencil is, a fitted geometric decay rate r_hat, and the
    share of mass in the central three cells.
    On 10 cells the fit stops improving as eps falls once |r| >= 0.77: the
    mode reaches the cut (0.8452^10 = 0.19; L = 2 antisymmetric, mu = 0.5,
    gap 2: relative error 2.7e-2 at eps = 0.1, 4.9e-2 at 0.025).
    """
    sym_class = SymmetryClass.parse(sym_class)
    lam_lo, lam_hi = float(window[0]), float(window[1])
    if not lam_lo < lam_hi:
        raise ValueError("empty window")
    mesh = build_supercell_mesh(params, sym_class, n_cells, h)
    keep = _comb_dofs(mesh)
    K, M = assemble_p1(mesh, keep)
    n = K.shape[0]
    # K is an assembled P1 stiffness, positive semi-definite: nothing lies
    # below a lower end lam_lo <= 0, so that end needs no factorisation
    below_lo = count_below(K, M, lam_lo) if lam_lo > 0.0 else 0
    count = count_below(K, M, lam_hi) - below_lo
    res = EigenResult(np.zeros(0), np.zeros((n, 0)), np.zeros(0))
    if count:
        # the window is symmetric about the shift, so the count eigenvalues
        # nearest it are the ones inside
        res = eig_sparse_shift_invert(
            K, M, 0.5 * (lam_lo + lam_hi), count,
            seed=seed, tol=LOCALIZED_TOL, draw_order=np.argsort(keep),
        )
        found = int(np.count_nonzero((res.values >= lam_lo) & (res.values <= lam_hi)))
        if found != count:
            raise RuntimeError(
                f"inertia counts {count} eigenvalue(s) in the window but the "
                f"Lanczos solve found {found} (converged={res.converged})"
            )
    areas = mesh.areas()
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
    full = np.zeros((mesh.n_nodes, count))
    full[keep] = res.vectors
    profiles = _cell_masses(mesh, areas, full, n_cells)
    for rank, (lam, prof) in enumerate(zip(res.values.tolist(), profiles)):
        if dump_prefix is not None:
            mesh.save(f"{dump_prefix}{rank}.mesh", values=full[:, rank])
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
    tol = 1e-12
    # lower-rail vertex value relative to u_j
    sign = 1.0 if ef.ev.sym_class is SymmetryClass.SYMMETRIC else -1.0
    # the only column that can hold a node is that of its nearest rung
    j = np.clip(np.rint(x), -n_cells, n_cells).astype(int)
    col = np.abs(x - j) <= 0.5 * np.where(j == 0, mu, 1.0) * eps + tol
    junc = col & (y <= -0.5 * L + eps + tol)
    rung = col & ~junc
    out[junc] = sign * ef.vertex_value(j[junc])
    out[rung] = ef.vertical_trace(j[rung], y[rung] / (1.0 - 2.0 * eps / L))
    strip = ~col
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
    keep = _comb_dofs(mesh)
    K, M = assemble_p1(mesh, keep)
    vec = values[keep]
    lam = graph_ev.omega**2
    resid = K @ vec - lam * (M @ vec)
    h1 = _shifted(K, M, -1.0)  # K + M, on the pattern the two share
    num_dual = math.sqrt(max(float(resid @ solve_once(h1, resid)), 0.0))
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
