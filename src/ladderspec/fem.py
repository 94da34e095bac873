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
(`_BlochSplit`).  Up to `DENSE_CUTOFF` dofs the pencil is reduced once per
cell, by one generalized `eig_dense` of its theta-independent block, to a
bordered diagonal pencil (`_BorderedPencil`), whose eigenvalues at every
theta are roots of an interface-sized Schur complement, counted by
Sylvester inertia.  Larger cells, and the Neumann-rectangle self-check, go
to the inertia-certified shift-invert Lanczos of `eigen` (`_lowest_eigs`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

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

# Cells with at most this many dofs go to the dense interface solver
# (`_BorderedPencil`), larger ones to the inertia-certified shift-invert
# Lanczos; `_BlochSplit` alone reads it.  Whole 17-theta `fem_bloch_bands`
# sweeps (symmetric unless marked, h = eps/4, 17 solves each), forced to
# either side, in ms; one OpenBLAS thread on a 2-core host, median of 9
# interleaved runs (a second set of 7 put the crossover at the same
# sizes):
#    cell                dofs  nev  Lanczos  dense
#    L = 2,   eps 0.2     180    2       68     19
#    L = 1/2, eps 0.1     230   12      201     53
#    L = 2,   eps 0.1     375    2       58     35   antisymmetric
#    L = 2,   eps 0.1     380    2       76     46
#    L = 2,   eps 0.1     380   12      119     66
#    L = 1/2, eps 0.05    480   12      167    110
#    L = 2,   eps 0.08    480    2       78     71
#    L = 2,   eps 0.07    560    2      100    100
#    L = 1/2, eps 0.04    605   12      257    159
#    L = 2,   eps 0.06    655    2       86    135
#    L = 2,   eps 0.05    780    2       77    150
#    L = 2,   eps 0.05    780   12      177    194
# The dense side's once-per-cell reduction grows as n^3, so the sides cross
# near 500 dofs at nev 2 and between 605 and 780 at nev 12.  On the cells
# above up to 480 dofs, those of gates 6, 7 and 9 among them, the two sides
# agree to 5.4e-13 of the top eigenvalue: moving the cutoff moves band
# edges by round-off.
DENSE_CUTOFF = 500

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

    def csc(off_values, diag_values):
        # per triangle, the six off-diagonal and the three diagonal entries
        d = np.bincount(idx.ravel()[on], weights=diag_values.ravel()[on], minlength=n)
        vals = np.concatenate([off_values.ravel()[off], d])
        # the summed matrix may keep views of the triplet-sized arrays: the
        # copy holds the entries alone
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc().copy()

    # stiffness (b_i b_j + c_i c_j) / (4 area), mass (1 + delta_ij) area / 12
    four_area = (4.0 * area)[:, None]
    k_off = b[:, li] * b[:, lj]
    k_off += c[:, li] * c[:, lj]
    k_off /= four_area
    k_diag = b * b
    k_diag += c * c
    k_diag /= four_area
    K = csc(k_off, k_diag)
    del k_off, k_diag
    area = area[:, None]
    M = csc(
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
    A0 = T0^T A T0 + T1^T A T1 and A1 = T0^T A T1, formed once per mesh.
    The columns come in comb order (`_comb_dofs`).  On the Lanczos side of
    the cutoff the pencil is that sum, in those columns (`free`): CSC,
    factored as built.

    On the dense side (`dense`: at most `DENSE_CUTOFF` columns, decided here
    and nowhere else) the pencil is reduced once per cell to a bordered
    diagonal one (`_BorderedPencil`).  A1 touches only a set q of dofs, the
    tying masters and their tied neighbours; with p the other dofs, ordered
    p then q, every block but the q-q one is real and independent of theta.
    Once per cell, in real arithmetic, one generalized solve of the p-p
    blocks (`eig_dense`), K_pp V = M_pp V diag(d) with V^T M_pp V = I, and
    with

        Wm = V^T M_pq,  Wk = V^T K_pq,  Gq = (Wk - diag(d) Wm)^T,

    the pencil in the coordinates (V^T (M_pp u_p + M_pq u_q), u_q) is

        [[diag(d), Gq^T], [Gq, K_qq(theta) - Wk^T Wm - Wm^T Gq^T]]
            - lam [[I, 0], [0, M_qq(theta) - Wm^T Wm]],

    so at each theta only its m x m q-q blocks are formed (`lowest`).
    """

    def __init__(self, mesh):
        if mesh.left.size != mesh.right.size:
            raise ValueError("left/right boundary node counts differ")
        n = mesh.n_nodes
        keep = _comb_dofs(mesh, mesh.right)
        col_of = -np.ones(n, dtype=int)
        col_of[keep] = np.arange(keep.size)
        masters = col_of[mesh.left]
        if np.any(masters < 0):
            raise ValueError("a tying master node was eliminated")
        shape = (n, keep.size)
        # CSR tying maps: their transposes are CSC, as A is, so the products
        # convert only the tying maps
        T0 = sp.csr_matrix((np.ones(keep.size), (keep, col_of[keep])), shape=shape)
        T1 = sp.csr_matrix((np.ones(masters.size), (mesh.right, masters)), shape=shape)
        self.dense = keep.size <= DENSE_CUTOFF
        (K0, K1), (M0, M1) = (
            ((T0.T @ A @ T0 + T1.T @ A @ T1).tocsc(), (T0.T @ A @ T1).tocsc())
            for A in assemble_p1(mesh)
        )
        if self.dense:
            keep = keep[self._reduce(K0, K1, M0, M1)]
        else:
            self.K_parts = (K0, K1, K1.T.tocsc())
            self.M_parts = (M0, M1, M1.T.tocsc())
        self.free = keep
        # the Lanczos start vector is drawn over the free nodes in id order
        self.draw_order = np.argsort(keep)

    def _reduce(self, K0, K1, M0, M1):
        """The bordered pencil (`interface`) from the CSC parts; returns the
        p-then-q column order."""
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
        modes = eig_dense(K0[:n_p, :n_p], M0[:n_p, :n_p])
        d, V = modes.values, modes.vectors
        Wm, Wk = V.T @ M0[:n_p, n_p:], V.T @ K0[:n_p, n_p:]
        Gq = (Wk - d[:, None] * Wm).T
        self.interface = _BorderedPencil(
            d,
            Gq,
            # the q-q blocks, split as the tied pencil is
            (K0[n_p:, n_p:] - Wk.T @ Wm - Wm.T @ Gq.T, K1, K1.T),
            (M0[n_p:, n_p:] - Wm.T @ Wm, M1, M1.T),
        )
        return order

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
    Bunch, Nielsen & Sorensen (Numer. Math. 31 (1978) 31-48); each S costs
    one m x m Hermitian `eigh`, counted in `evals`.
    """

    def __init__(self, d, Gq, K_q, M_q):
        m = Gq.shape[0]
        self.d, self.Gq, self.K_q, self.M_q = d, Gq, K_q, M_q
        # g_j g_j^T of every column of Gq, flattened: one row per mode
        self.P = (Gq.T[:, :, None] * Gq.T[:, None, :]).reshape(d.size, m * m)
        self.evals = 0

    def _ritz_start(self, K, M, nev):
        """Rayleigh-Ritz values on the lowest nev + m + 4 modes and the
        interface, the dropped modes folded into the q-q block to first
        order at lam = 0: g g^T / (d - lam) ~ g g^T / d + lam g g^T / d^2."""
        m, k = K.shape[1], min(nev + K.shape[1] + 4, self.d.size)
        d, P = self.d[k:], self.P[k:]
        fold = ((1.0 / d) @ P).reshape(m, m)
        fold_slope = ((1.0 / d**2) @ P).reshape(m, m)
        C = np.zeros((k + m, k + m), dtype=complex)
        C[np.arange(k), np.arange(k)] = self.d[:k]
        start = np.empty((K.shape[0], nev))
        for t, (K_t, M_t) in enumerate(zip(K, M)):
            mu, U = _eigh(M_t + fold_slope)
            W = U / np.sqrt(mu)  # W^H (M + fold_slope) W = I
            # _eigh reads the lower triangle only: C's upper right stays zero
            C[k:, :k] = W.conj().T @ self.Gq[:, :k]
            C[k:, k:] = W.conj().T @ (K_t - fold) @ W
            start[t] = _eigh(C, vectors=False)[0][:nev]
        return start

    def _blocks(self, phases):
        """K(theta) and M(theta), one m x m slice per phase."""
        phase = np.asarray(phases, dtype=complex)[:, None, None]
        return _tied_at(phase, *self.K_q), _tied_at(phase, *self.M_q)

    def _schur(self, x, K, M, branch):
        """S(x) = K - x M - Gq diag(w) Gq^T, w = 1/(d - x), at each point x
        off the poles, with K and M its slices: the pencil's count below x,
        and eigenvalue number `branch` of S (ascending) with its vector."""
        w = 1.0 / (self.d - x[:, None])
        S = K - x[:, None, None] * M
        S -= (w @ self.P).reshape(S.shape)
        count = np.searchsorted(self.d, x)
        f, v = np.empty(x.size), np.empty(S.shape[:2], dtype=S.dtype)
        for r, (S_r, b) in enumerate(zip(S, branch)):
            sig, z = _eigh(S_r)
            count[r] += np.count_nonzero(sig < 0.0)
            f[r], v[r] = sig[b], z[:, b]
        self.evals += x.size
        return count, f, v, w

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
            x, t, i = lam[todo], at[todo], index[todo]
            # the root sits on branch i - #{d_j < x} of S, if that exists
            branch = i - np.searchsorted(d, x)
            on = (branch >= 0) & (branch < m)
            M_t = M[t]
            count, f, v, w = self._schur(x, K[t], M_t, np.clip(branch, 0, m - 1))
            above = count > i
            lo[todo] = np.where(above, lo[todo], x)
            hi[todo] = np.where(above, x, hi[todo])
            a, b = lo[todo], hi[todo]
            tol = np.maximum(INTERFACE_RTOL * np.abs(x), floor)
            done = b - a <= tol
            out[todo[done]] = 0.5 * (a[done] + b[done])
            # Newton on that branch: S v = f v, -dS/dlam = M + Gq diag(w^2) Gq^T
            w *= w
            slope = np.einsum("ni,nij,nj->n", v.conj(), M_t, v).real + np.einsum(
                "ni,nij,nj->n", v.conj(), (w @ P).reshape(M_t.shape), v
            ).real
            step = f / slope
            y = x + step + np.copysign(0.25 * tol, step)
            lam[todo] = self._admissible(np.where(on, y, np.nan), a, b)
            todo = todo[~done]
            if todo.size == 0:
                rows = np.full((len(phases), nev), np.nan)
                rows[at, index] = out
                return rows
        raise RuntimeError(
            f"interface root-finder: {todo.size} eigenvalue(s) not bracketed to "
            f"{INTERFACE_RTOL} in {_INTERFACE_MAX_STEPS} steps"
        )


def _eigh(a, vectors=True):
    """(values ascending, vectors or None) of one dense Hermitian matrix, read
    from its lower triangle, by scipy's LAPACK zheev.  On 10 x 10 matrices
    its QR iteration takes about 16 us against 22 us for zheevr (one
    OpenBLAS thread on a 2-core host).
    numpy.linalg's batched eigh is no faster on such slices, and it would
    page in a second copy of LAPACK's eigensolver code: 1.5 MB more
    resident memory in a `fem bands` process."""
    w, z, info = lapack.zheev(a, compute_v=vectors, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheev failed with info={info}")
    return w, (z if vectors else None)


def _tied_at(phase, A0, A1, A1T):
    # A0 + e^{-i theta} A1 + e^{i theta} A1^T, sparse or dense, one phase or
    # a stack of them: A0 is symmetric and the bracket Hermitian entry by
    # entry, so the sum is exactly Hermitian
    return A0 + (phase * A1 + np.conj(phase) * A1T)


def _supercell_pencil(mesh):
    """Real supercell (K, M) and the mesh node ids kept as dofs, in order.

    The dofs come in comb order, the axis nodes dropped for the
    antisymmetric class (`_comb_dofs`).  K and M are CSC and share the one
    pattern they are assembled with.
    """
    keep = _comb_dofs(mesh)
    K, M = assemble_p1(mesh, keep)
    return K, M, keep


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
    h = 0.075: 5.6e-9 relative on its fifth gap).  Bands and gaps are
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
