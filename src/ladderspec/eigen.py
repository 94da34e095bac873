"""Eigensolvers for symmetric/Hermitian generalized pencils (K, M).

Two routes with one result type:

* `eig_dense` — LAPACK via scipy for moderate sizes: every eigenpair;
* `eig_sparse_shift_invert` — a self-contained shift-invert Lanczos with full
  reorthogonalisation in the M-inner product (DGKS), for large sparse pencils
  where only eigenvalues near a target are wanted.

`count_below` is not a solver: it counts the eigenvalues below a shift from
the inertia of K - sigma*M, which sizes a windowed solve exactly.

Every sparse pencil of the package comes numbered along its comb, each
route by its own builder (`fem._comb_order`, `graph1d._chains`): the rung
nodes tip-first, rung by rung, then the rail.  Eliminated in that order a
pencil fills in about as much as under minimum degree, so every SuperLU
factorisation here keeps the pencil's own column order and runs no ordering
pass, one column per panel: diagonal pivots for an inertia count or a single
solve (`solve_once`), partial pivoting for the shift-invert LU.  On the
16,324-dof supercell (L = 2, eps = 0.05, ten cells; one OpenBLAS thread on a
2-core host, medians of 30 interleaved runs) a count factors in 8.8 ms
against 12.4 ms with the `MMD_AT_PLUS_A` ordering, and the shift-invert LU
in 9.5 ms against 23 ms with COLAMD, at the same fill (196k L+U entries) and
the same 0.70 ms per solve; on the oracle's 10k-dof even sector a count
takes 2.5 ms against 3.6 ms, and the oracle's own shift-invert LU at its
window centre (`graph1d._arpack`, which hands it to ARPACK) 1.9 ms against
4.2 ms with COLAMD, at the same fill (51k L+U entries).  When K and M share
one sparse pattern, as every supercell and oracle pencil does, the shift
K - sigma*M is formed on their data arrays.

The Lanczos path deliberately avoids ARPACK so that its behaviour (start
vector, reorthogonalisation, stopping rule) is fully pinned down by this file;
it factorises K - sigma*M once with SuperLU, runs once, and works in
the M-inner product, so M only needs to be positive definite, K only Hermitian.
It keeps its basis in one array and reorthogonalises each new vector by
classical Gram-Schmidt, repeated only when the first pass cancels (the DGKS
test of ARPACK's `dsaitr`), so a typical step costs one LU solve, two sparse
products with M and two matrix-vector products with the basis; a repeated
pass adds one and two.
A singular K - sigma*M raises; a run that stops short of k converged pairs
says so in `EigenResult.converged` and `message`, and the callers raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: a Gram-Schmidt pass that leaves at most this fraction of the M-norm it
#: started from has cancelled and is repeated (DGKS; ARPACK's `dsaitr`)
_DGKS_ETA = 0.717


@dataclass
class EigenResult:
    """Solved eigenpairs, ascending by eigenvalue."""

    values: np.ndarray
    vectors: np.ndarray | None  # column i pairs with values[i]; M-orthonormal
    residuals: np.ndarray | None  # ||K x - lam M x||_2 per pair; None if dense
    iterations: int = 0
    converged: bool = True
    n_outside_window: int = 0  # converged pairs discarded by the window filter
    message: str = ""


def eig_dense(K, M):
    """Every eigenpair of the dense Hermitian pencil.

    M must be positive definite, else ValueError.  `residuals` is None: a
    dense result carries none.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    try:
        values, vectors = scipy.linalg.eigh(Kd, Md)
    except scipy.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise ValueError(
                "mass matrix is not positive definite; check mesh/constraint "
                "assembly"
            ) from exc
        raise
    return EigenResult(values, vectors, None)


def _shifted(K, M, sigma):
    """K - sigma*M as a sparse matrix.

    When K and M share one compressed pattern, as every supercell and oracle
    pencil does, the shift is formed on their data arrays and takes a copy of
    K's pattern: SuperLU sorts a matrix with unsorted indices in place, which
    on shared index arrays would scramble K.  Otherwise it is the sparse (or
    dense) difference.
    """
    if (
        sp.issparse(K)
        and sp.issparse(M)
        and K.format == M.format
        and K.format in ("csr", "csc")
        and np.array_equal(K.indptr, M.indptr)
        and np.array_equal(K.indices, M.indices)
    ):
        return K.__class__(
            (K.data - sigma * M.data, K.indices.copy(), K.indptr.copy()), shape=K.shape
        )
    return sp.csc_matrix(K - sigma * M)


def _diagonal_lu(A):
    """SuperLU factors of a Hermitian sparse A in its own order, one column
    per panel, with diagonal pivots only, so the LU is an LDL^T in disguise:
    the factorisation of an inertia count or a single solve."""
    return spla.splu(
        sp.csc_matrix(A),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def solve_once(A, b):
    """x = A^-1 b for a symmetric positive definite sparse A, factored for
    this one solve."""
    return _diagonal_lu(A).solve(b)


def count_below(K, M, sigma):
    """Number of eigenvalues of K x = lam M x below sigma, by Sylvester inertia.

    Factors K - sigma*M with symmetric (diagonal) pivoting only, so the LU is
    an LDL^T in disguise and diag(U) = D has the inertia of the pencil shift.
    No eigenvalue is computed.  Raises if SuperLU had to leave the diagonal,
    which voids the count (sigma on or within round-off of an eigenvalue).
    """
    lu = _diagonal_lu(_shifted(K, M, sigma))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError(
            f"inertia count at sigma={sigma!r} needed off-diagonal pivots"
        )
    return int(np.count_nonzero(lu.U.diagonal().real < 0.0))


def _pair_residuals(K, M, vals, vecs):
    if vals.size == 0:
        return np.zeros(0)
    R = K @ vecs - (M @ vecs) * vals[np.newaxis, :]
    return np.linalg.norm(R, axis=0)


def eig_sparse_shift_invert(
    K, M, sigma, k, *, window=None, tol=1e-10, seed=0, draw_order=None
):
    """k eigenpairs of K x = lam M x nearest sigma, by Lanczos on (K-sigma*M)^-1 M.

    Factors K - sigma*M once with SuperLU, whose RuntimeError a singular
    pencil raises, and runs Lanczos once.  A run that ends, at an invariant
    subspace or after its step limit, before k Ritz pairs converge returns
    the pairs it has with converged=False and a message.  With
    window=(lo, hi), converged eigenvalues outside the window are dropped and
    counted in n_outside_window.  A caller that sets k from `count_below` at
    both window ends expects that count to be zero.

    The start vector is one standard normal draw per dof from `seed`, real
    and imaginary parts drawn in turn for a complex pencil.  draw_order[i]
    is the dof that takes the i-th draw (default: dof i), so a pencil whose
    dofs are renumbered starts from the same vector, node for node.
    """
    n = K.shape[0]
    if k < 1 or k > n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    # partial pivoting, in the pencil's own order
    lu = spla.splu(_shifted(K, M, sigma).tocsc(), permc_spec="NATURAL", panel_size=1)
    vals, vecs, iters, ok, msg = _lanczos_si(K, M, lu, sigma, k, tol, seed, draw_order)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    n_out = 0
    if window is not None:
        lo, hi = window
        inside = (vals >= lo) & (vals <= hi)
        n_out = int(np.count_nonzero(~inside))
        vals, vecs = vals[inside], vecs[:, inside]
    res = _pair_residuals(K, M, vals, vecs)
    return EigenResult(vals, vecs, res, iters, ok, n_out, msg)


def _lanczos_si(K, M, lu, sigma, k, tol, seed, draw_order):
    """Core Lanczos loop; returns the (at most k) Ritz pairs nearest sigma.

    The M-orthonormal basis is the columns of one preallocated array V.  A
    step costs one LU solve and, when its Gram-Schmidt pass against V keeps
    the M-norm (`_orthogonalise`), two sparse products with M: the new
    vector's M-norm before the pass and after it.  The second is kept as the
    next step's right-hand side and alpha product.  On the benchmark's three
    supercell solves no pass has cancelled, so none was repeated.
    """
    n = K.shape[0]
    dtype = np.result_type(K.dtype, M.dtype, np.float64)
    max_steps = min(n, max(6 * k, 100))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n).astype(dtype)
    if dtype.kind == "c":
        v = (v + 1j * rng.standard_normal(n)).astype(dtype)
    if draw_order is not None:
        v[draw_order] = v.copy()
    V = np.empty((n, max_steps + 1), dtype=dtype, order="F")
    Mv = M @ v
    nrm = math.sqrt(abs(np.vdot(v, Mv)))
    V[:, 0] = v / nrm
    Mv /= nrm
    alphas, betas = [], []
    theta = s = None
    for step in range(1, max_steps + 1):
        w = lu.solve(Mv)
        a = np.vdot(Mv, w)
        w -= a * V[:, step - 1]
        if step > 1:
            w -= betas[-1] * V[:, step - 2]
        w, Mw, b = _orthogonalise(V[:, :step], M, w)
        alphas.append(a.real)
        theta, s = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))
        # Ritz values of the inverted operator; largest |theta| sit nearest
        # sigma in the original pencil.
        idx = np.argsort(-np.abs(theta))[: min(k, theta.size)]
        bounds = b * np.abs(s[-1, idx])
        if idx.size == k and np.all(bounds <= tol * np.maximum(np.abs(theta[idx]), 1e-300)):
            return _ritz_to_pairs(V, theta, s, idx, sigma, step, True, "")
        if b <= 1e-14 * max(1.0, abs(a)):
            # invariant subspace: its Ritz pairs are exact, but may be fewer than k
            ok = idx.size == k
            msg = (
                "breakdown after convergence" if ok
                else f"breakdown after {step} steps with {idx.size} of {k} pairs"
            )
            return _ritz_to_pairs(V, theta, s, idx, sigma, step, ok, msg)
        betas.append(b)
        V[:, step] = w / b
        Mv = Mw / b
    idx = np.argsort(-np.abs(theta))[: min(k, theta.size)]
    return _ritz_to_pairs(
        V,
        theta,
        s,
        idx,
        sigma,
        max_steps,
        False,
        f"no convergence in {max_steps} steps",
    )


def _orthogonalise(V, M, w):
    """w made M-orthogonal to the M-orthonormal columns of V, in place, with
    M w and the M-norm of the result.

    One classical Gram-Schmidt pass, and a second one only if the first
    cancelled, leaving at most `_DGKS_ETA` of the M-norm it started from
    (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30 (1976)): a pass
    that keeps most of the norm leaves w orthogonal to working precision.
    One pass costs two products with the basis and one sparse product with
    M, and the M-norm before the first pass one more.  The coefficients
    V^H M w are formed as conj(V^T conj(M w)), so a complex V is never
    copied.
    """
    Mw = M @ w
    b = math.sqrt(abs(np.vdot(w, Mw)))
    for _ in range(2):
        before = b
        w -= V @ (V.T @ Mw.conj()).conj()
        Mw = M @ w
        b = math.sqrt(abs(np.vdot(w, Mw)))
        if b > _DGKS_ETA * before:
            break
    return w, Mw, b


def _ritz_to_pairs(V, theta, s, idx, sigma, iters, ok, msg):
    vecs = V[:, : s.shape[0]] @ s[:, idx]
    with np.errstate(divide="ignore"):
        lams = sigma + 1.0 / theta[idx]
    return lams, vecs, iters, ok, msg
