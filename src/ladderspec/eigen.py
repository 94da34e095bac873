"""Eigensolvers for symmetric/Hermitian generalized pencils (K, M).

Two routes with one result type:

* `eig_dense` — LAPACK via scipy for moderate sizes (all eigenvalues, or an
  index range; with or without eigenvectors);
* `eig_sparse_shift_invert` — a self-contained shift-invert Lanczos with full
  reorthogonalisation in the M-inner product, for large sparse pencils where
  only eigenvalues near a target are wanted.

`count_below` is not a solver: it counts the eigenvalues below a shift from
the inertia of K - sigma*M, which sizes a windowed solve exactly.

Each SuperLU factorisation takes the column ordering that suits its use (the
measurements are the table above `count_below`).  A factorisation used once,
for an inertia count or a single solve (`solve_once`), is ordered by minimum
degree on A^T + A and factored one column per panel, the cheapest to factor
on these nearly fill-free pencils.  The shift-invert LU is solved once per
Lanczos step, so it keeps COLAMD, whose factors of a supercell pencil solve
1.4-1.9 times as fast and repay their dearer factorisation within about 20
steps.  When K and M share one sparse pattern, as every supercell and oracle
pencil does, the shift K - sigma*M is formed on their data arrays.

The Lanczos path deliberately avoids ARPACK so that its behaviour (start
vector, reorthogonalisation, stopping rule) is fully pinned down by this file;
it factorises K - sigma*M once with SuperLU (COLAMD), runs once, and works in
the M-inner product, so M only needs to be positive definite, K only Hermitian.
It keeps its basis in one array and reorthogonalises each new vector by
classical Gram-Schmidt done twice (CGS2), so one step costs one LU solve,
three sparse products with M and four matrix-vector products with the basis.
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


@dataclass
class EigenResult:
    """Solved eigenpairs, ascending by eigenvalue."""

    values: np.ndarray
    vectors: np.ndarray | None  # column i pairs with values[i]; M-orthonormal
    residuals: np.ndarray | None  # ||K x - lam M x||_2 per pair
    iterations: int = 0
    converged: bool = True
    n_outside_window: int = 0  # converged pairs discarded by the window filter
    message: str = ""


def eig_dense(K, M, *, subset=None, vectors=True):
    """All (or a subset of) eigenpairs of the dense Hermitian pencil.

    subset=(i0, i1) keeps the inclusive index range.  M must be positive
    definite.  vectors=False asks LAPACK for eigenvalues only and leaves
    `vectors` and `residuals` None; over an index subset LAPACK bisects for
    the same values whether or not it also computes vectors.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    try:
        out = scipy.linalg.eigh(
            Kd, Md, subset_by_index=subset, eigvals_only=not vectors
        )
    except scipy.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise ValueError(
                "mass matrix is not positive definite; check mesh/constraint "
                "assembly"
            ) from exc
        raise
    if not vectors:
        return EigenResult(out, None, None)
    vals, vecs = out
    return EigenResult(vals, vecs, _pair_residuals(Kd, Md, vals, vecs))


def _shifted(K, M, sigma):
    """K - sigma*M as a sparse matrix.

    When K and M share one compressed pattern, as every supercell and oracle
    pencil does, the shift is formed on their data arrays and keeps K's
    pattern; otherwise it is the sparse (or dense) difference.
    """
    if (
        sp.issparse(K)
        and sp.issparse(M)
        and K.format == M.format
        and K.format in ("csr", "csc")
        and np.array_equal(K.indptr, M.indptr)
        and np.array_equal(K.indices, M.indices)
    ):
        return K.__class__((K.data - sigma * M.data, K.indices, K.indptr), shape=K.shape)
    return sp.csc_matrix(K - sigma * M)


def _one_shot_lu(A):
    """SuperLU factors of a Hermitian sparse A that is factored for one use,
    an inertia count or a single solve: minimum degree on the pattern of
    A^T + A, diagonal pivots only and one column per panel (see the table
    above `count_below`)."""
    return spla.splu(
        sp.csc_matrix(A),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def solve_once(A, b):
    """x = A^-1 b for a symmetric positive definite sparse A, factored for
    this one solve."""
    return _one_shot_lu(A).solve(b)


# Factor and solve times in ms of the shifted pencil K - sigma*M, one OpenBLAS
# thread on a 2-core host, medians of 30 interleaved runs.  MMD is
# MMD_AT_PLUS_A with diagonal pivots in symmetric mode; p is SuperLU's panel
# size (10 is its default); RCM+NATURAL includes the reverse Cuthill-McKee
# ordering and the permutation.  Supercells: L = 2, mu = 0.25, 10 cells,
# h = eps/4; oracle comb: L = 2, h = 4e-3, 20 cells.
#                            MMD p10     MMD p1   RCM+NATURAL p1  COLAMD p10
#                         factor/solve
#   supercell  7,964 dofs   6.6/0.42    4.6/0.43     6.1/0.39      6.9/0.31
#   supercell 16,324 dofs  18.6/1.33   12.4/1.25    13.1/0.94     22.6/0.67
#   oracle comb 20,251      8.2/0.34    5.9/0.37     7.3/0.35     12.5/0.47
# Counts and single solves use MMD p1: the fastest factorisation, and RCM
# gains nothing once the panels are one column wide.  The shift-invert LU
# keeps COLAMD (p10): the supercell windows of the benchmark take 16-27
# Lanczos steps, one solve each, and at 16k dofs 27 solves save 16 ms against
# the 10 ms its factorisation costs over MMD p1.


def count_below(K, M, sigma):
    """Number of eigenvalues of K x = lam M x below sigma, by Sylvester inertia.

    Factors K - sigma*M with symmetric (diagonal) pivoting only, so the LU is
    an LDL^T in disguise and diag(U) = D has the inertia of the pencil shift.
    The factorisation is used once, so it takes the cheapest one-shot
    ordering, minimum degree on A^T + A, one column per panel (table above).
    No eigenvalue is computed.  Raises if SuperLU had to leave the diagonal,
    which voids the count (sigma on or within round-off of an eigenvalue).
    """
    lu = _one_shot_lu(_shifted(K, M, sigma))
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


def eig_sparse_shift_invert(K, M, sigma, k, *, window=None, tol=1e-10, seed=0):
    """k eigenpairs of K x = lam M x nearest sigma, by Lanczos on (K-sigma*M)^-1 M.

    Factors K - sigma*M once with SuperLU, whose RuntimeError a singular
    pencil raises, and runs Lanczos once.  A run that ends, at an invariant
    subspace or after its step limit, before k Ritz pairs converge returns
    the pairs it has with converged=False and a message.  With
    window=(lo, hi), converged eigenvalues outside the window are dropped and
    counted in n_outside_window.  A caller that sets k from `count_below` at
    both window ends expects that count to be zero.
    """
    if not sp.issparse(K):
        K = sp.csr_matrix(K)
    if not sp.issparse(M):
        M = sp.csr_matrix(M)
    n = K.shape[0]
    if k < 1 or k > n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    lu = spla.splu(_shifted(K, M, sigma).tocsc(), permc_spec="COLAMD")
    vals, vecs, iters, ok, msg = _lanczos_si(K, M, lu, sigma, k, tol, seed)
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


def _lanczos_si(K, M, lu, sigma, k, tol, seed):
    """Core Lanczos loop; returns the (at most k) Ritz pairs nearest sigma.

    The M-orthonormal basis is the columns of one preallocated array V.  A
    step costs one LU solve and three sparse products with M: one in each of
    the two classical Gram-Schmidt passes against V ("twice is enough"), and
    one for the M-norm of the new vector, which is kept as the next step's
    right-hand side and alpha product.
    """
    n = K.shape[0]
    dtype = np.result_type(K.dtype, M.dtype, np.float64)
    max_steps = min(n - 1, max(6 * k, 100))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n).astype(dtype)
    if dtype.kind == "c":
        v = (v + 1j * rng.standard_normal(n)).astype(dtype)
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
        # full reorthogonalisation: classical Gram-Schmidt, twice; the
        # coefficients Vj^H M w are formed as conj(Vj^T conj(M w)), so a
        # complex Vj is never copied
        Vj = V[:, :step]
        for _ in range(2):
            w -= Vj @ (Vj.T @ (M @ w).conj()).conj()
        alphas.append(a.real)
        Mw = M @ w
        b = math.sqrt(abs(np.vdot(w, Mw)))
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


def _ritz_to_pairs(V, theta, s, idx, sigma, iters, ok, msg):
    vecs = V[:, : s.shape[0]] @ s[:, idx]
    with np.errstate(divide="ignore"):
        lams = sigma + 1.0 / theta[idx]
    return lams, vecs, iters, ok, msg
