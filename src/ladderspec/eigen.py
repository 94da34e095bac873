"""Eigensolvers for symmetric/Hermitian generalized pencils (K, M).

Two routes with one result type:

* `eig_dense` — LAPACK via scipy for moderate sizes (all eigenvalues, or an
  index range);
* `eig_sparse_shift_invert` — a self-contained shift-invert Lanczos with full
  reorthogonalisation in the M-inner product, for large sparse pencils where
  only eigenvalues near a target are wanted.

`count_below` is not a solver: it counts the eigenvalues below a shift from
the inertia of K - sigma*M, which sizes a windowed solve exactly.

The Lanczos path deliberately avoids ARPACK so that its behaviour (start
vector, reorthogonalisation, stopping rule) is fully pinned down by this file;
it factorises K - sigma*M once with SuperLU, runs once, and works in the
M-inner product, so M only needs to be positive definite, K only Hermitian.
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
    vectors: np.ndarray  # column i pairs with values[i]; M-orthonormal
    residuals: np.ndarray  # ||K x - lam M x||_2 per pair
    iterations: int = 0
    converged: bool = True
    n_outside_window: int = 0  # converged pairs discarded by the window filter
    message: str = ""


def eig_dense(K, M, *, subset=None):
    """All (or a subset of) eigenpairs of the dense Hermitian pencil.

    subset=(i0, i1) keeps the inclusive index range.  M must be positive
    definite.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    try:
        if subset is not None:
            vals, vecs = scipy.linalg.eigh(Kd, Md, subset_by_index=subset)
        else:
            vals, vecs = scipy.linalg.eigh(Kd, Md)
    except scipy.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise ValueError(
                "mass matrix is not positive definite; check mesh/constraint "
                "assembly"
            ) from exc
        raise
    res = _pair_residuals(Kd, Md, vals, vecs)
    return EigenResult(vals, vecs, res)


def count_below(K, M, sigma):
    """Number of eigenvalues of K x = lam M x below sigma, by Sylvester inertia.

    Factors K - sigma*M with symmetric (diagonal) pivoting only, so the LU is
    an LDL^T in disguise and diag(U) = D has the inertia of the pencil shift.
    No eigenvalue is computed.  Raises if SuperLU had to leave the diagonal,
    which voids the count (sigma on or within round-off of an eigenvalue).
    """
    lu = spla.splu(
        sp.csc_matrix(K - sigma * M),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
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


def _m_inner(M, x, y, keep_complex):
    """M-inner product <x, y>_M, as a scalar of the working dtype."""
    v = np.vdot(x, M @ y)
    return v if keep_complex else v.real


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
    lu = spla.splu((K - sigma * M).tocsc())
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
    """Core Lanczos loop; returns the (at most k) Ritz pairs nearest sigma."""
    n = K.shape[0]
    dtype = np.result_type(K.dtype, M.dtype, np.float64)
    max_steps = min(n - 1, max(6 * k, 100))
    cplx = dtype.kind == "c"
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n).astype(dtype)
    if cplx:
        v = (v + 1j * rng.standard_normal(n)).astype(dtype)
    nrm = math.sqrt(abs(_m_inner(M, v, v, cplx)))
    v /= nrm
    V = [v]
    alphas, betas = [], []
    theta = s = None
    for step in range(1, max_steps + 1):
        w = lu.solve(M @ V[-1])
        a = _m_inner(M, V[-1], w, cplx)
        w = w - a * V[-1]
        if len(V) > 1:
            w = w - betas[-1] * V[-2]
        # full reorthogonalisation, twice, against every kept basis vector
        for _ in range(2):
            for u in V:
                w = w - _m_inner(M, u, w, cplx) * u
        alphas.append(a if not cplx else a.real)
        b = math.sqrt(abs(_m_inner(M, w, w, cplx)))
        T_alph = np.array(alphas)
        T_beta = np.array(betas)
        theta, s = scipy.linalg.eigh_tridiagonal(T_alph, T_beta)
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
        V.append(w / b)
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
    basis = np.column_stack(V[: s.shape[0]])
    vecs = basis @ s[:, idx]
    with np.errstate(divide="ignore"):
        lams = sigma + 1.0 / theta[idx]
    return lams, vecs, iters, ok, msg
