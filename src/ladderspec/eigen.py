"""Eigensolvers for symmetric/Hermitian generalized pencils (K, M).

Two routes with one result type:

* `eig_dense` — LAPACK via scipy for moderate sizes: every eigenpair, or,
  on a real pencil, every eigenvalue and the eigenvectors' products with
  given columns (`project=`), which never forms the eigenvectors;
* `eig_sparse_shift_invert` — a self-contained shift-invert Lanczos with full
  reorthogonalisation in the M-inner product (DGKS), for large sparse pencils
  where only the k eigenvalues nearest a target are wanted.

`count_below` is not a solver: it counts the eigenvalues below a shift from
the inertia of K - sigma*M, which sizes a windowed solve exactly.  The
solver knows no window; a caller that sets k from two counts checks the
values it gets back against its own window.

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
4.2 ms with COLAMD, at the same fill (51k L+U entries).  Every sparse
pencil of the package is CSC, the format SuperLU takes, and is factored as
built: `_shifted` returns CSC for any input, and no factorisation here
converts its matrix.  When K and M share one CSC pattern, as every
supercell and oracle pencil does, the shift K - sigma*M is formed on their
data arrays.

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
from scipy.linalg import lapack

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
    # always 0: the solver filters nothing; kept because perfbench/tracing.py
    # adds it to the pair count of a solve
    n_outside_window: int = 0
    message: str = ""
    # V^T P for each P of eig_dense(project=), which leaves `vectors` None
    projected: list | None = None


_NOT_SPD = "mass matrix is not positive definite; check mesh/constraint assembly"


def eig_dense(K, M, *, project=None):
    """Every eigenpair of the dense Hermitian pencil, or every eigenvalue
    and the eigenvectors' products with `project`.

    M must be positive definite, else ValueError.  `residuals` is None: a
    dense result carries none.  Without `project` the pairs come from
    scipy's `eigh` (LAPACK `dsygvd` / `zhegvd`).  Given a sequence of real
    arrays with n rows and a real pencil, `vectors` is None and `projected`
    holds V^T P for each P in it, V the M-orthonormal eigenvectors, with no
    V formed (`_projected`); the values are those of the full call, bit for
    bit, and each row of V^T P is fixed up to the sign of its eigenvector.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    if project is not None:
        return _projected(Kd, Md, project)
    try:
        values, vectors = scipy.linalg.eigh(Kd, Md)
    except scipy.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise ValueError(_NOT_SPD) from exc
        raise
    return EigenResult(values, vectors, None)


def _projected(K, M, project):
    """The eigenvalues of the real pencil (K, M) and V^T P for each P in
    `project`, by the steps of LAPACK's `dsygvd` with the eigenvectors
    applied to P instead of formed.

    M = C C^T (`dpotrf`), C^-1 K C^-T = Q T Q^T (`dsygst`, then `dsytrd`
    with its optimal workspace, so that it runs blocked as in `dsygvd`) and
    T = Y diag(d) Y^T (`dstevd`, `dstedc` as in `dsygvd`), so
    V = C^-T Q Y and V^T P = Y^T Q^T C^-1 P: one triangular solve
    (`dtrtrs`) and the reflectors of Q (`dormqr`) on the n x p columns of
    P, in place of the n x n back-transforms.  The reductions and `dstedc`
    are those of `eigh`, so d is its values bit for bit.
    """
    if any(map(np.iscomplexobj, (K, M, *project))):
        raise ValueError("eig_dense(project=) takes a real pencil and real arrays")
    n = K.shape[0]
    widths = np.cumsum([P.shape[1] for P in project])[:-1]
    C, info = lapack.dpotrf(M, lower=1, clean=0)
    if info > 0:
        raise ValueError(_NOT_SPD)
    _check("dpotrf", info)
    A, info = lapack.dsygst(K, C, itype=1, lower=1)
    _check("dsygst", info)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _check("dsytrd_lwork", info)
    A, d, e, tau, info = lapack.dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    _check("dsytrd", info)
    X, info = lapack.dtrtrs(C, np.hstack(project), lower=1, overwrite_b=1)
    _check("dtrtrs", info)
    if n > 1:
        # Q = H(1) ... H(n-1), reflector i stored below the subdiagonal of
        # column i: the QR reflectors of A[1:, :-1], acting on rows 1..n-1
        # (`dormtr`, which scipy does not wrap, calls `dormqr` so)
        H = A[1:, :-1]
        _, work, info = lapack.dormqr("L", "T", H, tau, X[1:], -1)
        _check("dormqr", info)
        X[1:], _, info = lapack.dormqr("L", "T", H, tau, X[1:], int(work[0]))
        _check("dormqr", info)
    # scipy's dstevd takes max(n - 1, 1) off-diagonal entries
    d, Y, info = lapack.dstevd(d, e if n > 1 else np.zeros(1))
    _check("dstevd", info)
    return EigenResult(d, None, None, projected=np.split(Y.T @ X, widths, axis=1))


def _check(routine, info):
    if info:
        raise scipy.linalg.LinAlgError(f"{routine} failed with info={info}")


def _shifted(K, M, sigma):
    """K - sigma*M as a CSC matrix, ready for SuperLU.

    When K and M are CSC on one pattern, as every supercell and oracle
    pencil is, the shift is formed on their data arrays and takes a copy of
    K's pattern: SuperLU sorts a matrix with unsorted indices in place, which
    on shared index arrays would scramble K.  Any other pair, sparse or
    dense, gives the difference converted once to CSC.
    """
    if (
        sp.issparse(K)
        and sp.issparse(M)
        and K.format == M.format == "csc"
        and np.array_equal(K.indptr, M.indptr)
        and np.array_equal(K.indices, M.indices)
    ):
        return sp.csc_matrix(
            (K.data - sigma * M.data, K.indices.copy(), K.indptr.copy()), shape=K.shape
        )
    return sp.csc_matrix(K - sigma * M)


def _diagonal_lu(A):
    """SuperLU factors of a Hermitian CSC matrix A in its own order, one
    column per panel, with diagonal pivots only, so the LU is an LDL^T in
    disguise: the factorisation of an inertia count or a single solve."""
    return spla.splu(
        A,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def solve_once(A, b):
    """x = A^-1 b for a symmetric positive definite CSC matrix A, factored
    for this one solve."""
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


def eig_sparse_shift_invert(K, M, sigma, k, *, tol=1e-10, seed=0, draw_order=None):
    """k eigenpairs of K x = lam M x nearest sigma, by Lanczos on (K-sigma*M)^-1 M.

    Factors K - sigma*M once with SuperLU, whose RuntimeError a singular
    pencil raises, and runs Lanczos once.  The pairs come back ascending by
    eigenvalue.  A run that ends, at an invariant subspace or after its step
    limit, before k Ritz pairs converge returns the pairs it has with
    converged=False and a message.  Nothing is filtered: a caller that wants
    the eigenvalues of a window checks them itself.

    The start vector is one standard normal draw per dof from `seed`, real
    and imaginary parts drawn in turn for a complex pencil.  draw_order[i]
    is the dof that takes the i-th draw (default: dof i), so a pencil whose
    dofs are renumbered starts from the same vector, node for node.
    """
    n = K.shape[0]
    if k < 1 or k > n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    # partial pivoting, in the pencil's own order
    lu = spla.splu(_shifted(K, M, sigma), permc_spec="NATURAL", panel_size=1)
    vals, vecs, iters, ok, msg = _lanczos_si(K, M, lu, sigma, k, tol, seed, draw_order)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = np.linalg.norm(K @ vecs - (M @ vecs) * vals[np.newaxis, :], axis=0)
    return EigenResult(vals, vecs, res, iters, ok, message=msg)


def _lanczos_si(K, M, lu, sigma, k, tol, seed, draw_order):
    """Core Lanczos loop; returns the (at most k) Ritz pairs nearest sigma,
    with the step count and the (converged, message) of the stop.

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
            ok, msg = True, ""
            break
        if b <= 1e-14 * max(1.0, abs(a)):
            # invariant subspace: its Ritz pairs are exact, but may be fewer than k
            ok = idx.size == k
            msg = (
                "breakdown after convergence" if ok
                else f"breakdown after {step} steps with {idx.size} of {k} pairs"
            )
            break
        betas.append(b)
        V[:, step] = w / b
        Mv = Mw / b
    else:
        ok, msg = False, f"no convergence in {max_steps} steps"
    vecs = V[:, :step] @ s[:, idx]
    with np.errstate(divide="ignore"):
        lams = sigma + 1.0 / theta[idx]
    return lams, vecs, step, ok, msg


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
