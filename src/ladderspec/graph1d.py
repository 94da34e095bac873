"""Brute-force variational solver on the half-ladder metric graph.

This is the slow, assumption-free cross-check for the closed-form machinery:
piecewise-linear finite elements on every edge of the (symmetry-reduced)
graph, with the defect rung carrying measure weight mu in both the stiffness
and the mass form.  One vectorised half-ladder builder, `_half_ladder`,
assembles both geometries:

* a truncated ladder with natural far ends, for defect eigenvalues in gaps,
  of which the gap solve builds and solves only the half-size even sector
  (`_even_sector`), folded at the defect rung's mirror line;
* one open real cell (a vertex with its rung and the rail edge to its
  rung-less image), whose image vertex `_bloch_tie` ties to the first
  vertex periodically and antiperiodically (Bloch phases 1 and -1): the
  two cells whose eigenvalues are the band edges of the unperturbed
  ladder.

Both geometries are numbered along the comb (`_chains`): the rail
vertices, then the rung nodes tip-first, then the rail edges' interiors, an
order that `count_below` and the oracle's own shift-invert LU (`_arpack`)
factor with no ordering pass and barely any fill.  ARPACK runs on that LU,
handed to it as its inverse operator, and starts from one fixed standard
normal draw per dof, in that order.

Nothing here reuses the transfer-matrix algebra, so agreement with
`modes.discrete_eigenvalues` / `bands.essential_bands` is a genuine
two-route consistency check.  The only import from the FEM side is
`eigen.count_below`, an inertia count that computes no eigenvalue; the
spectrum itself comes from ARPACK, not from the FEM route's Lanczos.

The odd sector holds no trapped mode.  A function odd under j -> -j vanishes
on the defect rung and at vertex 0, and its two rail fluxes at vertex 0
cancel, so it satisfies the unperturbed equations whatever mu is: an odd
eigenfunction of the defect ladder is an eigenfunction of the periodic
ladder.  A periodic graph has point spectrum only as flat bands, which lie
inside the spectrum, never in a gap (Berkolaiko and Kuchment, Introduction
to Quantum Graphs, AMS 2013, ch. 4).  The same steps hold for the P1
equations, with the P1 gap in place of the exact one.  So an odd eigenvalue
of the truncated pencil inside a gap window is a truncation-end state, or a
P1 band state in the sliver between the exact and the P1 gap edge, and the
gap solve drops the odd sector unbuilt.

ARPACK stops once each wanted Ritz residual is at most sqrt(eps) relative
(`_ARPACK_TOL`), not at its machine-precision default.  The shift-invert
operator is self-adjoint in the M-inner product, so a Ritz value's error is
quadratic in its residual (Parlett, The Symmetric Eigenvalue Problem,
section 11-7): each eigenvalue comes with an a-posteriori bound,
`OracleResult.lam_error_bounds`, of order eps divided by its separation
from the rest of its sector's spectrum (`_lam_error_bounds`).  The bound
is relative to the operator ARPACK ran on, the oracle's LU of the shifted
pencil: it covers ARPACK's early stop only, not the round-off floor of the
shifted pencil, which is 100-10,000 times larger on the benchmark pencils,
so a solve through another factorisation may differ by more than the bound.
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
#: ARPACK's relative residual tolerance, sqrt(eps) = 2**-26: the Ritz values
#: it leaves are exact to about eps / separation (`_lam_error_bounds`)
_ARPACK_TOL = math.sqrt(np.finfo(float).eps)


def _edge_pattern(n_sub):
    """Local COO pattern of the P1 pair on one edge of n_sub elements.

    Local node numbering is 0..n_sub along the edge.  Returns rows, cols and
    the stiffness and mass entries of a unit-weight edge before their scale
    factors weight/h and weight*h/6.
    """
    a = np.arange(n_sub)
    rows = np.concatenate([a, a, a + 1, a + 1])
    cols = np.concatenate([a, a + 1, a, a + 1])
    ones = np.ones(n_sub)
    k_unit = np.concatenate([ones, -ones, -ones, ones])
    m_unit = np.concatenate([2.0 * ones, ones, ones, 2.0 * ones])
    return rows, cols, k_unit, m_unit


def _edges_triplets(chains, weights, length, clamped):
    """COO triplets of the P1 pair on many edges of one length at once.

    Row e of chains holds the global node ids along edge e (its n_sub + 1
    local nodes) and weights[e] its measure weight.  clamped drops every
    entry touching the last local node (a Dirichlet tip).  The triplets come
    edge by edge, each in `_edge_pattern` order.
    """
    n_sub = chains.shape[1] - 1
    h = length / n_sub
    rows, cols, k_unit, m_unit = _edge_pattern(n_sub)
    if clamped:
        keep = (rows != n_sub) & (cols != n_sub)
        rows, cols, k_unit, m_unit = rows[keep], cols[keep], k_unit[keep], m_unit[keep]
    w = np.asarray(weights, dtype=float)[:, np.newaxis]
    return (
        np.take(chains, rows, axis=1).ravel(),
        np.take(chains, cols, axis=1).ravel(),
        ((w / h) * k_unit).ravel(),
        ((w * h / 6.0) * m_unit).ravel(),
    )


def _subdivisions(length, h):
    return max(1, round(length / h))


def _chains(L, n_rungs, sym_class, h, image):
    """Node ids along the rail edges and the rungs of `_half_ladder`, the
    node count, and whether the rung tips are clamped (the antisymmetric
    class).

    Row e of rails holds the ids along rail edge e from vertex e to vertex
    e + 1, row i of rungs those along rung i from vertex i to its tip (a
    clamped tip keeps id 0, unused).  Vertices are 0, 1, ..., then come the
    rung nodes, rung by rung and each from its tip down, then the rail
    edges' interior nodes in x.  Eliminated in this order a vertex fills
    only the three pairs among its rail and rung neighbours, and a rung or a
    rail edge nothing, so the pencil factors in its own order as sparsely as
    under minimum degree.
    """
    n_vert = n_rungs + image
    n_rail = _subdivisions(1.0, h)
    n_rung = _subdivisions(0.5 * L, h)
    clamped = sym_class is not SymmetryClass.SYMMETRIC
    new_per_rung = n_rung - 1 if clamped else n_rung
    verts = np.arange(n_vert)
    rungs = np.zeros((n_rungs, n_rung + 1), dtype=np.intc)
    rungs[:, 0] = verts[:n_rungs]
    rungs[:, new_per_rung:0:-1] = (
        n_vert + np.arange(n_rungs * new_per_rung).reshape(n_rungs, -1)
    )
    first = n_vert + n_rungs * new_per_rung
    rails = np.empty((n_vert - 1, n_rail + 1), dtype=np.intc)
    rails[:, 0], rails[:, -1] = verts[:-1], verts[1:]
    rails[:, 1:-1] = first + np.arange((n_vert - 1) * (n_rail - 1)).reshape(n_vert - 1, -1)
    return rails, rungs, first + (n_vert - 1) * (n_rail - 1), clamped


def _half_ladder(L, rung_w, sym_class, h, image=False):
    """Sparse real (K, M) of a half ladder whose rail vertex i carries a rung
    weighted by rung_w[i] in both forms.

    Unit rail edges join consecutive vertices; the rail simply stops after
    the outermost ones (natural ends, no boundary rows needed).  Rungs have
    length L/2 with a free tip for the symmetric class and a clamped tip for
    the antisymmetric class.  image appends one rung-less rail vertex on the
    right.  Node ids (`_chains`): rail vertices 0, 1, ..., then each rung's
    nodes from its tip (if free) down to its vertex, then each rail edge's
    interior nodes.
    """
    if not 0.0 < h <= 0.1:
        raise ValueError("mesh step h must lie in (0, 0.1]")
    rails, rungs, n, clamped = _chains(L, len(rung_w), sym_class, h, image)
    parts = [
        _edges_triplets(rails, np.ones(rails.shape[0]), 1.0, False),
        _edges_triplets(rungs, rung_w, 0.5 * L, clamped),
    ]
    rows, cols, k_vals, m_vals = (np.concatenate(t) for t in zip(*parts))
    K = sp.coo_matrix((k_vals, (rows, cols)), (n, n)).tocsc()
    M = sp.coo_matrix((m_vals, (rows, cols)), (n, n)).tocsc()
    return K, M


def _check_cells(n_cells):
    if n_cells < 5:
        raise ValueError("need at least 5 cells per side")


def truncated_half_ladder(L, mu, sym_class, n_cells, h=DEFAULT_H):
    """Sparse (K, M, vertex_ids) for the half ladder truncated at +-n_cells.

    Rail vertices j = -n_cells..n_cells, each carrying its rung (see
    `_half_ladder`); the rung at j = 0 is weighted by mu in both forms.
    Returns the assembled pencil and the rail-vertex dof indices keyed by j.
    The oracle solves only its even mirror sector (`_even_sector`).
    """
    _check_cells(n_cells)
    rung_w = np.ones(2 * n_cells + 1)
    rung_w[n_cells] = mu
    K, M = _half_ladder(L, rung_w, SymmetryClass.parse(sym_class), h)
    vertex_ids = {j: j + n_cells for j in range(-n_cells, n_cells + 1)}
    return K, M, vertex_ids


def _even_sector(L, mu, sym_class, n_cells, h):
    """The pencil (K, M) of `truncated_half_ladder` restricted to functions
    even under j -> -j, the only mirror sector that can hold a trapped mode
    (module docstring).

    An even function's energy is the defect rung's plus twice the right
    half's: halved, it is the half ladder j = 0..n_cells with the defect rung
    weighted mu/2 and a natural condition at j = 0.
    """
    _check_cells(n_cells)
    rung_w = np.ones(n_cells + 1)
    rung_w[0] = 0.5 * mu
    return _half_ladder(L, rung_w, sym_class, h)


@dataclass
class OracleResult:
    """Defect eigenvalues found by the truncated-graph solve.

    n_cells, n_dofs and inertia_count describe the run that produced the
    eigenvalues (the wider one once the convergence check adopts it);
    converged is True only when that check ran and the two runs agreed.
    n_dofs is the size of the even mirror sector's pencil, about half the
    truncated ladder's; inertia_count is that pencil's Sylvester inertia
    count of eigenvalues in the search window, and equals lams.size.
    lam_error_bounds[i] bounds the distance, in lambda, from lams[i] to the
    eigenvalue it approximates of the even-sector operator ARPACK ran on,
    the oracle's own LU at the window centre, left by ARPACK's early stop
    (`_lam_error_bounds`); it does not cover the pencil's round-off floor,
    which is larger.
    """

    omegas: np.ndarray
    lams: np.ndarray
    n_cells: int
    h: float
    n_dofs: int
    converged: bool
    inertia_count: int
    lam_error_bounds: np.ndarray
    history: list = field(default_factory=list)


def _gap_window(gap):
    """Open lambda window (lo, hi) that the oracle searches in a gap.

    The gap is shrunk by EDGE_MARGIN of its width at a band edge.  A gap
    starting at omega = 0 has no band below it, so its window starts at
    lambda = 0.
    """
    pad = EDGE_MARGIN * gap.width
    lam_lo = (gap.omega_b + pad) ** 2 if gap.omega_b > 0.0 else 0.0
    return lam_lo, (gap.omega_t - pad) ** 2


def _lam_error_bounds(lams, sigma, half_width):
    """A-posteriori bounds on |lams[i] - lambda_i| for Ritz values that ARPACK
    accepted with shift sigma in a window of the given half-width about it.

    The shift-invert operator (K - sigma*M)^-1 M, applied through the
    oracle's LU (`_arpack`), is self-adjoint in the M-inner product, with
    eigenvalues 1/(lambda - sigma); the bound is relative to that operator,
    not to the pencil's round-off floor.  ARPACK stops once
    the residual of each Ritz value theta_i = 1/(lams[i] - sigma) is at most
    rho_i = _ARPACK_TOL * |theta_i| (ARPACK Users' Guide, section 4.6), and
    a self-adjoint Ritz value then lies within rho_i**2 / delta_i of an
    eigenvalue, delta_i being its separation from the rest of the spectrum.
    Every eigenvalue outside the window has |1/(lambda - sigma)| <=
    1 / half_width, so delta_i >= min(|theta_i| - 1/half_width,
    |theta_i - theta_j| for j != i).  Mapped back by lambda = sigma + 1/theta,
    the error is at most rho_i**2 / (delta_i * theta_i**2) = _ARPACK_TOL**2 /
    delta_i.
    """
    theta = 1.0 / (lams - sigma)
    delta = np.abs(theta) - 1.0 / half_width
    if theta.size > 1:
        apart = np.abs(theta[:, np.newaxis] - theta[np.newaxis, :])
        np.fill_diagonal(apart, np.inf)
        delta = np.minimum(delta, apart.min(axis=1))
    return _ARPACK_TOL**2 / delta


def _krylov_size(count, n):
    """ARPACK's Krylov size `ncv` for count wanted eigenvalues of an n-dof
    pencil: larger than count, at most n.

    scipy's default, max(2 count + 1, 20), spends most of each restart on
    vectors that a window of one or two eigenvalues does not need.  ARPACK
    time, the oracle's LU excluded, summed over a set of even-sector
    pencils at their window centres, against ncv (median of 11 interleaved
    runs, one OpenBLAS thread on a 2-core host):

        pencils (count, dofs)                          6     8    10    12    16    20
        L = 2, h = 4e-3, 20 cells, 6 (1-2, 10k)      123   113   114   127   122   149 ms
        L = 2, h = 1e-3, 40 cells, 4 (1-2, 81k)      591   595   544   573   556   709 ms
        random L, h = 8e-3, 20 cells, 5 (1-2, 5-9k)   77    71    73    81    78    89 ms

    The first row is the benchmark's oracle pencils, the second gate 4's,
    the third the error-bound property test's.
    """
    return min(n, max(2 * count + 1, 10))


def _arpack(K, M, sigma, count, v0, tol):
    """The count eigenvalues of the sector pencil (K, M) nearest sigma, by
    ARPACK in shift-invert mode, unsorted.

    The oracle factors K - sigma*M itself, with partial pivoting in the
    pencil's own comb order (`_chains`), and hands the LU to ARPACK as its
    inverse operator, so ARPACK runs no ordering pass and no factorisation
    of its own.  K and M come from one triplet list (`_half_ladder`), so
    they share one compressed pattern and the shift is formed on their data
    arrays, on a copy of the index arrays, which SuperLU may sort in place.
    """
    shifted = sp.csc_matrix(
        (K.data - sigma * M.data, K.indices.copy(), K.indptr.copy()), shape=K.shape
    )
    lu = spla.splu(shifted, permc_spec="NATURAL", panel_size=1)
    inverse = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    return spla.eigsh(
        K, k=count, M=M, sigma=sigma, which="LM", v0=v0, tol=tol,
        ncv=_krylov_size(count, K.shape[0]), OPinv=inverse,
        return_eigenvectors=False,
    )


def _sector_eigs(K, M, v0, lam_lo, lam_hi):
    """Eigenvalues of the sector pencil inside (lam_lo, lam_hi), their error
    bounds and their inertia count; ARPACK runs only if the count is nonzero,
    from the start vector v0, on the oracle's LU at the window centre
    (`_arpack`)."""
    # K is an assembled P1 stiffness with positive weights, so it is positive
    # semi-definite and no eigenvalue lies below lam_lo <= 0: no factorisation
    below_lo = count_below(K, M, lam_lo) if lam_lo > 0.0 else 0
    count = count_below(K, M, lam_hi) - below_lo
    if count == 0:
        return np.zeros(0), np.zeros(0), 0
    # the window is symmetric about sigma, so the count eigenvalues nearest
    # sigma are exactly the ones inside it
    sigma = 0.5 * (lam_lo + lam_hi)
    vals = _arpack(K, M, sigma, count, v0, _ARPACK_TOL)
    found = int(np.count_nonzero((vals > lam_lo) & (vals < lam_hi)))
    if found != count:
        raise RuntimeError(
            f"inertia counts {count} eigenvalue(s) in the window but ARPACK "
            f"found {found}"
        )
    vals = np.sort(vals)
    # the odd sector's eigenvalues are not in this operator's spectrum, so
    # the separations in the bound are taken within the even sector
    return vals, _lam_error_bounds(vals, sigma, 0.5 * (lam_hi - lam_lo)), count


def _gap_eigs_once(L, mu, sym_class, lam_lo, lam_hi, n_cells, h):
    K, M = _even_sector(L, mu, sym_class, n_cells, h)
    # a fixed start vector: without v0 ARPACK draws one from process-global state
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    lams, bounds, count = _sector_eigs(K, M, v0, lam_lo, lam_hi)
    return lams, bounds, K.shape[0], count


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
    gap width) to avoid grazing the band edges; a gap that starts at
    omega = 0 (the first antisymmetric gap) has no band below it, so its
    window starts at lambda = 0, where the count below is zero without a
    factorisation (the stiffness is positive semi-definite).  Only the even
    mirror sector of the truncated pencil is solved (`_even_sector`): the odd
    sector holds no trapped mode (module docstring), only truncation-end
    states and P1 band states.  Sylvester inertia at the window ends counts
    the even sector's eigenvalues inside the window; when that count is
    nonzero, one ARPACK shift-invert solve at the window centre, on the
    oracle's own LU there (`_arpack`), asks for exactly that many, and
    raises if a different number lands inside, so every counted eigenvalue
    is returned.  ARPACK stops at a relative residual of sqrt(eps): for
    this self-adjoint operator the Ritz-value error is quadratic in the
    residual, and lam_error_bounds[i] bounds it per eigenvalue
    (`_lam_error_bounds`; 4e-16 to 2e-15 on the benchmark pencils, 4e-14 for
    a mode near a gap edge).  The bound is relative to the operator of the
    oracle's LU and leaves out the pencil's round-off floor (Ritz value against Rayleigh quotient, 2.2e-13
    to 1.6e-11 relative on the benchmark pencils' even sectors).  With
    check_convergence the run is repeated with a wider truncation and flagged converged if
    every eigenvalue moved by less than ORACLE_REL_TOL relatively; the wider
    run's eigenvalues, bounds and size are then returned.  converged only
    means that the two truncations agree: both can miss the same slowly
    decaying mode near a gap edge, and in 72 of 479 random cases (h=8e-3,
    20 cells) the flag read True while the count or a value disagreed with
    the closed form.
    """
    sym_class = SymmetryClass.parse(sym_class)
    lam_lo, lam_hi = _gap_window(gap)
    lams, bounds, ndof, count = _gap_eigs_once(
        L, mu, sym_class, lam_lo, lam_hi, n_cells, h
    )
    history = [(n_cells, lams)]
    converged = False
    if check_convergence:
        lams2, bounds2, ndof2, count2 = _gap_eigs_once(
            L, mu, sym_class, lam_lo, lam_hi, n_cells + 8, h
        )
        history.append((n_cells + 8, lams2))
        if lams.size == lams2.size and np.all(
            np.abs(lams2 - lams) <= ORACLE_REL_TOL * np.abs(lams)
        ):
            converged = True
            n_cells, lams, bounds, ndof, count = (
                n_cells + 8, lams2, bounds2, ndof2, count2
            )
    return OracleResult(
        np.sqrt(lams), lams, n_cells, h, ndof, converged, count, bounds, history
    )


def _open_cell(L, sym_class, h):
    """Dense real (K, M) of one ladder period, untied: vertex 0 with its rung
    and the unit rail edge to its rung-less image, vertex 1."""
    K, M = _half_ladder(L, [1.0], sym_class, h, image=True)
    return K.toarray(), M.toarray()


def _bloch_tie(A, theta):
    """The open-cell form A with its image vertex tied to exp(i*theta) times
    vertex 0: T^H A T on every dof but the image, vertex 0 first.

    With h <= 0.1 vertices 0 and 1 share no element, so each tied entry is
    one product, or A[0, 0] + A[1, 1] on the diagonal, and the result is
    exactly Hermitian.
    """
    phase = np.exp(1j * theta)
    out = np.empty((A.shape[0] - 1,) * 2, dtype=complex)
    out[1:, 1:] = A[2:, 2:]
    out[0, 1:] = A[0, 2:] + phase.conjugate() * A[1, 2:]
    out[1:, 0] = A[2:, 0] + phase * A[2:, 1]
    out[0, 0] = A[0, 0] + A[1, 1]
    return out


def oracle_band_edges(L, sym_class, n_bands, *, h=0.01):
    """First n_bands Bloch bands of the unperturbed ladder, as (lo, hi) in omega.

    Band n is spanned by the n-th eigenvalues of the cell tied periodically
    and antiperiodically (theta = 0 and pi), the only two pencils solved.
    The tie changes only the row and column of vertex 0: the image folds
    onto it, and h <= 0.1 keeps vertices 0 and 1 apart.  So take any lambda
    that is not an eigenvalue of the cell clamped at vertex 0.  By Haynsworth
    inertia additivity, the count of eigenvalues below lambda is the clamped
    count, plus one when the scalar Schur complement onto vertex 0,
    alpha(lambda) - 2 beta(lambda) cos(theta) with alpha and beta real, is
    negative.  That count is monotone in cos(theta), so every lambda_n(theta)
    is monotone on [0, pi] (the spectrum is even in theta) and takes its
    extremes at the ends.  Flat bands come out with lo == hi up to
    discretisation error.
    """
    K, M = _open_cell(L, SymmetryClass.parse(sym_class), h)
    ends = np.array([
        scipy.linalg.eigh(
            _bloch_tie(K, theta), _bloch_tie(M, theta),
            eigvals_only=True, subset_by_index=(0, n_bands - 1),
        )
        for theta in (0.0, math.pi)
    ])
    lo = np.sqrt(np.clip(ends.min(axis=0), 0.0, None))
    hi = np.sqrt(ends.max(axis=0))
    return list(zip(lo, hi))
