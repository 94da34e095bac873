"""The bracketed-Newton solver of the graph route (`rootfind.falling_roots`).

The property tests solve cot x - c on (k pi, (k+1) pi), which falls from
+inf to -inf between poles at both bracket ends and has the closed-form root
k pi + atan2(1, c).  A tracked copy of every bracket checks the certificate:
each point lies strictly inside its bracket when it is evaluated, and each
value moves one end by its sign.  The last test pins the round counts of the
graph route's two largest calls, which bisection would double.  The
bisection `rootfind.bisect_root` runs through the same loop; its tests pin
its end rules and, on brackets where f is nowhere exactly 0 at an evaluated
point, its roots.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import bands, modes
from ladderspec.params import SymmetryClass
from ladderspec.rootfind import bisect_root, falling_roots

XTOLS = (0.0, 1e-12, 1e-10)

_slopes = st.floats(-1e6, 1e6).filter(lambda c: c != 0.0)
_problems = st.lists(st.tuples(st.integers(0, 15), _slopes), min_size=1, max_size=8)


def _cot_minus(x, c):
    """(cot x - c, its slope -1/sin^2 x)."""
    s = np.sin(x)
    return np.cos(x) / s - c, -1.0 / (s * s)


def _solve_tracked(problems, xtol, slope=None):
    """Roots of cot x - c on (k pi, (k+1) pi) for each (k, c), and every
    evaluated point with its tracked bracket; slope overrides f's slope."""
    k, c = (np.array(col, dtype=float) for col in zip(*problems))
    lo, hi = k * math.pi, (k + 1) * math.pi
    tracked_lo, tracked_hi = lo.copy(), hi.copy()
    points = []

    def f(x, ci, idx):
        # bisection to neighbouring floats takes at most about 75 rounds here
        assert len(points) < 200 * c.size, "the brackets stopped closing"
        value, s = _cot_minus(x, ci)
        points.extend(zip(x, tracked_lo[idx], tracked_hi[idx]))
        above = value > 0.0
        tracked_lo[idx[above]] = x[above]
        tracked_hi[idx[~above]] = x[~above]
        return value, s if slope is None else np.full_like(s, slope)

    roots = falling_roots(f, lo, hi, c, np.arange(c.size), xtol=xtol)
    return roots, k * math.pi + np.arctan2(1.0, c), points


@settings(max_examples=60)
@given(problems=_problems, xtol=st.sampled_from(XTOLS))
def test_roots_are_certified_and_within_half_the_tolerance(problems, xtol):
    roots, exact, points = _solve_tracked(problems, xtol)
    assert all(a < x < b for x, a, b in points)
    # the final bracket holds the root, so its midpoint is within xtol / 2;
    # at xtol = 0 the bracket is two neighbouring floats
    assert np.all(np.abs(roots - exact) <= 0.5 * xtol + 4.0 * np.spacing(exact))


@pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("xtol", XTOLS)
def test_a_slope_without_a_finite_step_falls_back_to_the_midpoint(slope, xtol):
    problems = [(0, 0.3), (3, -250.0), (7, 4e5)]
    roots, exact, points = _solve_tracked(problems, xtol, slope=slope)
    assert points and all(x == 0.5 * (a + b) for x, a, b in points)
    assert np.all(np.abs(roots - exact) <= 0.5 * xtol + 4.0 * np.spacing(exact))


@settings(max_examples=40)
@given(problems=_problems, xtol=st.sampled_from(XTOLS))
def test_a_root_does_not_depend_on_its_batch(problems, xtol):
    batch = _solve_tracked(problems, xtol)[0]
    alone = [_solve_tracked([p], xtol)[0][0] for p in problems]
    assert batch.tobytes() == np.array(alone).tobytes()


def _count_rounds(monkeypatch, module):
    """Patch module's falling_roots to record the rounds of each call."""
    rounds = []

    def counted(f, lo, hi, *params, xtol):
        rounds.append(0)

        def g(*args):
            rounds[-1] += 1
            return f(*args)

        return falling_roots(g, lo, hi, *params, xtol=xtol)

    monkeypatch.setattr(module, "falling_roots", counted)
    return rounds


@pytest.mark.parametrize("cls", list(SymmetryClass))
def test_graph_route_calls_take_at_most_16_rounds(monkeypatch, cls):
    # the L = 40, omega <= 50 scans of the benchmark: 637-638 gap-edge and
    # 1,272-1,274 defect brackets per call; bisection takes 30-31 rounds on
    # each call, bracketed Newton 11-12
    gap_rounds = _count_rounds(monkeypatch, bands)
    eig_rounds = _count_rounds(monkeypatch, modes)
    found = bands.gaps(40, cls, 50, tol=1e-10)
    modes.discrete_eigenvalues(40, (0.25, 0.5), cls, found, xtol=1e-10)
    assert len(gap_rounds) == len(eig_rounds) == 1
    assert gap_rounds[0] <= 16 and eig_rounds[0] <= 16, (gap_rounds, eig_rounds)


def _square_minus_2(x):
    return x * x - 2.0


# bisect_root's roots on [1, 2] at the default xtol and at xtol = 0: x^2 - 2
# rises across the bracket and cos falls; neither is exactly 0 at a midpoint
BISECT_PINS = [
    (_square_minus_2, 1e-12, "0x1.6a09e667f3800p+0"),
    (_square_minus_2, 0.0, "0x1.6a09e667f3bccp+0"),
    (math.cos, 1e-12, "0x1.921fb54442800p+0"),
    (math.cos, 0.0, "0x1.921fb54442d18p+0"),
]


@pytest.mark.parametrize("f,xtol,root", BISECT_PINS)
def test_bisect_root_pinned(f, xtol, root):
    kw = {} if xtol == 1e-12 else {"xtol": xtol}
    assert bisect_root(f, 1.0, 2.0, **kw) == float.fromhex(root)


@pytest.mark.parametrize("f,xtol,root", BISECT_PINS)
def test_bisect_root_infinite_end_counts_by_its_sign(f, xtol, root):
    # replace the end value by an infinity of the same sign: same root
    def g(x):
        return math.copysign(math.inf, f(x)) if x in (1.0, 2.0) else f(x)

    assert bisect_root(g, 1.0, 2.0, xtol=xtol) == float.fromhex(root)


def test_bisect_root_returns_an_end_where_f_is_0():
    evals = []

    def f(x):
        evals.append(x)
        return x - 1.0

    assert bisect_root(f, 1.0, 3.0) == 1.0
    assert bisect_root(lambda x: 3.0 - x, 1.0, 3.0) == 3.0
    assert evals == [1.0, 3.0]


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -math.inf, lambda x: -x * x])
def test_bisect_root_rejects_equal_end_signs(f):
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(f, 0.5, 2.0)
