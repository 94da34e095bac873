"""Every exported function that takes a symmetry class parses it: the strings
'sym' and 'antisym' give the very output of the enum members, or the very
error, and whatever the function stores carries the enum."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp

import ladderspec
from ladderspec import LadderParams, SymmetryClass, discrete_eigenvalues, first_n_gaps

S, A = SymmetryClass.SYMMETRIC, SymmetryClass.ANTISYMMETRIC
OMEGAS = np.array([0.5, 1.3, 2.0, math.pi, 4.4])
CELL = LadderParams(2.0, 0.4)
DEFECT = LadderParams(2.0, 0.4, 0.25)


def _gap(cls):
    return first_n_gaps(2.0, cls, 1)[0]


# keyword arguments of one small call per function, but for sym_class; an
# argument that depends on the class (a gap, an eigenvalue) is built from
# the enum member
SAMPLES = {
    "phi_L": lambda cls: dict(omega=OMEGAS, L=2.0),
    "g_value": lambda cls: dict(omega=OMEGAS, L=2.0),
    "g_mu_value": lambda cls: dict(omega=OMEGAS, L=2.0, mu=0.25),
    "dispersion_residual": lambda cls: dict(theta=0.7, omega=OMEGAS, L=2.0),
    "theta_root": lambda cls: dict(omega=OMEGAS, L=2.0),
    # omega = 0.5 lies in the first symmetric band (which raises) and in the
    # bottom antisymmetric gap
    "capital_F": lambda cls: dict(omega=0.5, L=2.0),
    "reflection_root": lambda cls: dict(omega=0.5, L=2.0),
    "special_points": lambda cls: dict(L=2.0, omega_max=10.0),
    "in_essential_spectrum": lambda cls: dict(omega=OMEGAS, L=2.0),
    "essential_bands": lambda cls: dict(L=2.0, omega_max=10.0),
    "gaps": lambda cls: dict(L=2.0, omega_max=10.0),
    "first_n_gaps": lambda cls: dict(L=2.0, n=3),
    "bloch_curves": lambda cls: dict(L=2.0, omega_max=6.0, theta_grid=[0.0, 1.0, math.pi]),
    "discrete_eigenvalues": lambda cls: dict(L=2.0, mu=0.25, gap=first_n_gaps(2.0, cls, 2)),
    "flat_bands": lambda cls: dict(L="1", omega_max=7.0),
    "truncated_half_ladder": lambda cls: dict(L=2.0, mu=0.25, n_cells=5, h=0.05),
    "oracle_gap_eigenvalues": lambda cls: dict(
        L=2.0, mu=0.25, gap=_gap(cls), h=0.02, n_cells=6, check_convergence=False
    ),
    "oracle_band_edges": lambda cls: dict(L=2.0, n_bands=2, h=0.05),
    "build_cell_mesh": lambda cls: dict(params=CELL, h=0.1),
    "build_supercell_mesh": lambda cls: dict(params=DEFECT, n_cells=4, h=0.1),
    "fem_bloch_bands": lambda cls: dict(params=CELL, nev=2, h=0.1),
    "localized_modes": lambda cls: dict(params=DEFECT, window=(1.0, 4.0), n_cells=4, h=0.1),
    "quasimode_detail": lambda cls: dict(
        params=DEFECT,
        graph_ev=discrete_eigenvalues(2.0, 0.25, cls, _gap(cls))[0],
        h=0.1,
        n_cells=4,
    ),
}


def _takes_a_class():
    """Names of the exported functions with a sym_class parameter."""
    return sorted(
        name
        for name in ladderspec.__all__
        if inspect.isfunction(getattr(ladderspec, name))
        and "sym_class" in inspect.signature(getattr(ladderspec, name)).parameters
    )


def _same(a, b):
    """a and b are equal, bit for bit and type for type, through containers,
    dataclasses and sparse matrices; NaN equals NaN."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if sp.issparse(a):
        return sp.issparse(b) and a.format == b.format and all(
            _same(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data")
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def _outcome(fn, kwargs):
    """("value", what fn returned) or ("raised", (exception type, message))."""
    try:
        return "value", fn(**kwargs)
    except Exception as exc:  # any error: it is compared, not handled
        return "raised", (type(exc), str(exc))


def test_samples_cover_every_exported_function_with_a_class():
    assert _takes_a_class() == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_string_and_enum_give_the_same_output(name):
    fn = getattr(ladderspec, name)
    outcomes = {}
    for cls in (S, A):
        kwargs = SAMPLES[name](cls)
        by_enum = _outcome(fn, dict(kwargs, sym_class=cls))
        by_text = _outcome(fn, dict(kwargs, sym_class=cls.value))
        assert by_enum[0] == by_text[0], (name, cls, by_enum, by_text)
        assert _same(by_enum[1], by_text[1]), (name, cls)
        outcomes[cls] = by_enum
    # the sample tells the classes apart, so a string read as the other
    # class would fail above
    assert not _same(outcomes[S], outcomes[A]), name


def test_stored_classes_are_enum_members():
    gap = _gap(S)
    assert ladderspec.gaps(2.0, "sym", 6.0)[0].sym_class is S
    assert ladderspec.flat_bands("2", "sym", 7.0).sym_class is S
    ev = ladderspec.discrete_eigenvalues(2.0, 0.25, "sym", gap)[0]
    assert ev.sym_class is S and ev.gap is gap


@pytest.mark.parametrize("cls", [S, A])
def test_dataclasses_built_with_a_string_store_the_enum(cls):
    gap = _gap(cls)
    ev = discrete_eigenvalues(2.0, 0.25, cls, gap)[0]
    for obj in (gap, ev, ladderspec.flat_bands("2", cls, 7.0)):
        by_text = dataclasses.replace(obj, sym_class=cls.value)
        assert by_text.sym_class is cls
        assert _same(by_text, obj)
    # a string-built eigenvalue gives the enum-built eigenfunction, bit for bit
    by_text = ladderspec.GraphEigenvalue(ev.omega, 0.25, cls.value, gap)
    build = ladderspec.build_eigenfunction
    assert _same(build(by_text, 2.0), build(ev, 2.0))
