"""Spectral toolkit for a thin periodic ladder waveguide and its limit graph.

The package has two computational routes that deliberately never share code:
closed-form/band-function machinery for the limit quantum graph
(`dispersion`, `bands`, `modes`, cross-checked by the brute-force `graph1d`
oracle), and 2-D P1 finite elements for the actual thin waveguide (`mesh`,
`fem`, backed by the solvers in `eigen`).  `cli` exposes the lot as the
``ladderspec`` command.

Heavy submodules are loaded lazily so that importing the package (e.g. to
read the version, or in the CLI before thread limits are applied) does not
pull in the whole scientific stack.
"""

from importlib import import_module

from .params import ExactLength, LadderParams, SymmetryClass

__version__ = "0.1.0"

_EXPORTS = {
    "dispersion": [
        "phi_L",
        "phi_2",
        "g_value",
        "g_mu_value",
        "dispersion_residual",
        "theta_root",
        "f_plus",
        "f_minus",
        "capital_F",
        "reflection_root",
    ],
    "bands": [
        "Band",
        "Gap",
        "BlochCurves",
        "CoverReport",
        "special_points",
        "in_essential_spectrum",
        "essential_bands",
        "gaps",
        "first_n_gaps",
        "bloch_curves",
        "spectrum_cover_check",
    ],
    "modes": [
        "GraphEigenvalue",
        "GraphEigenfunction",
        "FlatBandSet",
        "discrete_eigenvalues",
        "build_eigenfunction",
        "flat_bands",
    ],
    "graph1d": [
        "OracleResult",
        "truncated_half_ladder",
        "oracle_gap_eigenvalues",
        "oracle_band_edges",
    ],
    "eigen": ["EigenResult", "eig_dense", "eig_sparse_shift_invert"],
    "mesh": ["Mesh", "build_cell_mesh", "build_supercell_mesh", "rectangle_mesh"],
    "fem": [
        "assemble_p1",
        "fem_bloch_bands",
        "localized_modes",
        "per_cell_mass",
        "quasimode_detail",
        "neumann_rectangle_eigs",
    ],
    "report": ["SpectralReport"],
}

_ATTR_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(
    ["ExactLength", "LadderParams", "SymmetryClass", "__version__"]
    + list(_ATTR_TO_MODULE)
)


def __getattr__(name):
    try:
        module = _ATTR_TO_MODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
