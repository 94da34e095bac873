"""Per-layer tracing of ladderspec from outside the package.

`Tracer.install()` wraps the public functions named in TARGETS (and the
scipy kernels the package calls) and rebinds every alias of each wrapped
function object found in the ``ladderspec.*`` module namespaces, matched by
identity, so a function re-exported or imported under another name is
traced wherever it is called from.  Each call records a span (name, start,
end, parent) in memory plus counts read from its arguments and return
value.  `Tracer.uninstall()` restores the original objects.

`layer_metrics(spans, counts, missing)` turns one pass's spans into the per-layer
metrics of METRICS.  A metric whose traced name no longer resolves is
reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root span
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


def _nodes(args, kwargs, out, span):
    span.info["nodes"] = out.n_nodes


def _dense_order(args, kwargs, out, span):
    span.info["n"] = (args[0] if args else kwargs["K"]).shape[0]


def _lanczos(args, kwargs, out, span):
    span.info["steps"] = out.iterations
    span.info["converged"] = bool(out.converged)
    span.info["pairs"] = int(out.values.size + out.n_outside_window)


def _lu_fill(args, kwargs, out, span):
    span.info["nnz"] = int(out.L.nnz + out.U.nnz)


def _arpack_k(args, kwargs, out, span):
    span.info["k"] = int(kwargs["k"] if "k" in kwargs else (args[1] if len(args) > 1 else 6))


def _oracle_kept(args, kwargs, out, span):
    span.info["kept"] = int(out.lams.size)


def _in_window(args, kwargs, out, span):
    span.info["in_window"] = len(out.eigenvalues)


def _file_bytes(args, kwargs, out, span):
    path = args[-1] if len(args) > 1 else kwargs["path"]
    span.info["bytes"] = os.path.getsize(path)


def _count_evals(args, kwargs, span):
    """Replace bisect_root's f by a wrapper that counts its evaluations."""
    span.info["evals"] = 0
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        span.info["evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


# span name -> (module, qualified name, annotate(args, kwargs, out, span), prepare)
TARGETS = {
    "build_cell_mesh": ("ladderspec.mesh", "build_cell_mesh", _nodes, None),
    "build_supercell_mesh": ("ladderspec.mesh", "build_supercell_mesh", _nodes, None),
    "assemble_p1": ("ladderspec.fem", "assemble_p1", None, None),
    "fem_bloch_bands": ("ladderspec.fem", "fem_bloch_bands", None, None),
    "localized_modes": ("ladderspec.fem", "localized_modes", _in_window, None),
    "quasimode_detail": ("ladderspec.fem", "quasimode_detail", None, None),
    "eig_dense": ("ladderspec.eigen", "eig_dense", _dense_order, None),
    "eig_sparse_shift_invert": ("ladderspec.eigen", "eig_sparse_shift_invert", _lanczos, None),
    "scipy.eigh": ("scipy.linalg", "eigh", None, None),
    "scipy.splu": ("scipy.sparse.linalg", "splu", _lu_fill, None),
    "scipy.eigsh": ("scipy.sparse.linalg", "eigsh", _arpack_k, None),
    "truncated_half_ladder": ("ladderspec.graph1d", "truncated_half_ladder", None, None),
    "oracle_gap_eigenvalues": ("ladderspec.graph1d", "oracle_gap_eigenvalues", _oracle_kept, None),
    "essential_bands": ("ladderspec.bands", "essential_bands", None, None),
    "gaps": ("ladderspec.bands", "gaps", None, None),
    "discrete_eigenvalues": ("ladderspec.modes", "discrete_eigenvalues", None, None),
    "bisect_root": ("ladderspec.rootfind", "bisect_root", None, _count_evals),
    "report.save": ("ladderspec.report", "SpectralReport.save", _file_bytes, None),
    "report.write_table_csv": (
        "ladderspec.report", "SpectralReport.write_table_csv", _file_bytes, None,
    ),
}

# Scalar dispersion functions: counted, not timed (they are called per
# frequency point, so a span each would swamp the trace).
COUNTED = {
    name: ("ladderspec.dispersion", name)
    for name in ("phi_L", "phi_2", "g_value", "g_mu_value", "capital_F", "dispersion_residual")
}


def resolve(module_name, qualname):
    """(owner, attribute, object) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED}
        self.missing = []
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED}

    def _span_wrapper(self, name, fn, annotate, prepare):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs, span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(args, kwargs, out, span)
            return out

        return wrapper

    def _rebind(self, owner, fn, wrapper):
        """Point the owner's attribute and every ladderspec alias of fn at wrapper."""
        namespaces = [owner] + [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "ladderspec" or mod_name.startswith("ladderspec."))
        ]
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for key, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, fn))

    def install(self):
        self.missing = []
        for name, (module_name, qualname, annotate, prepare) in TARGETS.items():
            found = resolve(module_name, qualname)
            if found is None:
                self.missing.append(name)
                continue
            owner, _, fn = found
            self._rebind(owner, fn, self._span_wrapper(name, fn, annotate, prepare))
        for name, (module_name, qualname) in COUNTED.items():
            found = resolve(module_name, qualname)
            if found is None:
                self.missing.append(name)
                continue
            owner, _, fn = found
            self._rebind(owner, fn, self._count_wrapper(name, fn))

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._undo:
            ns, key, fn = self._undo.pop()
            setattr(ns, key, fn)


# -- per-layer metrics ------------------------------------------------------


class _Pass:
    """Queries over one pass's spans."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.dur
        self.child_time = child_time

    def named(self, name, under=None):
        out = [s for s in self.spans if s.name == name]
        if under is not None:
            out = [s for s in out if self._has_ancestor(s, under)]
        return out

    def _has_ancestor(self, span, name):
        i = span.parent
        while i >= 0:
            if self.spans[i].name == name:
                return True
            i = self.spans[i].parent
        return False

    def total(self, *names, under=None):
        return sum(s.dur for n in names for s in self.named(n, under))

    def calls(self, *names, under=None):
        return sum(len(self.named(n, under)) for n in names)

    def info(self, name, key, under=None):
        return sum(s.info.get(key, 0) for s in self.named(name, under))

    def self_time(self, name):
        return sum(
            s.dur - self.child_time[i]
            for i, s in enumerate(self.spans)
            if s.name == name
        )


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: tuple  # traced names the value is computed from
    value: object  # callable(_Pass) -> float
    moves: str  # end-to-end metric and workload it should move


_EIG = ("eig_dense", "eig_sparse_shift_invert")

METRICS = [
    Metric("mesh.build_s", "s", "lower", ("build_cell_mesh", "build_supercell_mesh"),
           lambda p: p.total("build_cell_mesh", "build_supercell_mesh"),
           "wall_s on defect_window (small; should stay flat)"),
    Metric("mesh.nodes", "count", "lower", ("build_cell_mesh", "build_supercell_mesh"),
           lambda p: p.info("build_cell_mesh", "nodes") + p.info("build_supercell_mesh", "nodes"),
           "wall_s on defect_window (small; should stay flat)"),
    Metric("fem.assemble_s", "s", "lower", ("assemble_p1",),
           lambda p: p.total("assemble_p1"), "wall_s on bloch_cell, defect_window"),
    Metric("fem.assemble_calls", "count", "lower", ("assemble_p1",),
           lambda p: p.calls("assemble_p1"), "wall_s on bloch_cell, defect_window"),
    Metric("fem.bloch_self_s", "s", "lower", ("fem_bloch_bands",) + _EIG,
           lambda p: p.self_time("fem_bloch_bands"), "wall_s on bloch_cell"),
    Metric("fem.bloch_solves", "count", "lower", ("fem_bloch_bands",) + _EIG,
           lambda p: _ratio(p.calls(*_EIG, under="fem_bloch_bands"), p.calls("fem_bloch_bands")),
           "wall_s on bloch_cell"),
    Metric("fem.localized_self_s", "s", "lower", ("localized_modes",),
           lambda p: p.self_time("localized_modes"), "wall_s on defect_window"),
    Metric("fem.localized_yield", "ratio", "higher",
           ("localized_modes", "eig_sparse_shift_invert"),
           lambda p: _ratio(
               p.info("localized_modes", "in_window"),
               p.info("eig_sparse_shift_invert", "pairs", under="localized_modes"),
           ),
           "wall_s on defect_window"),
    Metric("fem.quasimode_s", "s", "lower", ("quasimode_detail",),
           lambda p: p.total("quasimode_detail"), "wall_s on defect_window"),
    Metric("eigen.dense_s", "s", "lower", ("eig_dense",),
           lambda p: p.total("eig_dense"), "wall_s on bloch_cell"),
    Metric("eigen.dense_calls", "count", "lower", ("eig_dense",),
           lambda p: p.calls("eig_dense"), "wall_s on bloch_cell"),
    Metric("eigen.dense_n", "count", "lower", ("eig_dense",),
           lambda p: _ratio(p.info("eig_dense", "n"), p.calls("eig_dense")),
           "wall_s on bloch_cell"),
    Metric("eigen.dense_kernel_s", "s", "lower", ("eig_dense", "scipy.eigh"),
           lambda p: p.total("scipy.eigh", under="eig_dense"), "wall_s on bloch_cell"),
    Metric("eigen.lanczos_s", "s", "lower", ("eig_sparse_shift_invert",),
           lambda p: p.total("eig_sparse_shift_invert"),
           "wall_s on defect_window (and bloch_cell once cells go sparse)"),
    Metric("eigen.lanczos_calls", "count", "lower", ("eig_sparse_shift_invert",),
           lambda p: p.calls("eig_sparse_shift_invert"),
           "wall_s on defect_window (and bloch_cell once cells go sparse)"),
    Metric("eigen.lanczos_steps", "count", "lower", ("eig_sparse_shift_invert",),
           lambda p: p.info("eig_sparse_shift_invert", "steps"),
           "wall_s on defect_window (and bloch_cell once cells go sparse)"),
    Metric("eigen.lanczos_unconverged", "count", "lower", ("eig_sparse_shift_invert",),
           lambda p: sum(not s.info.get("converged", True)
                         for s in p.named("eig_sparse_shift_invert")),
           "wall_s on defect_window (and bloch_cell once cells go sparse)"),
    Metric("eigen.factor_s", "s", "lower", ("scipy.splu",),
           lambda p: p.total("scipy.splu"), "wall_s on defect_window"),
    Metric("eigen.factor_calls", "count", "lower", ("scipy.splu",),
           lambda p: p.calls("scipy.splu"), "wall_s on defect_window"),
    Metric("eigen.factor_nnz", "count", "lower", ("scipy.splu",),
           lambda p: p.info("scipy.splu", "nnz"), "wall_s on defect_window"),
    Metric("graph1d.assemble_s", "s", "lower", ("truncated_half_ladder",),
           lambda p: p.total("truncated_half_ladder"), "wall_s on defect_window"),
    Metric("graph1d.arpack_s", "s", "lower", ("scipy.eigsh",),
           lambda p: p.total("scipy.eigsh"), "wall_s on defect_window"),
    Metric("graph1d.arpack_calls", "count", "lower", ("scipy.eigsh",),
           lambda p: p.calls("scipy.eigsh"), "wall_s on defect_window"),
    Metric("graph1d.arpack_k", "count", "lower", ("scipy.eigsh",),
           lambda p: p.info("scipy.eigsh", "k"), "wall_s on defect_window"),
    Metric("graph1d.yield", "ratio", "higher", ("oracle_gap_eigenvalues", "scipy.eigsh"),
           lambda p: _ratio(
               p.info("oracle_gap_eigenvalues", "kept"),
               p.info("scipy.eigsh", "k", under="oracle_gap_eigenvalues"),
           ),
           "wall_s on defect_window"),
    Metric("graph1d.self_s", "s", "lower",
           ("oracle_gap_eigenvalues", "truncated_half_ladder", "scipy.eigsh"),
           lambda p: p.self_time("oracle_gap_eigenvalues"), "wall_s on defect_window"),
    Metric("bands.essential_s", "s", "lower", ("essential_bands",),
           lambda p: p.total("essential_bands"), "wall_s on graph_scan"),
    Metric("bands.essential_calls", "count", "lower", ("essential_bands",),
           lambda p: p.calls("essential_bands"), "wall_s on graph_scan"),
    Metric("bands.gaps_self_s", "s", "lower", ("gaps", "essential_bands"),
           lambda p: p.self_time("gaps"), "wall_s on graph_scan"),
    Metric("modes.discrete_s", "s", "lower", ("discrete_eigenvalues",),
           lambda p: p.total("discrete_eigenvalues"), "wall_s on graph_scan"),
    Metric("modes.discrete_calls", "count", "lower", ("discrete_eigenvalues",),
           lambda p: p.calls("discrete_eigenvalues"), "wall_s on graph_scan"),
    Metric("rootfind.bisect_s", "s", "lower", ("bisect_root",),
           lambda p: p.total("bisect_root"), "wall_s on graph_scan"),
    Metric("rootfind.bisect_calls", "count", "lower", ("bisect_root",),
           lambda p: p.calls("bisect_root"), "wall_s on graph_scan"),
    Metric("rootfind.evals_per_root", "count", "lower", ("bisect_root",),
           lambda p: _ratio(p.info("bisect_root", "evals"), p.calls("bisect_root")),
           "wall_s on graph_scan"),
    Metric("dispersion.scalar_calls", "count", "lower", tuple(COUNTED),
           lambda p: sum(p.counts.values()), "wall_s on graph_scan"),
    Metric("report.write_s", "s", "lower", ("report.save", "report.write_table_csv"),
           lambda p: p.total("report.save", "report.write_table_csv"), "wall_s on graph_scan"),
    Metric("report.bytes", "B", "lower", ("report.save", "report.write_table_csv"),
           lambda p: p.info("report.save", "bytes") + p.info("report.write_table_csv", "bytes"),
           "wall_s on graph_scan"),
]

# Reported by run.py in the traced run, not computed from spans.
RUN_METRICS = [
    ("bench.trace_overhead_s", "s", "lower",
     "traced minus untraced wall_s of the same run, both scaled to the reference host"),
    ("bench.failed_frac", "ratio", "lower",
     "failed ops / attempted ops over all passes of the run"),
]


def layer_metrics(spans, counts, missing):
    """Per-layer metric values of one pass; metrics needing a missing name are left out."""
    p = _Pass(spans, counts)
    gone = set(missing)
    return {m.name: float(m.value(p)) for m in METRICS if not gone.intersection(m.needs)}
