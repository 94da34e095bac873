"""Workload definitions: the operations of one pass, their inputs and checks.

Every operation goes through a public entry point of the package: the
``ladderspec`` CLI (``ladderspec.cli.main(argv)``, in-process) where a
subcommand exists, the module function otherwise.  Each operation carries
the reference it is checked against and the tolerance of each field:

* FEM band/gap edges: their squares (the eigenvalues) within ``FEM_REL``
  of the largest squared edge of the same field, so that an edge at zero,
  which is the square root of round-off, is held to the spectrum's scale;
* supercell eigenvalues and pseudo-mode residuals: ``FEM_REL`` relative;
* both against values recorded from the program (``reference.json``,
  written by ``record.py``);
* graph band/gap edges and defect eigenvalues: ``GRAPH_ABS`` in omega,
  against recorded values, plus equal counts and gap types; defect
  eigenvalue counts per gap must also follow the gap-type rule;
* 1-D oracle eigenvalues: ``ORACLE_REL`` relative against the closed-form
  ``modes.discrete_eigenvalues``, with equal counts (an independent route,
  so no recorded value is needed).

The workload seed sets the ``--seed``/start-vector argument and picks the
defect weights from ``MU_SET``, the weights for which references exist.
"""

from __future__ import annotations

import contextlib
import io
import json
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Program entry points are looked up on their modules at call time, so a
# traced run sees the wrapped functions.
from ladderspec import cli, fem, graph1d
from ladderspec.bands import first_n_gaps
from ladderspec.modes import discrete_eigenvalues
from ladderspec.params import LadderParams, SymmetryClass

REFERENCE_FILE = Path(__file__).with_name("reference.json")

FEM_REL = 1e-8
GRAPH_ABS = 1e-9
ORACLE_REL = 1e-4

MU_SET = (0.25, 0.4, 0.5)

# Oracle pencil: first L = 2 gap, h = 4e-3, 20 cells per side (about 20k
# dofs); gate 4 uses h = 1e-3 and 40 cells, eight times the size.
ORACLE_H = 4e-3
ORACLE_CELLS = 20

# First same-eps FEM gap (omega_b, omega_t) of fem_bloch_bands at L = 2,
# h = eps/4, 17 thetas, recorded once from the program.  The antisymmetric
# entry is the bottom gap below the first band.  Windows follow the gate-7
# rule, so no Bloch sweep runs inside the defect workload.
FEM_GAPS = {
    ("sym", 0.1): (1.3282277039514456, 2.061524473894085),
    ("sym", 0.05): (1.2777275845438316, 1.9832114552668965),
    ("antisym", 0.1): (0.0, 0.8941296710170198),
}

GRAPH_OMEGA_MAX = 50.0

WORKLOADS = ("bloch_cell", "defect_window", "graph_scan")


class OpFailed(RuntimeError):
    """The program signalled failure (nonzero CLI exit)."""


@dataclass
class Op:
    """One timed call into the program and how to check what it returned.

    ``key`` names the inputs (not the seed) and indexes ``reference.json``.
    ``call(prefix)`` is the timed part; ``read(prefix, raw)`` turns its
    output into the plain dict that ``fields`` describes, one
    (kind, tolerance) pair per key with kind ``rel``, ``sq``, ``abs`` or
    ``eq`` (see ``_compare``).
    """

    key: str
    call: Callable[[str], object]
    read: Callable[[str, object], dict]
    fields: dict
    ref: dict | None = None
    rule: Callable[[dict], list] | None = None
    writes_csv: bool = False
    warm: bool = False
    tiny: bool = False

    def problems(self, out):
        found = list(self.rule(out)) if self.rule else []
        if self.ref is None:
            return found + [f"{self.key}: no reference recorded"]
        for name, (kind, tol) in self.fields.items():
            if name not in out:
                continue
            if name not in self.ref:
                found.append(f"{self.key}: no reference for {name}")
                continue
            found += _compare(f"{self.key} {name}", out[name], self.ref[name], kind, tol)
        return found


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [y for item in x for y in _flat(item)]
    return [x]


def _compare(label, got, want, kind, tol):
    """Mismatches of one field: ``eq`` exact, ``abs`` absolute, ``rel``
    relative, ``sq`` squares within tol times the largest reference square."""
    got, want = _flat(got), _flat(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, reference has {len(want)}"]
    scale = max((w * w for w in want), default=0.0) if kind == "sq" else None
    bad = []
    for i, (g, w) in enumerate(zip(got, want)):
        if kind == "eq":
            ok = g == w
        elif kind == "abs":
            ok = abs(g - w) <= tol
        elif kind == "sq":
            ok = abs(g * g - w * w) <= tol * scale
        else:
            ok = abs(g - w) <= tol * abs(w)
        if not ok:
            bad.append(f"{label}[{i}]: {g!r} vs reference {w!r} ({kind} tol {tol:g})")
    return bad[:3]


# -- CLI operations ---------------------------------------------------------


def _cli_call(argv):
    def call(prefix):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", prefix])
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
        return rc

    return call


def _report(prefix):
    with open(prefix + ".json") as fh:
        return json.load(fh)


def _read_fem_bands(prefix, _raw):
    rep = _report(prefix)
    return {
        "bands": rep["bands"],
        "gaps": [[g["omega_b"], g["omega_t"]] for g in rep["gaps"]],
    }


def _read_localized(prefix, _raw):
    rep = _report(prefix)
    return {"lambdas": [row[1] for row in rep["tables"]["modes"]["rows"]]}


def _read_graph_bands(prefix, _raw):
    rep = _report(prefix)
    return {
        "bands": rep["bands"],
        "flat_band_count": rep["diagnostics"]["flat_band_count"],
    }


def _read_graph_gaps(prefix, _raw):
    rep = _report(prefix)
    return {
        "gaps": [[g["omega_b"], g["omega_t"]] for g in rep["gaps"]],
        "types": [g["type"] for g in rep["gaps"]],
    }


def _read_graph_eigs(prefix, _raw):
    rep = _report(prefix)
    out = {"gap_types": [g["type"] for g in rep["gaps"]], "per_gap": {}}
    for e in rep["diagnostics"]["eigenvalues"]:
        out.setdefault(f"mu={e['mu']!r}", []).append(e["omega"])
        slot = out["per_gap"].setdefault(f"mu={e['mu']!r}", {})
        slot[e["gap"]] = slot.get(e["gap"], 0) + 1
    return out


def _gap_type_rule(sym_class, mus):
    """Gate-3 rule: defect eigenvalues per gap for a weight mu < 1."""

    def rule(out):
        bad = []
        for mu in mus:
            counts = out["per_gap"].get(f"mu={mu!r}", {})
            for gi, gtype in enumerate(out["gap_types"], 1):
                got = counts.get(gi, 0)
                if sym_class == "sym":
                    allowed = (2,) if gtype == "i" else (1,)
                else:
                    allowed = (1, 2)
                if got not in allowed:
                    bad.append(
                        f"graph.eigs {sym_class} mu={mu}: gap {gi} type {gtype} "
                        f"has {got} eigenvalue(s), rule allows {allowed}"
                    )
        return bad[:3]

    return rule


# -- workloads --------------------------------------------------------------


def bloch_cell_ops(seed):
    """Bloch sweeps of the periodicity cell, 80 to 230 dofs per pencil."""
    cells = [
        ("2", "sym", 0.4, 2, True),
        ("2", "sym", 0.2, 2, False),
        ("2", "antisym", 0.2, 2, False),
        ("1/2", "sym", 0.1, 12, False),
    ]
    ops = []
    for L, cls, eps, nev, warm in cells:
        argv = ["fem", "bands", "--L", L, "--class", cls, "--eps", repr(eps),
                "--nev", str(nev), "--seed", str(seed)]
        ops.append(Op(
            key=f"fem.bands L={L} {cls} eps={eps!r} nev={nev}",
            call=_cli_call(argv),
            read=_read_fem_bands,
            fields={"bands": ("sq", FEM_REL), "gaps": ("sq", FEM_REL)},
            writes_csv=True,
            warm=warm,
            tiny=warm,
        ))
    return ops


def _window(cls, eps):
    gb, gt = FEM_GAPS[(cls, eps)]
    return (gb * (1 + 1e-3)) ** 2, (gt * (1 - 1e-3)) ** 2


def defect_window_ops(seed, mus):
    """Interior windows of large real sparse pencils: oracle, supercells, SuperLU."""
    ops = []
    for cls_text in ("antisym", "sym"):
        cls = SymmetryClass.parse(cls_text)
        gap = first_n_gaps(2.0, cls, 1)[0]
        for mu in mus:
            closed = [ev.omega for ev in discrete_eigenvalues(2.0, mu, cls, gap)]
            ops.append(Op(
                key=f"graph1d.oracle L=2 {cls_text} gap=1 mu={mu!r}",
                call=lambda _p, cls=cls, gap=gap, mu=mu: graph1d.oracle_gap_eigenvalues(
                    2.0, mu, cls, gap, h=ORACLE_H, n_cells=ORACLE_CELLS,
                    check_convergence=False,
                ),
                read=lambda _p, raw: {"omegas": [float(w) for w in raw.omegas]},
                fields={"omegas": ("rel", ORACLE_REL)},
                ref={"omegas": closed},
                warm=(cls_text == "antisym" and mu == mus[0]),
                tiny=(cls_text == "antisym" and mu == mus[0]),
            ))
    mu = mus[0]
    for cls_text, eps in (("sym", 0.1), ("sym", 0.05), ("antisym", 0.1)):
        lo, hi = _window(cls_text, eps)
        argv = ["fem", "localized", "--L", "2", "--class", cls_text, "--eps", repr(eps),
                "--mu", repr(mu), "--window", f"{lo!r},{hi!r}", "--seed", str(seed)]
        ops.append(Op(
            key=f"fem.localized L=2 {cls_text} eps={eps!r} mu={mu!r}",
            call=_cli_call(argv),
            read=_read_localized,
            fields={"lambdas": ("rel", FEM_REL)},
            writes_csv=True,
            tiny=(cls_text, eps) == ("sym", 0.1),
        ))
    cls = SymmetryClass.SYMMETRIC
    ev = discrete_eigenvalues(2.0, mu, cls, first_n_gaps(2.0, cls, 1)[0])[0]
    for eps in (0.1, 0.05):
        ops.append(Op(
            key=f"fem.quasimode L=2 sym eps={eps!r} mu={mu!r}",
            call=lambda _p, eps=eps: fem.quasimode_detail(
                LadderParams(2.0, eps, mu), cls, ev, eps / 4.0
            ),
            read=lambda _p, raw: {
                k: raw[k] for k in ("ratio_dual", "ratio_mass", "h1_norm", "n_dofs")
            },
            fields={
                "ratio_dual": ("rel", FEM_REL),
                "ratio_mass": ("rel", FEM_REL),
                "h1_norm": ("rel", FEM_REL),
                "n_dofs": ("eq", None),
            },
            tiny=eps == 0.1,
        ))
    return ops


def graph_scan_ops(seed, mus):
    """Closed-form graph route: band scan, gap classification, defect roots."""
    ops = []
    specs = []
    for cls in ("sym", "antisym"):
        common = ["--L", "40", "--class", cls, "--omega-max", repr(GRAPH_OMEGA_MAX)]
        specs += [
            (f"graph.bands L=40 {cls}", ["graph", "bands"] + common, "bands", cls, False),
            (f"graph.gaps L=40 {cls}", ["graph", "gaps"] + common, "gaps", cls, False),
            (f"graph.eigs L=40 {cls}", ["graph", "eigs"] + common, "eigs", cls, False),
        ]
    specs += [
        ("graph.bands L=1/2 antisym",
         ["graph", "bands", "--L", "1/2", "--class", "antisym"], "bands", "antisym", True),
        ("graph.eigs L=10pi/7 sym",
         ["graph", "eigs", "--L", "10pi/7", "--class", "sym"], "eigs", "sym", True),
    ]
    readers = {
        "bands": (_read_graph_bands, {"bands": ("abs", GRAPH_ABS),
                                      "flat_band_count": ("eq", None)}),
        "gaps": (_read_graph_gaps, {"gaps": ("abs", GRAPH_ABS), "types": ("eq", None)}),
    }
    for key, argv, kind, cls, small in specs:
        argv = argv + ["--seed", str(seed)]
        if kind == "eigs":
            argv += ["--mu", ",".join(repr(m) for m in mus)]
            read = _read_graph_eigs
            fields = {f"mu={m!r}": ("abs", GRAPH_ABS) for m in mus}
            fields["gap_types"] = ("eq", None)
            rule = _gap_type_rule(cls, mus)
        else:
            (read, fields), rule = readers[kind], None
        ops.append(Op(
            key=key, call=_cli_call(argv), read=read, fields=fields, rule=rule,
            writes_csv=True, warm=small and kind == "eigs", tiny=small,
        ))
    return ops


def mus_for_seed(seed):
    """Two distinct defect weights from MU_SET, chosen by the seed."""
    pairs = list(itertools.combinations(MU_SET, 2))
    return pairs[seed % len(pairs)]


def build(workload, seed):
    """Operations of one pass, with recorded references attached."""
    if workload == "bloch_cell":
        ops = bloch_cell_ops(seed)
    elif workload == "defect_window":
        ops = defect_window_ops(seed, mus_for_seed(seed))
    elif workload == "graph_scan":
        ops = graph_scan_ops(seed, mus_for_seed(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    refs = load_references()
    for op in ops:
        if op.ref is None and op.key in refs:
            op.ref = refs[op.key]
    return ops


def load_references():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
