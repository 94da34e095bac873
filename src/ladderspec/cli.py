"""Command-line front end.

Subcommands, each accepting only the flags it reads:

* ``graph bands|gaps|eigs`` — closed-form spectra of the limit quantum graph
  below ``--omega-max``; ``eigs`` takes a comma list ``--mu``;
* ``fem bands``            — 2-D finite-element Bloch bands of one eps-ladder;
* ``fem localized``        — trapped modes of a defective supercell inside
  ``--window``, or inside the FEM gap ``--gap`` found by a Bloch sweep that
  ``--nev`` and ``--ntheta`` size;
* ``study band-edges|eigenvalues|quasimode`` — sweeps over a comma list of at
  least three ``--eps`` with a log-log slope fit against the graph reference
  in the first gap: its edges, its defect eigenvalue, or the residual of the
  fattened graph eigenfunction.

Every flag is declared once, with one rule that validates its value, and
each command lists the flags it reads.  Every run writes ``<out>.csv``, the
command's main table, and ``<out>.json``; the JSON embeds the schema version
and a ``config`` of the values the run used: ``command``, ``L`` as given,
``L_value``, then one key per flag read (``--out`` aside), named after the
flag.  The fem and study commands keep their table in the JSON as well; the
graph commands do not, since their JSON holds every entry of it already
(``GRAPH_TABLE``).  Numeric CSV cells use 17 significant digits so doubles
round-trip exactly.  Exit codes: 0 success, 2 configuration error (the
message names the flag), 3 numerical failure.

The environment variable ``LADDERSPEC_THREADS`` caps BLAS/OpenMP thread
counts; it must be read before the numeric stack is imported, which is why
solver imports live inside the command functions.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .params import ExactLength, LadderParams, SymmetryClass


class ConfigError(ValueError):
    """Invalid command-line configuration; message names the offending flag."""


def _apply_thread_env():
    raw = os.environ.get("LADDERSPEC_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"LADDERSPEC_THREADS: expected a positive integer, got {raw!r}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


# -- flags ------------------------------------------------------------------

_UNUSED = object()  # a rule's verdict: this run does not read the flag


class Flag:
    """One command-line flag: its argparse keywords and its validation rule.

    rule(flag, value, resolved) sees the values of the flags resolved before
    it and returns the value the command uses, or _UNUSED when this run does
    not read the flag; it raises ConfigError naming the flag.  The value's
    key, in the resolved values and in the report config, is the flag name
    without its leading dashes and with "_" for "-".  Flags marked exclusive
    share one mutually exclusive group.
    """

    def __init__(self, name, rule=None, *, exclusive=False, **kwargs):
        self.name, self.rule, self.exclusive, self.kwargs = name, rule, exclusive, kwargs
        self.key = name[2:].replace("-", "_")


def _need(ok, flag, message):
    if not ok:
        raise ConfigError(f"{flag}: {message}")


def _positive(flag, x, _):
    _need(0 < x < math.inf, flag, f"must be positive and finite, got {x}")
    return x


def _at_least(n):
    def rule(flag, x, _):
        _need(x >= n, flag, f"need at least {n}, got {x}")
        return x

    return rule


def _float_list(flag, raw):
    try:
        vals = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {raw!r}")
    _need(vals, flag, "empty list")
    return vals


def _numbers(ok, what, *, at_least=None):
    """Rule for one number, or for a comma list of at least at_least values,
    none repeated, each passing ok."""

    def rule(flag, raw, resolved):
        vals = _float_list(flag, raw)
        if at_least is None:
            _need(len(vals) == 1, flag, f"this command takes one value, got {raw!r}")
        else:
            _need(len(set(vals)) == len(vals) >= at_least, flag,
                  f"need {at_least} or more values, none repeated, got {raw!r}")
        for x in vals:
            _need(ok(x, resolved), flag, f"{x} {what}")
        return vals if at_least else vals[0]

    return rule


def _mesh_step(flag, h, resolved):
    """The mesh step of each eps (a list when --eps is one), eps/4 by default."""
    _need(h is None or h > 0, flag, f"must be positive, got {h}")
    eps = resolved["eps"]
    many = isinstance(eps, list)
    steps = []
    for e in eps if many else [eps]:
        s = e / 4 if h is None else h
        _need(s <= e / 3 + 1e-12, flag, f"{s} too coarse for eps={e}; need h <= eps/3")
        steps.append(s)
    return steps if many else steps[0]


def _window(flag, raw, _):
    if raw is None:
        return _UNUSED
    vals = _float_list(flag, raw)
    _need(len(vals) == 2 and vals[0] < vals[1], flag,
          f"expected 'lo,hi' with lo < hi, got {raw!r}")
    _need(all(map(math.isfinite, vals)), flag, f"expected finite numbers, got {raw!r}")
    return vals


def _gap_search(n, default):
    """Rule for a flag of fem localized read only to find the --gap window."""

    def rule(flag, x, resolved):
        if resolved["window"] is not None:
            _need(x is None, flag, "sizes the FEM gap search, which --window skips")
            return _UNUSED
        return _at_least(n)(flag, default if x is None else x, resolved)

    return rule


def _in_eps_range(e, resolved):
    return 0 < e < min(1.0, resolved["L"].value / 2)


def _is_positive_finite(m, _):
    return 0 < m < math.inf


_OMEGA_MAX = Flag("--omega-max", _positive, type=float, default=10 * math.pi,
                  help="frequency cutoff (omega units)")
_TOL = Flag("--tol", _positive, type=float, default=1e-10,
            help="root-finding tolerance of the closed-form graph values")
# read by no graph command; accepted because perfbench/workloads.py passes it
_GRAPH_SEED = Flag("--seed", lambda *_: _UNUSED, type=int, help=argparse.SUPPRESS)
_EPS = Flag("--eps", _numbers(_in_eps_range, "outside (0, min(1, L/2))"),
            required=True, help="rung thickness")
_EPS_LIST = Flag("--eps", _numbers(_in_eps_range, "outside (0, min(1, L/2))", at_least=3),
                 required=True, help="comma list of at least 3 distinct rung thicknesses")
_MU = Flag("--mu", _numbers(_is_positive_finite, "is not positive and finite"), default="1.0",
           help="defect width factor")
_MU_LIST = Flag("--mu", _numbers(_is_positive_finite, "is not positive and finite", at_least=1),
                default="1.0", help="comma list of defect width factors")
_H = Flag("--h", _mesh_step, type=float, help="mesh step (default eps/4, at most eps/3)")
_NEV = Flag("--nev", _at_least(1), type=int, default=5, help="Bloch bands per quasimomentum")
_NTHETA = Flag("--ntheta", _at_least(3), type=int, default=17,
               help="quasimomenta on [0, pi] of the Bloch sweep")
_SEED = Flag("--seed", type=int, default=0, help="start vector of the sparse eigensolver")
_CELLS = Flag("--cells", _at_least(4), type=int, default=10,
              help="supercell cells on each side of the defect")
_SLOPE_MAX = Flag("--slope-max", type=float, default=1.2, help="largest slope that passes")


def _slope_min(default):
    return Flag("--slope-min", type=float, default=default, help="least slope that passes")


_LOCALIZED = [
    _EPS, _MU, _H, _CELLS, _SEED,
    Flag("--dump-modes", action="store_true",
         help="write eigenvectors in the mesh text format"),
    Flag("--window", _window, exclusive=True, help="lambda window 'lo,hi'"),
    Flag("--gap", _gap_search(1, 1), exclusive=True, type=int,
         help="1-based FEM gap of the unperturbed ladder, searched when no "
              "--window is given (default 1)"),
    Flag("--nev", _gap_search(1, 5), type=int,
         help="Bloch bands of the gap search (default 5)"),
    Flag("--ntheta", _gap_search(3, 17), type=int,
         help="quasimomenta of the gap search (default 17)"),
]


def _resolve(args):
    """The values of the command's flags, and the config of those it reads."""
    try:
        L = ExactLength.parse(args.L)
    except ValueError as exc:
        raise ConfigError(f"--L: {exc}")
    cls = SymmetryClass.parse(getattr(args, "class"))
    values = {"L": L, "class": cls,
              "out": args.out or f"ladderspec_{args.group}_{args.action}"}
    config = {"command": f"{args.group}.{args.action}", "L": args.L,
              "L_value": L.value, "class": str(cls)}
    for f in COMMANDS[args.group][args.action][1]:
        raw = getattr(args, f.key)
        val = f.rule(f.name, raw, values) if f.rule else raw
        if val is _UNUSED:
            values[f.key] = None
        else:
            values[f.key] = config[f.key] = val
    return values, config


def _write(report, out, table):
    """Write the table to <out>.csv, then the report to <out>.json; a graph
    command's table goes to the CSV only (see GRAPH_TABLE)."""
    report.write_table_csv(table, out + ".csv")
    if table == GRAPH_TABLE:
        del report.tables[table]
    report.save(out + ".json")
    print(f"wrote {out}.json and {out}.csv")


#: The table of the graph commands, written to the CSV alone: the JSON holds
#: every entry of it (omega in `bands`, `gaps` or `diagnostics.eigenvalues`,
#: lambda = omega**2, the gap type in `gaps`, a flat band as lo == hi in
#: `bands`, the class in `config`, mu in `diagnostics.eigenvalues`).
GRAPH_TABLE = "spectrum"
GRAPH_COLUMNS = ["omega", "lambda", "kind", "gap_type", "class", "mu"]


def _fem_gap_window(v, eps, h, index):
    """FEM gaps of the unperturbed eps-ladder, the lambda window of gap index
    and the solver of the Bloch sweep of --nev and --ntheta.

    The gaps ascend, the antisymmetric gap 1 being (0, bottom of band 1).
    Only gap 1 is known to be the graph's gap 1: at L = 4 sym, eps 0.05, FEM
    gap 3 is (3.172, 3.195) and graph gap 3 (3.837, 4.263).  index is
    1-based; the window is the gap shrunk by 1e-6 of its lambda width at both
    ends, so it never grazes a band edge.
    """
    from .fem import fem_bloch_bands

    bloch = fem_bloch_bands(
        LadderParams(v["L"].value, eps, 1.0), v["class"], v["nev"], h,
        n_theta=v["ntheta"], seed=v["seed"],
    )
    gaps = bloch.gaps
    if v["class"] is SymmetryClass.ANTISYMMETRIC:
        gaps = [{"omega_b": 0.0, "omega_t": bloch.bands[0][0]}] + gaps
    if len(gaps) < index:
        raise RuntimeError(
            f"requested FEM gap {index} at eps={eps} but only {len(gaps)} "
            "found; raise --nev or pass --window explicitly"
        )
    lam_b, lam_t = gaps[index - 1]["omega_b"] ** 2, gaps[index - 1]["omega_t"] ** 2
    pad = 1e-6 * (lam_t - lam_b)
    return gaps, (lam_b + pad, lam_t - pad), bloch.diagnostics["solver"]


# -- graph commands ---------------------------------------------------------


def cmd_graph_bands(v, config):
    """Bands and flat bands of the limit graph."""
    from .bands import essential_bands
    from .modes import flat_bands
    from .report import SpectralReport

    cls, name = v["class"], config["class"]
    bands = essential_bands(v["L"].value, cls, v["omega_max"], tol=v["tol"])
    rows = []
    for b in bands:
        if b.is_flat:
            rows.append((b.omega_lo, b.lambda_lo, "flat", "", name, ""))
        else:
            rows.append((b.omega_lo, b.lambda_lo, "band_edge", "", name, ""))
            rows.append((b.omega_hi, b.lambda_hi, "band_edge", "", name, ""))
    fb = flat_bands(v["L"], cls, v["omega_max"])
    report = SpectralReport(
        kind="graph_bands",
        config=config,
        bands=[[b.omega_lo, b.omega_hi] for b in bands],
        diagnostics={
            "n_bands": len(bands),
            "flat_band_count": len(fb.omegas),
            "flat_in_qc": fb.in_qc,
            "flat_omegas": list(fb.omegas),
        },
    )
    report.add_table(GRAPH_TABLE, GRAPH_COLUMNS, rows)
    _write(report, v["out"], GRAPH_TABLE)
    print(f"{len(bands)} bands below omega_max={v['omega_max']:g}")
    return 0


def cmd_graph_gaps(v, config):
    """Typed gaps of the limit graph."""
    from .bands import gaps
    from .report import SpectralReport

    cls, name = v["class"], config["class"]
    found = gaps(v["L"].value, cls, v["omega_max"], tol=v["tol"])
    rows = []
    for g in found:
        rows.append((g.omega_b, g.lambda_b, "gap_b", g.gap_type, name, ""))
        rows.append((g.omega_t, g.lambda_t, "gap_t", g.gap_type, name, ""))
    report = SpectralReport(
        kind="graph_gaps",
        config=config,
        gaps=[
            {"omega_b": g.omega_b, "omega_t": g.omega_t, "type": g.gap_type}
            for g in found
        ],
        diagnostics={"n_gaps": len(found)},
    )
    report.add_table(GRAPH_TABLE, GRAPH_COLUMNS, rows)
    _write(report, v["out"], GRAPH_TABLE)
    for i, g in enumerate(found, 1):
        print(f"gap {i}: ({g.omega_b:.4f}, {g.omega_t:.4f}) type {g.gap_type}")
    return 0


def cmd_graph_eigs(v, config):
    """Defect eigenvalues of the limit graph in every gap."""
    from .bands import gaps
    from .modes import discrete_eigenvalues
    from .report import SpectralReport

    cls, name, L = v["class"], config["class"], v["L"].value
    found = gaps(L, cls, v["omega_max"], tol=v["tol"])
    # each eigenvalue carries one of the Gap objects of found: number it by
    # identity, which hashes no dataclass field
    index = {id(g): gi for gi, g in enumerate(found, 1)}
    rows = []
    eigen_info = []
    for ev in discrete_eigenvalues(L, v["mu"], cls, found, xtol=v["tol"]):
        rows.append((ev.omega, ev.lam, "eig", ev.gap.gap_type, name, ev.mu))
        eigen_info.append(
            {"omega": ev.omega, "lambda": ev.lam, "mu": ev.mu, "gap": index[id(ev.gap)]}
        )
    report = SpectralReport(
        kind="graph_eigs",
        config=config,
        gaps=[
            {"omega_b": g.omega_b, "omega_t": g.omega_t, "type": g.gap_type}
            for g in found
        ],
        eigenvalues=[e["omega"] for e in eigen_info],
        diagnostics={"eigenvalues": eigen_info},
    )
    report.add_table(GRAPH_TABLE, GRAPH_COLUMNS, rows)
    _write(report, v["out"], GRAPH_TABLE)
    print(f"{len(rows)} defect eigenvalue(s) across {len(found)} gap(s)")
    return 0


# -- fem commands -----------------------------------------------------------


def cmd_fem_bands(v, config):
    """Bloch bands of the periodic eps-ladder."""
    from .fem import fem_bloch_bands

    report = fem_bloch_bands(
        LadderParams(v["L"].value, v["eps"], 1.0), v["class"], v["nev"], v["h"],
        n_theta=v["ntheta"], seed=v["seed"],
    )
    if report.diagnostics["solver"] == "dense":
        del config["seed"]  # only a Lanczos solve draws a start vector
    report.config = config
    _write(report, v["out"], "theta_eigenvalues")
    for i, (lo, hi) in enumerate(report.bands, 1):
        print(f"band {i}: omega in ({lo:.4f}, {hi:.4f})")
    return 0


def cmd_fem_localized(v, config):
    """Trapped modes of a defective supercell in a lambda window."""
    from .fem import localized_modes

    window, fem_gaps, sweep = v["window"], [], None
    if window is None:
        fem_gaps, window, sweep = _fem_gap_window(v, v["eps"], v["h"], v["gap"])
    report = localized_modes(
        LadderParams(v["L"].value, v["eps"], v["mu"]),
        v["class"],
        window,
        v["cells"],
        v["h"],
        seed=v["seed"],
        dump_prefix=(v["out"] + "_mode") if v["dump_modes"] else None,
    )
    if sweep != "lanczos" and report.diagnostics["inertia_count"] == 0:
        del config["seed"]  # no Lanczos solve drew a start vector
    report.config = config
    report.diagnostics["fem_gaps"] = fem_gaps
    if v["window"] is None:
        report.diagnostics["window"] = list(window)
    _write(report, v["out"], "modes")
    n = len(report.eigenvalues)
    print(f"{n} localized mode(s) in lambda window ({window[0]:.6g}, {window[1]:.6g})")
    for row in report.tables["modes"]["rows"]:
        print(
            f"  omega={row[0]:.6f} lambda={row[1]:.6f} r_hat={row[2]:.4f} "
            f"center_mass={row[3]:.3f}"
        )
    return 0


# -- convergence studies ----------------------------------------------------


def _loglog_slope(rows, col):
    """Least-squares slope of log row[col] against log eps = row[0] over a study's rows."""
    import numpy as np

    xs = np.log([r[0] for r in rows])
    ys = np.log(np.maximum([r[col] for r in rows], 1e-300))
    return float(np.polyfit(xs, ys, 1)[0])


def _first_gap(v):
    """The first gap of the limit graph, the reference of every study."""
    from .bands import first_n_gaps

    return first_n_gaps(v["L"].value, v["class"], 1, tol=v["tol"])[0]


def _graph_eigenvalue(v, what):
    from .modes import discrete_eigenvalues

    evs = discrete_eigenvalues(v["L"].value, v["mu"], v["class"], _first_gap(v), xtol=v["tol"])
    if not evs:
        raise RuntimeError(f"no graph eigenvalue {what} for mu={v['mu']}")
    return evs[0]


def _eps_descending(v):
    return sorted(zip(v["eps"], v["h"]), reverse=True)


def _study(v, config, what, columns, rows, verdict):
    from .report import SpectralReport

    report = SpectralReport(kind=f"study_{what}", config=config, diagnostics=verdict)
    report.add_table("study", columns, rows)
    _write(report, v["out"], "study")
    print(f"{what}: " + ", ".join(f"{k}={val}" for k, val in verdict.items()))
    return 0


def cmd_study_band_edges(v, config):
    """First-gap FEM edges against the graph edges over eps."""
    ref = _first_gap(v)
    gb, gt = ref.omega_b, ref.omega_t
    rows, solvers = [], set()
    for eps, h in _eps_descending(v):
        fem_gaps, _, solver = _fem_gap_window(v, eps, h, 1)
        solvers.add(solver)
        fb, ft = fem_gaps[0]["omega_b"], fem_gaps[0]["omega_t"]
        rows.append((eps, h, fb, ft, gb, gt, max(abs(fb - gb), abs(ft - gt))))
    if solvers == {"dense"}:
        del config["seed"]
    slope = _loglog_slope(rows, -1)
    lo, hi = v["slope_min"], v["slope_max"]
    columns = ["eps", "h", "omega_b_fem", "omega_t_fem", "omega_b_graph",
               "omega_t_graph", "max_edge_error"]
    verdict = {"slope": slope, "slope_window": [lo, hi], "pass": lo <= slope <= hi}
    return _study(v, config, "band-edges", columns, rows, verdict)


def cmd_study_eigenvalues(v, config):
    """Supercell trapped-mode eigenvalue against the graph eigenvalue over eps."""
    from .fem import localized_modes

    lam_ref = _graph_eigenvalue(v, "in the first gap").lam
    rows = []
    for eps, h in _eps_descending(v):
        _, window, _ = _fem_gap_window(v, eps, h, 1)
        loc = localized_modes(
            LadderParams(v["L"].value, eps, v["mu"]), v["class"], window, v["cells"], h,
            seed=v["seed"],
        )
        lams = [row[1] for row in loc.tables["modes"]["rows"]]
        if not lams:
            raise RuntimeError(f"no localized mode found at eps={eps}")
        lam_eps = min(lams, key=lambda x: abs(x - lam_ref))
        rows.append((eps, h, lam_eps, lam_ref, abs(lam_eps - lam_ref)))
    errs = [r[-1] for r in rows]
    monotone = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    slope = _loglog_slope(rows, -1)
    lo = v["slope_min"]
    columns = ["eps", "h", "lambda_fem", "lambda_graph", "error"]
    verdict = {"slope": slope, "monotone": monotone, "slope_min": lo,
               "pass": monotone and slope >= lo}
    return _study(v, config, "eigenvalues", columns, rows, verdict)


def cmd_study_quasimode(v, config):
    """Residual ratio of the fattened graph eigenfunction over eps."""
    from .fem import quasimode_detail

    ev = _graph_eigenvalue(v, "to fatten")
    rows = []
    for eps, h in _eps_descending(v):
        det = quasimode_detail(
            LadderParams(v["L"].value, eps, v["mu"]), v["class"], ev, h, n_cells=v["cells"]
        )
        rows.append((eps, h, det["ratio_dual"], det["ratio_mass"]))
    expo_dual = _loglog_slope(rows, 2)
    expo_mass = _loglog_slope(rows, 3)
    lo = v["slope_min"]
    columns = ["eps", "h", "ratio_dual", "ratio_mass"]
    verdict = {"exponent_dual": expo_dual, "exponent_mass": expo_mass,
               "exponent_min": lo, "pass": expo_dual >= lo}
    return _study(v, config, "quasimode", columns, rows, verdict)


_GRAPH = [_OMEGA_MAX, _TOL, _GRAPH_SEED]

#: group -> action -> (command, its flags besides --L, --class and --out)
COMMANDS = {
    "graph": {
        "bands": (cmd_graph_bands, _GRAPH),
        "gaps": (cmd_graph_gaps, _GRAPH),
        "eigs": (cmd_graph_eigs, _GRAPH + [_MU_LIST]),
    },
    "fem": {
        "bands": (cmd_fem_bands, [_EPS, _H, _NEV, _NTHETA, _SEED]),
        "localized": (cmd_fem_localized, _LOCALIZED),
    },
    "study": {
        "band-edges": (cmd_study_band_edges, [_TOL, _EPS_LIST, _H, _NEV, _NTHETA, _SEED,
                                              _slope_min(0.8), _SLOPE_MAX]),
        "eigenvalues": (cmd_study_eigenvalues, [_TOL, _EPS_LIST, _MU, _H, _NEV, _NTHETA,
                                                _SEED, _CELLS, _slope_min(0.8)]),
        "quasimode": (cmd_study_quasimode,
                      [_TOL, _EPS_LIST, _MU, _H, _CELLS, _slope_min(0.5)]),
    },
}
GROUP_HELP = {"graph": "limit quantum graph", "fem": "2-D finite elements",
              "study": "eps sweeps with log-log slope fits"}


@functools.cache
def _build_parser():
    """The parser of every command, built once per process.

    Parsing leaves it unchanged, and in-process callers such as the perfbench
    workloads run main() many times.
    """
    p = argparse.ArgumentParser(
        prog="ladderspec",
        description="Spectra of the periodic ladder waveguide and its limit graph.",
        allow_abbrev=False,
    )
    groups = p.add_subparsers(dest="group", required=True)
    for group, actions in COMMANDS.items():
        sub = groups.add_parser(group, help=GROUP_HELP[group], allow_abbrev=False)
        sub = sub.add_subparsers(dest="action", required=True)
        for action, (cmd, flags) in actions.items():
            sp = sub.add_parser(action, help=cmd.__doc__, allow_abbrev=False)
            sp.add_argument("--L", default="2", help="rail distance: 2, 1/2, 10pi/7, ...")
            sp.add_argument("--class", default="sym", choices=["sym", "antisym"],
                            help="symmetry family")
            exclusive = any(f.exclusive for f in flags) and sp.add_mutually_exclusive_group()
            for f in flags:
                (exclusive if f.exclusive else sp).add_argument(f.name, dest=f.key, **f.kwargs)
            sp.add_argument("--out", help="output path prefix "
                            f"(default ladderspec_{group}_{action})")
    return p


def main(argv=None):
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        values, config = _resolve(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        # before the run: a command may write into it (fem localized --dump-modes)
        os.makedirs(os.path.dirname(values["out"]) or ".", exist_ok=True)
        return COMMANDS[args.group][args.action][0](values, config)
    except Exception as exc:  # numerical failure path: report and signal 3
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
