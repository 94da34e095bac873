"""Command-line front end.

Subcommands:

* ``graph bands|gaps|eigs``  — closed-form spectra of the limit quantum graph;
* ``fem bands|localized``    — 2-D finite-element Bloch bands / trapped modes;
* ``study convergence``      — epsilon-sweeps with log-log slope fits against
  the graph references (band edges, defect eigenvalues, or the pseudo-mode
  residual).

Every run writes ``<out>.csv`` and ``<out>.json``; the JSON embeds the schema
version and the fully resolved configuration.  Numeric CSV cells use 17
significant digits so doubles round-trip exactly.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.

The environment variable ``LADDERSPEC_THREADS`` caps BLAS/OpenMP thread
counts; it must be read before the numeric stack is imported, which is why
solver imports live inside the command functions.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field


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


# -- argument plumbing ------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="ladderspec",
        description="Spectra of the periodic ladder waveguide and its limit graph.",
    )
    groups = p.add_subparsers(dest="group", required=True)

    def common(sp, *, eps=False, mu=False, fem=False):
        sp.add_argument("--L", default="2", help="rail distance: 2, 1/2, 10pi/7, ...")
        sp.add_argument("--class", dest="sym_class", default="sym",
                        choices=["sym", "antisym"], help="symmetry family")
        sp.add_argument("--omega-max", type=float, default=10 * math.pi,
                        help="frequency cutoff (omega units)")
        sp.add_argument("--out", default=None, help="output path prefix")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="root-finding tolerance")
        if eps:
            sp.add_argument("--eps", required=True,
                            help="rung thickness (a comma list for study convergence)")
        if mu:
            sp.add_argument("--mu", default="1.0",
                            help="defect width factor (a comma list for graph eigs)")
        if fem:
            sp.add_argument("--h", type=float, default=None,
                            help="mesh step (default eps/4)")
            sp.add_argument("--ntheta", type=int, default=17)
            sp.add_argument("--nev", type=int, default=5)
            sp.add_argument("--cells", type=int, default=10)

    graph = groups.add_parser("graph", help="limit quantum graph")
    gsub = graph.add_subparsers(dest="action", required=True)
    for name in ("bands", "gaps", "eigs"):
        sp = gsub.add_parser(name)
        common(sp, mu=(name == "eigs"))

    fem = groups.add_parser("fem", help="2-D finite elements")
    fsub = fem.add_subparsers(dest="action", required=True)
    sp = fsub.add_parser("bands")
    common(sp, eps=True, fem=True)
    sp = fsub.add_parser("localized")
    common(sp, eps=True, mu=True, fem=True)
    sp.add_argument("--window", default=None,
                    help="lambda window 'lo,hi' (default: first same-eps FEM gap)")
    sp.add_argument("--gap", type=int, default=1,
                    help="1-based FEM gap index when no --window is given")
    sp.add_argument("--dump-modes", action="store_true",
                    help="write eigenvectors in the mesh text format")

    study = groups.add_parser("study", help="parameter sweeps with slope fits")
    ssub = study.add_subparsers(dest="action", required=True)
    sp = ssub.add_parser("convergence")
    common(sp, eps=True, mu=True, fem=True)
    sp.add_argument("--what", default="band-edges",
                    choices=["band-edges", "eigenvalues", "quasimode"])
    sp.add_argument("--slope-min", type=float, default=None)
    sp.add_argument("--slope-max", type=float, default=None)
    return p


@dataclass
class StudyConfig:
    command: str
    L_text: str
    sym_class: object
    omega_max: float
    out: str
    seed: int
    tol: float
    eps: list = field(default_factory=list)
    mu: list = field(default_factory=lambda: [1.0])
    h: float | None = None
    n_theta: int = 17
    nev: int = 5
    cells: int = 10
    window: tuple | None = None
    gap_index: int = 1
    dump_modes: bool = False
    what: str = ""
    slope_min: float | None = None
    slope_max: float | None = None

    def L_exact(self):
        from .params import ExactLength

        return ExactLength.parse(self.L_text)

    def resolved(self):
        """Full configuration dict embedded in every output."""
        return {
            "command": self.command,
            "L": self.L_text,
            "L_value": self.L_exact().value,
            "sym_class": str(self.sym_class),
            "omega_max": self.omega_max,
            "eps": self.eps,
            "mu": self.mu,
            "h": self.h,
            "n_theta": self.n_theta,
            "nev": self.nev,
            "cells": self.cells,
            "window": list(self.window) if self.window else None,
            "gap_index": self.gap_index,
            "what": self.what,
            "seed": self.seed,
            "tol": self.tol,
            "slope_min": self.slope_min,
            "slope_max": self.slope_max,
        }


def _float_list(raw, flag, *, single=False):
    try:
        vals = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {raw!r}")
    if not vals:
        raise ConfigError(f"{flag}: empty list")
    if single and len(vals) > 1:
        raise ConfigError(f"{flag}: this command takes one value, got {raw!r}")
    return vals


def _resolve(args):
    from .params import ExactLength, SymmetryClass

    command = f"{args.group}.{args.action}"
    try:
        ExactLength.parse(args.L)
    except ValueError as exc:
        raise ConfigError(f"--L: {exc}")
    try:
        sym_class = SymmetryClass.parse(args.sym_class)
    except ValueError as exc:
        raise ConfigError(f"--class: {exc}")
    if not args.omega_max > 0:
        raise ConfigError(f"--omega-max: must be positive, got {args.omega_max}")
    if args.tol <= 0:
        raise ConfigError(f"--tol: must be positive, got {args.tol}")
    cfg = StudyConfig(
        command=command,
        L_text=str(args.L),
        sym_class=sym_class,
        omega_max=args.omega_max,
        out=args.out or f"ladderspec_{args.group}_{args.action}",
        seed=args.seed,
        tol=args.tol,
    )
    if hasattr(args, "eps"):
        # only the convergence study sweeps eps, and only graph eigs sweeps mu
        cfg.eps = _float_list(args.eps, "--eps", single=command != "study.convergence")
        for e in cfg.eps:
            if not 0 < e < min(1.0, cfg.L_exact().value / 2):
                raise ConfigError(f"--eps: {e} outside (0, min(1, L/2))")
    if hasattr(args, "mu"):
        cfg.mu = _float_list(args.mu, "--mu", single=command != "graph.eigs")
        for m in cfg.mu:
            if m <= 0:
                raise ConfigError(f"--mu: must be positive, got {m}")
    if hasattr(args, "h"):
        cfg.h, cfg.n_theta, cfg.nev, cfg.cells = args.h, args.ntheta, args.nev, args.cells
        if cfg.h is not None and cfg.h <= 0:
            raise ConfigError(f"--h: must be positive, got {cfg.h}")
        if cfg.n_theta < 3:
            raise ConfigError(f"--ntheta: need at least 3, got {cfg.n_theta}")
        if cfg.nev < 1:
            raise ConfigError(f"--nev: need at least 1, got {cfg.nev}")
        if cfg.cells < 4:
            raise ConfigError(f"--cells: need at least 4, got {cfg.cells}")
    if getattr(args, "window", None):
        vals = _float_list(args.window, "--window")
        if len(vals) != 2 or not vals[0] < vals[1]:
            raise ConfigError(f"--window: expected 'lo,hi' with lo < hi, got {args.window!r}")
        cfg.window = (vals[0], vals[1])
    if hasattr(args, "gap"):
        if args.gap < 1:
            raise ConfigError(f"--gap: 1-based index, got {args.gap}")
        cfg.gap_index = args.gap
    cfg.dump_modes = bool(getattr(args, "dump_modes", False))
    if hasattr(args, "what"):
        cfg.what = args.what
        cfg.slope_min = args.slope_min
        cfg.slope_max = args.slope_max
        if len(cfg.eps) < 3:
            raise ConfigError("--eps: convergence studies need at least 3 values")
    return cfg


def _write(report, cfg, table):
    prefix = cfg.out
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    report.save(prefix + ".json")
    report.write_table_csv(table, prefix + ".csv")
    print(f"wrote {prefix}.json and {prefix}.csv")


GRAPH_COLUMNS = ["omega", "lambda", "kind", "gap_type", "class", "mu"]


def _fem_h(cfg, eps):
    h = cfg.h if cfg.h is not None else eps / 4
    if h > eps / 3 + 1e-12:
        raise ConfigError(f"--h: {h} too coarse for eps={eps}; need h <= eps/3")
    return h


def _fem_gap_window(cfg, L, eps, h, index):
    """FEM gaps of the unperturbed eps-ladder and the lambda window of gap index.

    index is 1-based; the window is the gap shrunk by 1e-6 of its lambda width
    at both ends, so it never grazes a band edge.
    """
    from .fem import fem_bloch_bands
    from .params import LadderParams

    ref = fem_bloch_bands(
        LadderParams(L, eps, 1.0),
        cfg.sym_class,
        max(cfg.nev, 3),
        h,
        n_theta=cfg.n_theta,
        seed=cfg.seed,
    )
    if len(ref.gaps) < index:
        raise RuntimeError(
            f"requested FEM gap {index} at eps={eps} but only {len(ref.gaps)} "
            "found; raise --nev or pass --window explicitly"
        )
    g = ref.gaps[index - 1]
    lam_b, lam_t = g["omega_b"] ** 2, g["omega_t"] ** 2
    pad = 1e-6 * (lam_t - lam_b)
    return ref.gaps, (lam_b + pad, lam_t - pad)


# -- graph commands ---------------------------------------------------------


def cmd_graph_bands(cfg):
    from .bands import essential_bands
    from .modes import flat_bands
    from .report import SpectralReport

    L = cfg.L_exact()
    bands = essential_bands(L.value, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    rows = []
    for b in bands:
        if b.is_flat:
            rows.append((b.omega_lo, b.lambda_lo, "flat", "", str(cfg.sym_class), ""))
        else:
            rows.append((b.omega_lo, b.lambda_lo, "band_edge", "", str(cfg.sym_class), ""))
            rows.append((b.omega_hi, b.lambda_hi, "band_edge", "", str(cfg.sym_class), ""))
    fb = flat_bands(L, cfg.sym_class, cfg.omega_max)
    report = SpectralReport(
        kind="graph_bands",
        config=cfg.resolved(),
        bands=[[b.omega_lo, b.omega_hi] for b in bands],
        diagnostics={
            "n_bands": len(bands),
            "flat_band_count": len(fb.omegas),
            "flat_in_qc": fb.in_qc,
            "flat_omegas": list(fb.omegas),
        },
    )
    report.add_table("spectrum", GRAPH_COLUMNS, rows)
    _write(report, cfg, "spectrum")
    print(f"{len(bands)} bands below omega_max={cfg.omega_max:g}")
    return 0


def cmd_graph_gaps(cfg):
    from .bands import gaps
    from .report import SpectralReport

    L = cfg.L_exact()
    found = gaps(L.value, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    rows = []
    for g in found:
        rows.append((g.omega_b, g.lambda_b, "gap_b", g.gap_type, str(cfg.sym_class), ""))
        rows.append((g.omega_t, g.lambda_t, "gap_t", g.gap_type, str(cfg.sym_class), ""))
    report = SpectralReport(
        kind="graph_gaps",
        config=cfg.resolved(),
        gaps=[
            {"omega_b": g.omega_b, "omega_t": g.omega_t, "type": g.gap_type}
            for g in found
        ],
        diagnostics={"n_gaps": len(found)},
    )
    report.add_table("spectrum", GRAPH_COLUMNS, rows)
    _write(report, cfg, "spectrum")
    for i, g in enumerate(found, 1):
        print(f"gap {i}: ({g.omega_b:.4f}, {g.omega_t:.4f}) type {g.gap_type}")
    return 0


def cmd_graph_eigs(cfg):
    from .bands import gaps
    from .modes import discrete_eigenvalues
    from .report import SpectralReport

    L = cfg.L_exact()
    found = gaps(L.value, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    index = {g: gi for gi, g in enumerate(found, 1)}
    rows = []
    eigen_info = []
    for ev in discrete_eigenvalues(L.value, cfg.mu, cfg.sym_class, found, xtol=cfg.tol):
        rows.append(
            (ev.omega, ev.lam, "eig", ev.gap.gap_type, str(cfg.sym_class), ev.mu)
        )
        eigen_info.append(
            {"omega": ev.omega, "lambda": ev.lam, "mu": ev.mu, "gap": index[ev.gap]}
        )
    report = SpectralReport(
        kind="graph_eigs",
        config=cfg.resolved(),
        gaps=[
            {"omega_b": g.omega_b, "omega_t": g.omega_t, "type": g.gap_type}
            for g in found
        ],
        eigenvalues=[e["omega"] for e in eigen_info],
        diagnostics={"eigenvalues": eigen_info},
    )
    report.add_table("spectrum", GRAPH_COLUMNS, rows)
    _write(report, cfg, "spectrum")
    print(f"{len(rows)} defect eigenvalue(s) across {len(found)} gap(s)")
    return 0


# -- fem commands -----------------------------------------------------------


def cmd_fem_bands(cfg):
    from .fem import fem_bloch_bands
    from .params import LadderParams

    eps = cfg.eps[0]
    h = _fem_h(cfg, eps)
    params = LadderParams(cfg.L_exact().value, eps, 1.0)
    report = fem_bloch_bands(
        params, cfg.sym_class, cfg.nev, h, n_theta=cfg.n_theta, seed=cfg.seed
    )
    report.config.update(cfg.resolved())
    _write(report, cfg, "theta_eigenvalues")
    for i, (lo, hi) in enumerate(report.bands, 1):
        print(f"band {i}: omega in ({lo:.4f}, {hi:.4f})")
    return 0


def cmd_fem_localized(cfg):
    from .fem import localized_modes
    from .params import LadderParams

    eps = cfg.eps[0]
    mu = cfg.mu[0]
    h = _fem_h(cfg, eps)
    L = cfg.L_exact().value
    if cfg.window is not None:
        window = cfg.window
        fem_gaps = []
    else:
        fem_gaps, window = _fem_gap_window(cfg, L, eps, h, cfg.gap_index)
    params = LadderParams(L, eps, mu)
    report = localized_modes(
        params,
        cfg.sym_class,
        window,
        cfg.cells,
        h,
        seed=cfg.seed,
        dump_prefix=(cfg.out + "_mode") if cfg.dump_modes else None,
    )
    report.config.update(cfg.resolved())
    report.diagnostics["fem_gaps"] = fem_gaps
    _write(report, cfg, "modes")
    n = len(report.eigenvalues)
    print(f"{n} localized mode(s) in lambda window ({window[0]:.6g}, {window[1]:.6g})")
    for row in report.tables["modes"]["rows"]:
        print(
            f"  omega={row[0]:.6f} lambda={row[1]:.6f} r_hat={row[2]:.4f} "
            f"center_mass={row[3]:.3f}"
        )
    return 0


# -- convergence studies ----------------------------------------------------


def _loglog_slope(xs, ys):
    import numpy as np

    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    return float(np.polyfit(xs, ys, 1)[0])


def _study_band_edges(cfg):
    from .bands import gaps as graph_gaps
    from .fem import fem_bloch_bands
    from .params import LadderParams

    L = cfg.L_exact().value
    ref = graph_gaps(L, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    if not ref:
        raise RuntimeError("the limit graph has no gap below omega_max")
    gb, gt = ref[0].omega_b, ref[0].omega_t
    rows, errs = [], []
    for eps in sorted(cfg.eps, reverse=True):
        h = _fem_h(cfg, eps)
        rep = fem_bloch_bands(
            LadderParams(L, eps, 1.0),
            cfg.sym_class,
            max(cfg.nev, 3),
            h,
            n_theta=cfg.n_theta,
            seed=cfg.seed,
        )
        if not rep.gaps:
            raise RuntimeError(f"no FEM gap found at eps={eps}")
        fb, ft = rep.gaps[0]["omega_b"], rep.gaps[0]["omega_t"]
        err = max(abs(fb - gb), abs(ft - gt))
        rows.append((eps, h, fb, ft, gb, gt, err))
        errs.append((eps, err))
    slope = _loglog_slope([e for e, _ in errs], [r for _, r in errs])
    lo = cfg.slope_min if cfg.slope_min is not None else 0.8
    hi = cfg.slope_max if cfg.slope_max is not None else 1.2
    ok = lo <= slope <= hi
    columns = ["eps", "h", "omega_b_fem", "omega_t_fem", "omega_b_graph",
               "omega_t_graph", "max_edge_error"]
    return columns, rows, {"slope": slope, "slope_window": [lo, hi], "pass": ok}


def _study_eigenvalues(cfg):
    from .bands import gaps as graph_gaps
    from .fem import localized_modes
    from .modes import discrete_eigenvalues
    from .params import LadderParams

    L = cfg.L_exact().value
    mu = cfg.mu[0]
    ref = graph_gaps(L, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    if not ref:
        raise RuntimeError("the limit graph has no gap below omega_max")
    evs = discrete_eigenvalues(L, mu, cfg.sym_class, ref[0], xtol=cfg.tol)
    if not evs:
        raise RuntimeError(f"no graph eigenvalue in the first gap for mu={mu}")
    lam_ref = evs[0].lam
    rows, errs = [], []
    for eps in sorted(cfg.eps, reverse=True):
        h = _fem_h(cfg, eps)
        _, window = _fem_gap_window(cfg, L, eps, h, 1)
        loc = localized_modes(
            LadderParams(L, eps, mu), cfg.sym_class, window, cfg.cells, h,
            seed=cfg.seed,
        )
        lams = [row[1] for row in loc.tables["modes"]["rows"]]
        if not lams:
            raise RuntimeError(f"no localized mode found at eps={eps}")
        lam_eps = min(lams, key=lambda v: abs(v - lam_ref))
        err = abs(lam_eps - lam_ref)
        rows.append((eps, h, lam_eps, lam_ref, err))
        errs.append((eps, err))
    monotone = all(e1 > e2 for (_, e1), (_, e2) in zip(errs[:-1], errs[1:]))
    slope = _loglog_slope([e for e, _ in errs], [r for _, r in errs])
    lo = cfg.slope_min if cfg.slope_min is not None else 0.8
    ok = monotone and slope >= lo
    columns = ["eps", "h", "lambda_fem", "lambda_graph", "error"]
    return columns, rows, {
        "slope": slope, "monotone": monotone, "slope_min": lo, "pass": ok,
    }


def _study_quasimode(cfg):
    from .bands import gaps as graph_gaps
    from .fem import quasimode_detail
    from .modes import discrete_eigenvalues
    from .params import LadderParams

    L = cfg.L_exact().value
    mu = cfg.mu[0]
    ref = graph_gaps(L, cfg.sym_class, cfg.omega_max, tol=cfg.tol)
    evs = discrete_eigenvalues(L, mu, cfg.sym_class, ref[0], xtol=cfg.tol) if ref else []
    if not evs:
        raise RuntimeError(f"no graph eigenvalue to fatten for mu={mu}")
    ev = evs[0]
    rows = []
    for eps in sorted(cfg.eps, reverse=True):
        h = _fem_h(cfg, eps)
        det = quasimode_detail(
            LadderParams(L, eps, mu), cfg.sym_class, ev, h, n_cells=cfg.cells
        )
        rows.append((eps, h, det["ratio_dual"], det["ratio_mass"]))
    eps_list = [r[0] for r in rows]
    expo_dual = _loglog_slope(eps_list, [r[2] for r in rows])
    expo_mass = _loglog_slope(eps_list, [r[3] for r in rows])
    lo = cfg.slope_min if cfg.slope_min is not None else 0.5
    ok = expo_dual >= lo
    columns = ["eps", "h", "ratio_dual", "ratio_mass"]
    return columns, rows, {
        "exponent_dual": expo_dual, "exponent_mass": expo_mass,
        "exponent_min": lo, "pass": ok,
    }


def cmd_study_convergence(cfg):
    from .report import SpectralReport

    runner = {
        "band-edges": _study_band_edges,
        "eigenvalues": _study_eigenvalues,
        "quasimode": _study_quasimode,
    }[cfg.what]
    columns, rows, verdict = runner(cfg)
    report = SpectralReport(
        kind=f"study_{cfg.what}", config=cfg.resolved(), diagnostics=verdict
    )
    report.add_table("study", columns, rows)
    _write(report, cfg, "study")
    print(f"{cfg.what}: " + ", ".join(f"{k}={v}" for k, v in verdict.items()))
    return 0


COMMANDS = {
    "graph.bands": cmd_graph_bands,
    "graph.gaps": cmd_graph_gaps,
    "graph.eigs": cmd_graph_eigs,
    "fem.bands": cmd_fem_bands,
    "fem.localized": cmd_fem_localized,
    "study.convergence": cmd_study_convergence,
}


def main(argv=None):
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure path: report and signal 3
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
