"""End-to-end acceptance gates for the ladder spectral toolkit.

Each test covers one headline claim, prints a single ``[PASS]``/``[FAIL]``
line with the measured numbers (visible under ``pytest -s`` or in the captured
output of a failure), asserts the claim at its stated tolerance, and asserts
its wall-clock budget.  The ten gates together exercise every layer: the
closed-form dispersion analysis, the exact special-point arithmetic, the
defect-eigenvalue root counting, the 1-D truncated-graph oracle, the 2-D
Floquet-Bloch solver, the supercell trapped-mode search, the pseudo-mode
residual estimate, the flat-band splitting, and the raw FEM assembly chain.
Gates 6-8 run the ``ladderspec study`` commands in-process, with every flag
that shapes their claim given explicitly, and assert the command's verdict.
"""

import math
import time

import numpy as np
from cli_run import run_cli

from ladderspec.bands import (
    first_n_gaps,
    in_essential_spectrum,
    special_points,
    spectrum_cover_check,
)
from ladderspec.dispersion import THETA_TOL, g_value, theta_root
from ladderspec.fem import fem_bloch_bands, neumann_rectangle_eigs
from ladderspec.graph1d import oracle_gap_eigenvalues
from ladderspec.modes import discrete_eigenvalues
from ladderspec.params import LadderParams, SymmetryClass
from ladderspec.report import SpectralReport

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC


def _verdict(label, ok, detail, t0, budget):
    """Print the one-line verdict, then enforce claim and time budget."""
    dt = time.perf_counter() - t0
    print("[%s] %s: %s (%.1f s)" % ("PASS" if ok else "FAIL", label, detail, dt))
    assert ok, "%s: %s" % (label, detail)
    assert dt < budget, "%s exceeded budget: %.1f s > %g s" % (label, dt, budget)


def _pole_distance(omegas, L, sym_class):
    """Distance of omega*L/2 to the zeros of the class impedance phi_L."""
    half = 0.5 * omegas * L
    if sym_class is S:
        half = half - 0.5 * math.pi  # zeros of cos(omega L / 2)
    return np.abs((half % math.pi + 0.5 * math.pi) % math.pi - 0.5 * math.pi)


def _off_pole_samples(rng, L, n, margin=1e-6):
    """Exactly n uniform draws from (0, 6 pi) away from both classes' poles."""
    out = np.empty(0)
    while out.size < n:
        w = rng.uniform(0.0, 6.0 * math.pi, n - out.size)
        good = (_pole_distance(w, L, S) > margin) & (_pole_distance(w, L, A) > margin)
        out = np.concatenate([out, w[good]])
    return out


def test_01_membership_equivalence():
    # The package's membership test and |g(omega)| <= 1 must both agree with
    # an actual theta-root of the dispersion relation, certified by its
    # bracket [0, pi], on random off-pole frequencies.
    t0 = time.perf_counter()
    rng = np.random.default_rng(62831853)
    n_total = n_agree = 0
    for L in (2.0, 8.0, 0.5):
        w = _off_pole_samples(rng, L, 10_000)
        for cls in (S, A):
            member = in_essential_spectrum(w, L, cls)
            g_member = np.abs(g_value(w, L, cls)) <= 1.0
            exists = ~np.isnan(theta_root(w, L, cls))
            n_total += w.size
            n_agree += np.count_nonzero((member == g_member) & (g_member == exists))
    _verdict(
        "01 membership equivalence",
        n_agree == n_total,
        "%d/%d samples agree (theta bracket tol %g)" % (n_agree, n_total, THETA_TOL),
        t0,
        10.0,
    )


def test_02_special_point_inclusion():
    # The rail lattice pi*Z and the rung resonance lattice must lie inside the
    # computed bands for rational and irrational rung lengths alike.
    t0 = time.perf_counter()
    n_checked = 0
    missing = []
    for L in (2.0, 8.0, 0.5, 10.0 * math.pi / 7.0):
        for cls in (S, A):
            always, _ = special_points(L, cls, 10.0 * math.pi)
            n_checked += len(always)
            missing += [
                (L, cls.name, w)
                for w in always
                if not in_essential_spectrum(w, L, cls)
            ]
    _verdict(
        "02 special-point inclusion",
        not missing,
        "%d lattice points inside bands, %d missing" % (n_checked, len(missing)),
        t0,
        5.0,
    )


def test_03_defect_root_counts():
    # Type (i) gaps carry exactly two defect eigenvalues, types (ii)/(iii)
    # exactly one, and no gap carries any once the defect weight reaches 1.
    t0 = time.perf_counter()
    bad = []
    n_checked = 0
    for L in (2.0, 8.0):
        for gap in first_n_gaps(L, S, 5):
            want = 2 if gap.gap_type == "i" else 1
            for mu in (0.1, 0.25, 0.5, 0.9):
                got = len(discrete_eigenvalues(L, mu, S, gap))
                n_checked += 1
                if got != want:
                    bad.append((L, "sym", gap.gap_type, mu, got, want))
            for mu in (1.0, 1.5):
                got = len(discrete_eigenvalues(L, mu, S, gap))
                n_checked += 1
                if got != 0:
                    bad.append((L, "sym", gap.gap_type, mu, got, 0))
        for gap in first_n_gaps(L, A, 5):
            for mu in (0.1, 0.25, 0.5, 0.9):
                got = len(discrete_eigenvalues(L, mu, A, gap))
                n_checked += 1
                if got not in (1, 2):
                    bad.append((L, "anti", gap.gap_type, mu, got, "1 or 2"))
    _verdict(
        "03 defect root counts",
        not bad,
        "%d (gap, mu) cases counted correctly, %d wrong" % (n_checked, len(bad)),
        t0,
        10.0,
    )


def test_04_oracle_equivalence():
    # The truncated-ladder FEM oracle must reproduce the closed-form defect
    # eigenvalues without knowing anything about the transfer analysis.
    t0 = time.perf_counter()
    worst = 0.0
    n_matched = 0
    count_ok = True
    for cls in (S, A):
        gap = first_n_gaps(2.0, cls, 1)[0]
        for mu in (0.25, 0.5):
            closed = [ev.omega for ev in discrete_eigenvalues(2.0, mu, cls, gap)]
            orc = oracle_gap_eigenvalues(
                2.0, mu, cls, gap, h=1e-3, n_cells=40, check_convergence=False
            )
            count_ok = count_ok and len(orc.omegas) == len(closed)
            for w in orc.omegas:
                worst = max(worst, min(abs(w - c) / c for c in closed))
                n_matched += 1
    # mesh-refinement order on the first symmetric eigenvalue
    gap = first_n_gaps(2.0, S, 1)[0]
    target = discrete_eigenvalues(2.0, 0.25, S, gap)[0].omega
    hs = (8e-3, 4e-3, 2e-3)
    errs = [
        abs(
            oracle_gap_eigenvalues(
                2.0, 0.25, S, gap, h=h, n_cells=25, check_convergence=False
            ).omegas[0]
            - target
        )
        for h in hs
    ]
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    _verdict(
        "04 oracle equivalence",
        count_ok and worst <= 1e-4 and 1.8 <= order <= 2.2,
        "%d eigenvalues, max rel err %.2e (tol 1e-4), h-order %.3f"
        % (n_matched, worst, order),
        t0,
        120.0,
    )


def test_05_full_operator_cover():
    # Symmetric and antisymmetric bands together must leave no hole in
    # [0, 10 pi]: the full operator has purely continuous coverage.
    t0 = time.perf_counter()
    widest = 0.0
    ok = True
    for L in (2.0, 8.0):
        rep = spectrum_cover_check(L, 10.0 * math.pi, hole_tol=1e-8)
        ok = ok and rep.ok
        widest = max(widest, max((hi - lo for lo, hi in rep.holes), default=0.0))
    _verdict(
        "05 full-operator cover",
        ok,
        "widest hole %.2e (tol 1e-8) over L in {2, 8}" % widest,
        t0,
        5.0,
    )


def _study(tmp_path, argv):
    """Run ``ladderspec study <argv>``; its table's columns by name, and its verdict."""
    code, prefix = run_cli(tmp_path, "study", *argv.split())
    assert code == 0, "study %s exited with %d" % (argv, code)
    rep = SpectralReport.load("%s.json" % prefix)
    table = rep.tables["study"]
    return dict(zip(table["columns"], zip(*table["rows"]))), rep.diagnostics


def test_06_band_edge_convergence(tmp_path):
    # First-gap edges of the 2-D waveguide must converge to the graph edges
    # linearly in the strip width.
    t0 = time.perf_counter()
    table, verdict = _study(tmp_path, "band-edges --L 2 --class sym --eps 0.2,0.1,0.05,0.025 "
                            "--nev 2 --ntheta 17 --slope-min 0.8 --slope-max 1.2")
    _verdict(
        "06 band-edge convergence",
        verdict["pass"],
        "edge errors %s, log-log slope %.3f"
        % (["%.2e" % e for e in table["max_edge_error"]], verdict["slope"]),
        t0,
        900.0,
    )


def test_07_trapped_mode_convergence(tmp_path):
    # Every supercell must carry a trapped mode inside its own spectral gap,
    # and the eigenvalue must approach the graph limit at linear rate.
    t0 = time.perf_counter()
    table, verdict = _study(tmp_path, "eigenvalues --L 2 --class sym --eps 0.2,0.1,0.05 "
                            "--mu 0.25 --nev 2 --ntheta 17 --cells 10 --slope-min 0.8")
    _verdict(
        "07 trapped-mode convergence",
        verdict["pass"],
        "gap eigenvalue errors %s, monotone %s, slope %.3f"
        % (["%.2e" % e for e in table["error"]], verdict["monotone"], verdict["slope"]),
        t0,
        1200.0,
    )


def test_08_quasimode_residual_rate(tmp_path):
    # The fattened graph eigenfunction must be a quasi-mode: its residual
    # ratio has to vanish at least like sqrt(eps).
    t0 = time.perf_counter()
    table, verdict = _study(tmp_path, "quasimode --L 2 --class sym --eps 0.2,0.1,0.05 "
                            "--mu 0.25 --cells 10 --slope-min 0.5")
    _verdict(
        "08 quasi-mode residual rate",
        verdict["pass"],
        "ratios %s, exponent %.3f (>= 0.5)"
        % (["%.2e" % r for r in table["ratio_dual"]], verdict["exponent_dual"]),
        t0,
        600.0,
    )


def test_09_flat_band_splitting():
    # The infinite-multiplicity flat point at omega = 2 pi (L = 1/2) must open
    # into a genuine narrow band whose width scales linearly with eps.
    t0 = time.perf_counter()
    lo, hi = 2.0 * math.pi - 0.5, 2.0 * math.pi + 0.5
    eps_list = (0.1, 0.05)
    widths = []
    found = True
    for eps in eps_list:
        rep = fem_bloch_bands(LadderParams(0.5, eps), S, 12, eps / 4.0)
        near = [(a, b) for a, b in rep.bands if a < hi and b > lo]
        found = found and len(near) >= 1
        if near:
            a, b = min(near, key=lambda ab: abs(0.5 * (ab[0] + ab[1]) - 2 * math.pi))
            widths.append(b - a)
    big_c = max(w / e for w, e in zip(widths, eps_list)) if widths else float("inf")
    ratio = widths[1] / widths[0] if len(widths) == 2 else float("inf")
    _verdict(
        "09 flat-band splitting",
        found and all(w <= big_c * e + 1e-12 for w, e in zip(widths, eps_list))
        and 0.35 <= ratio <= 0.65,
        "widths %s near 2 pi, C = %.2f, halving ratio %.3f"
        % (["%.4f" % w for w in widths], big_c, ratio),
        t0,
        600.0,
    )


def test_10_fem_self_check():
    # Assembly + eigensolver chain against the separable Neumann rectangle.
    t0 = time.perf_counter()
    meshes = ((10, 6), (20, 11), (40, 22))
    errs = []
    for nx, ny in meshes:
        vals, exact = neumann_rectangle_eigs(1.0, 0.55, nx, ny, 6)
        errs.append(np.max(np.abs(vals[1:] - exact[1:]) / exact[1:]))
    hs = [1.0 / nx for nx, _ in meshes]
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    _verdict(
        "10 FEM self-check",
        1.8 <= order <= 2.2,
        "Neumann rectangle rel errors %s, fitted order %.3f"
        % (["%.2e" % e for e in errs], order),
        t0,
        60.0,
    )
