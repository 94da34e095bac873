"""End-to-end tests of the command-line interface.

Each test drives ``ladderspec.cli.main`` in-process with a temp output
prefix, then inspects the written JSON/CSV pair.  Numbers asserted here are
the same frozen references used by the module tests.
"""

import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from cli_run import csv_rows, run_cli
from report_reference import reference_json

from ladderspec import cli, fem
from ladderspec.cli import main
from ladderspec.eigen import EigenResult
from ladderspec.mesh import Mesh
from ladderspec.report import SpectralReport


def test_graph_gaps_first_gap(tmp_path, capsys):
    code, prefix = run_cli(
        tmp_path, "graph", "gaps", "--L", "2", "--class", "sym", "--omega-max", "7"
    )
    assert code == 0
    rep = SpectralReport.load(prefix.parent / "out.json")
    assert rep.kind == "graph_gaps"
    assert rep.config["command"] == "graph.gaps"
    assert rep.config["L"] == "2" and rep.config["L_value"] == 2.0
    g1 = rep.gaps[0]
    assert abs(g1["omega_b"] - math.acos(1.0 / 3.0)) < 1e-9
    assert abs(g1["omega_t"] - 1.9106332362490186) < 1e-9
    assert g1["type"] == "i"
    cols, rows = csv_rows(prefix)
    assert cols == ["omega", "lambda", "kind", "gap_type", "class", "mu"]
    assert rows[0][2] == "gap_b" and rows[1][2] == "gap_t"
    # lambda column is omega squared; mu is empty off eigenvalue rows
    assert float(rows[0][1]) == pytest.approx(float(rows[0][0]) ** 2, rel=1e-15)
    assert all(r[5] == "" for r in rows)
    assert "type i" in capsys.readouterr().out


def test_graph_eigs_rows_and_empty_mu1(tmp_path):
    code, prefix = run_cli(
        tmp_path, "graph", "eigs", "--L", "2", "--mu", "0.25", "--omega-max", "7"
    )
    assert code == 0
    cols, rows = csv_rows(prefix)
    assert len(rows) == 4  # two eigenvalues in each of the two gaps below 7
    omegas = sorted(float(r[0]) for r in rows)
    for got, want in zip(
        omegas,
        [1.3410710594083, 1.8005215941811, 4.4826637129985, 4.9421142477709],
    ):
        assert abs(got - want) < 1e-9
    assert all(r[2] == "eig" for r in rows)
    assert all(r[5] == "2.5000000000000000e-01" for r in rows)
    rep = SpectralReport.load(prefix.parent / "out.json")
    assert len(rep.eigenvalues) == 4

    code, prefix = run_cli(
        tmp_path, "graph", "eigs", "--L", "2", "--omega-max", "7", name="mu1"
    )
    assert code == 0  # mu defaults to 1.0: no defect, empty table, success
    _, rows = csv_rows(prefix)
    assert rows == []


@pytest.mark.parametrize(
    "L,mu,narrowest",
    [
        ("7.500005804330669", "0.3953", 4e-6),  # a gap of width 3.8e-6 below 2 pi
        ("0.37498392717242895", "0.7454", 2e-4),  # width 1.7e-4 above 8 pi
    ],
)
def test_graph_eigs_narrow_antisymmetric_gaps(tmp_path, L, mu, narrowest):
    # the roots of such a gap sit on one of its edges; every gap still gets
    # its gate-3 count, one root per branch of its type
    code, prefix = run_cli(
        tmp_path, "graph", "eigs", "--L", L, "--class", "antisym",
        "--omega-max", "30", "--mu", mu,
    )
    assert code == 0
    rep = SpectralReport.load(tmp_path / "out.json")
    assert min(g["omega_t"] - g["omega_b"] for g in rep.gaps) < narrowest
    for gi, g in enumerate(rep.gaps, 1):
        inside = [e["omega"] for e in rep.diagnostics["eigenvalues"] if e["gap"] == gi]
        assert len(inside) == (2 if g["type"] == "i" else 1), (gi, g)
        assert all(g["omega_b"] <= w <= g["omega_t"] for w in inside)


def test_graph_bands_flat_rows_and_determinism(tmp_path):
    argv = ["graph", "bands", "--L", "2", "--class", "antisym", "--omega-max", "7"]
    code1, p1 = run_cli(tmp_path, *argv, name="a")
    code2, p2 = run_cli(tmp_path, *argv, name="b")
    assert code1 == code2 == 0
    b1 = (tmp_path / "a.csv").read_bytes()
    b2 = (tmp_path / "b.csv").read_bytes()
    assert b1 == b2  # byte-identical reruns
    rep = SpectralReport.load(tmp_path / "a.json")
    flats = rep.diagnostics["flat_omegas"]
    assert len(flats) == 2
    assert abs(flats[0] - math.pi) < 1e-12 and abs(flats[1] - 2 * math.pi) < 1e-12
    _, rows = csv_rows(p1)
    assert sum(r[2] == "flat" for r in rows) == 2
    assert sum(r[2] == "band_edge" for r in rows) == 4  # two open bands


def _graph_rows_from_json(rep):
    """The graph commands' CSV rows, rebuilt from the JSON fields that hold them."""
    cls = rep.config["class"]
    if rep.kind == "graph_bands":
        for lo, hi in rep.bands:
            if lo == hi:
                yield lo, lo**2, "flat", "", cls, ""
            else:
                yield lo, lo**2, "band_edge", "", cls, ""
                yield hi, hi**2, "band_edge", "", cls, ""
    elif rep.kind == "graph_gaps":
        for g in rep.gaps:
            yield g["omega_b"], g["omega_b"] ** 2, "gap_b", g["type"], cls, ""
            yield g["omega_t"], g["omega_t"] ** 2, "gap_t", g["type"], cls, ""
    else:
        for e in rep.diagnostics["eigenvalues"]:
            assert e["lambda"] == e["omega"] ** 2
            yield e["omega"], e["lambda"], "eig", rep.gaps[e["gap"] - 1]["type"], cls, e["mu"]


@pytest.mark.parametrize("cls", ["sym", "antisym"])
@pytest.mark.parametrize("action", ["bands", "gaps", "eigs"])
def test_graph_table_is_stored_once_in_the_csv(tmp_path, action, cls):
    # the JSON holds every entry of the table, so only the CSV carries it;
    # L = 2 antisym has flat bands (lo == hi)
    mu = ["--mu", "0.25,0.4"] if action == "eigs" else []
    code, prefix = run_cli(tmp_path, "graph", action, "--L", "2", "--class", cls, *mu)
    assert code == 0
    rep = SpectralReport.load(tmp_path / "out.json")
    assert rep.tables == {}
    cols, rows = csv_rows(prefix)
    assert cols == cli.GRAPH_COLUMNS
    rebuilt = [
        [f"{x:.16e}" if isinstance(x, float) else x for x in row]
        for row in _graph_rows_from_json(rep)
    ]
    assert rows and rows == rebuilt
    if (action, cls) == ("bands", "antisym"):
        assert any(r[2] == "flat" for r in rows)


def test_fem_bands_table_shape(tmp_path):
    code, prefix = run_cli(
        tmp_path,
        "fem", "bands", "--L", "2", "--eps", "0.2", "--nev", "3", "--ntheta", "9",
    )
    assert code == 0
    rep = SpectralReport.load(tmp_path / "out.json")
    assert rep.kind == "fem_bloch_bands"
    assert rep.config["eps"] == 0.2
    assert rep.config["h"] == 0.05  # the default h = eps/4, as used
    assert len(rep.bands) == 3
    cols, rows = csv_rows(prefix)
    assert cols == ["theta", "band", "lambda", "omega"]
    assert len(rows) == 3 * 9


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "bands", "--L", "2", "--class", "sym"],
        ["graph", "bands", "--L", "2", "--class", "antisym"],
        ["graph", "gaps", "--L", "2", "--class", "sym"],
        ["graph", "gaps", "--L", "2", "--class", "antisym"],
        ["graph", "eigs", "--L", "2", "--class", "sym", "--mu", "0.4"],
        ["graph", "eigs", "--L", "2", "--class", "antisym", "--mu", "0.4"],
        ["fem", "bands", "--L", "2", "--eps", "0.4", "--nev", "2"],
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv),
)
def test_written_json_is_the_reference_encoding(tmp_path, monkeypatch, argv):
    # the report the command writes, kept so its file can be checked
    written = []
    write = cli._write

    def keep(report, out, table):
        written.append(report)
        write(report, out, table)

    monkeypatch.setattr(cli, "_write", keep)
    code, prefix = run_cli(tmp_path, *argv)
    assert code == 0
    text = (tmp_path / "out.json").read_text()
    assert text == reference_json(written[0]) + "\n"
    assert text.count("\n") == 1


def test_fem_bands_unconverged_sparse_solve_exits_3(tmp_path, monkeypatch, capsys):
    # force the sparse path and make it report a failed solve: the band edge
    # must not be used
    def failed(K, M, sigma, k, **kw):
        vals = np.arange(1.0, k + 1.0)
        return EigenResult(vals, np.zeros((K.shape[0], k)), np.zeros(k),
                           converged=False, message="no convergence in 0 steps")

    monkeypatch.setattr(fem, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(fem, "eig_sparse_shift_invert", failed)
    code, prefix = run_cli(
        tmp_path,
        "fem", "bands", "--L", "2", "--eps", "0.2", "--nev", "3", "--ntheta", "3",
    )
    assert code == 3
    assert "no convergence" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_fem_localized_window_modes_and_dump(tmp_path):
    code, prefix = run_cli(
        tmp_path,
        "fem", "localized", "--L", "2", "--eps", "0.2", "--mu", "0.25",
        "--cells", "6", "--window", "2.1,5.0", "--dump-modes",
    )
    assert code == 0
    cols, rows = csv_rows(prefix)
    assert cols == [
        "omega", "lambda", "r_hat", "center_mass_fraction", "residual", "n_fit_cells",
    ]
    assert len(rows) >= 1
    for r in rows:
        assert 2.1 < float(r[1]) < 5.0
    mesh, vals = Mesh.load(tmp_path / "out_mode0.mesh")
    assert vals is not None and vals.shape[0] == mesh.n_nodes

    code, prefix = run_cli(
        tmp_path,
        "fem", "localized", "--L", "2", "--eps", "0.2", "--mu", "1.0",
        "--cells", "6", "--window", "2.1,5.0",
        name="mu1",
    )
    assert code == 0
    _, rows = csv_rows(prefix)
    assert rows == []


def test_fem_localized_dumps_into_an_out_directory_it_creates(tmp_path):
    # the --out directory exists before the solve writes its mode files
    out = tmp_path / "new" / "loc"
    code = main(
        ["fem", "localized", "--L", "2", "--eps", "0.1", "--mu", "0.25",
         "--window", "0.01,8", "--dump-modes", "--out", str(out)]
    )
    assert code == 0
    for suffix in (".csv", ".json", "_mode0.mesh"):
        assert (out.parent / f"loc{suffix}").is_file(), suffix
    _, rows = csv_rows(out)
    assert len(list(out.parent.glob("loc_mode*.mesh"))) == len(rows)


def test_fem_localized_gap_stores_its_window(tmp_path):
    argv = ["fem", "localized", "--L", "2", "--eps", "0.2", "--mu", "0.25", "--cells", "6"]
    code, _ = run_cli(tmp_path, *argv)
    assert code == 0
    rep = SpectralReport.load(tmp_path / "out.json")
    v, _ = cli._resolve(cli._build_parser().parse_args(argv))
    gaps, window, solver = cli._fem_gap_window(v, v["eps"], v["h"], v["gap"])
    assert solver == "dense"
    assert rep.diagnostics["window"] == list(window)
    assert rep.diagnostics["fem_gaps"] == gaps
    # with --window the window is stored once, in config
    code, _ = run_cli(tmp_path, *argv, "--window", "2.1,5.0", name="win")
    assert code == 0
    rep = SpectralReport.load(tmp_path / "win.json")
    assert rep.config["window"] == [2.1, 5.0]
    assert "window" not in rep.diagnostics


@pytest.mark.parametrize(
    "argv,columns,column,errors,key,slope",
    [
        (["quasimode", "--class", "sym", "--eps", "0.2,0.1,0.05", "--mu", "0.25"],
         ["eps", "h", "ratio_dual", "ratio_mass"],
         "ratio_dual", [0.298, 0.180, 0.116], "exponent_dual", 0.685),
        # antisymmetric gap 1 is the bottom gap (0, omega_t), for the FEM as for the graph
        (["band-edges", "--class", "antisym", "--eps", "0.2,0.1,0.05,0.025"],
         ["eps", "h", "omega_b_fem", "omega_t_fem", "omega_b_graph", "omega_t_graph",
          "max_edge_error"], "max_edge_error", [0.113, 0.053, 0.026, 0.013], "slope", 1.054),
        (["eigenvalues", "--class", "antisym", "--eps", "0.2,0.1,0.05", "--mu", "0.25"],
         ["eps", "h", "lambda_fem", "lambda_graph", "error"],
         "error", [0.171, 0.078, 0.037], "slope", 1.109),
    ],
    ids=["quasimode", "band-edges-antisym", "eigenvalues-antisym"],
)
def test_study_errors_and_verdict(tmp_path, argv, columns, column, errors, key, slope):
    code, prefix = run_cli(tmp_path, "study", *argv, "--L", "2")
    assert code == 0
    rep = SpectralReport.load(tmp_path / "out.json")
    assert rep.kind == "study_" + argv[0]
    assert rep.diagnostics["pass"] is True and abs(rep.diagnostics[key] - slope) < 1e-2
    cols, rows = csv_rows(prefix)
    assert cols == columns
    eps = sorted(map(float, argv[argv.index("--eps") + 1].split(",")), reverse=True)
    assert [float(r[0]) for r in rows] == eps
    assert [float(r[cols.index(column)]) for r in rows] == pytest.approx(errors, abs=1e-3)


def test_study_band_edges_sweeps_the_nev_it_records(tmp_path, monkeypatch, capsys):
    swept = []
    bloch = fem.fem_bloch_bands

    def keep(*args, **kwargs):
        rep = bloch(*args, **kwargs)
        swept.append(len(rep.bands))
        return rep

    monkeypatch.setattr(fem, "fem_bloch_bands", keep)
    code, _ = run_cli(tmp_path, "study", "band-edges", "--eps", "0.2,0.1,0.05", "--nev", "2")
    assert code == 0 and swept == [2, 2, 2]
    assert SpectralReport.load(tmp_path / "out.json").config["nev"] == 2
    # one band bounds no symmetric gap
    code, _ = run_cli(tmp_path, "study", "band-edges", "--eps", "0.2,0.1,0.05", "--nev", "1")
    assert code == 3 and "raise --nev" in capsys.readouterr().err


def test_study_needs_three_eps(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path,
        "study", "quasimode",
        "--L", "2", "--eps", "0.2,0.1", "--mu", "0.25",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--eps" in err


def test_config_errors_name_the_flag(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "graph", "bands", "--L", "abc")
    assert code == 2
    assert "--L" in capsys.readouterr().err

    code, _ = run_cli(tmp_path, "fem", "bands", "--eps", "1.5")
    assert code == 2
    assert "--eps" in capsys.readouterr().err

    code, _ = run_cli(tmp_path, "fem", "bands", "--eps", "0.2", "--h", "0.15")
    assert code == 2
    assert "--h" in capsys.readouterr().err

    code, _ = run_cli(
        tmp_path, "fem", "localized", "--eps", "0.2", "--window", "5,2"
    )
    assert code == 2
    assert "--window" in capsys.readouterr().err

    # an infinite bound must not reach the band scan or the factorisation
    for argv, flag in [
        (["graph", "bands", "--omega-max", "inf"], "--omega-max"),
        (["graph", "gaps", "--tol", "inf"], "--tol"),
        (["graph", "eigs", "--mu", "0.25", "--omega-max", "nan"], "--omega-max"),
        (["graph", "eigs", "--mu", "inf"], "--mu"),
        (["fem", "localized", "--eps", "0.2", "--window", "1,inf"], "--window"),
        (["fem", "localized", "--eps", "0.2", "--window=-inf,1"], "--window"),
        # a repeated value adds no point to a study's slope fit
        (["study", "band-edges", "--eps", "0.2,0.2,0.2", "--nev", "2"], "--eps"),
        (["study", "quasimode", "--eps", "0.2,0.1,0.2"], "--eps"),
        (["study", "quasimode", "--L", "2", "--eps", "0.2,0.2,0.1,0.05", "--mu", "0.25"],
         "--eps"),
        # ... and a repeated --mu would solve and write each of its eigenvalues twice
        (["graph", "eigs", "--L", "2", "--mu", "0.25,0.25", "--omega-max", "3"], "--mu"),
    ]:
        code, _ = run_cli(tmp_path, *argv)
        assert code == 2, argv
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fem", "bands", "--eps", "0.2,0.1"], "--eps"),
        (["fem", "localized", "--eps", "0.2,0.1", "--mu", "0.25"], "--eps"),
        (["fem", "localized", "--eps", "0.2", "--mu", "0.25,0.5"], "--mu"),
        (["study", "quasimode", "--eps", "0.2,0.1,0.05", "--mu", "0.25,0.5"], "--mu"),
    ],
)
def test_single_valued_flags_reject_lists(tmp_path, capsys, argv, flag):
    # these commands read one value; a list must not run on its first entry
    code, _ = run_cli(tmp_path, *argv, "--L", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    assert not (tmp_path / "out.json").exists()


def test_thread_env_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LADDERSPEC_THREADS", "zero")
    code, _ = run_cli(tmp_path, "graph", "gaps", "--L", "2")
    assert code == 2
    assert "LADDERSPEC_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("LADDERSPEC_THREADS", "1")
    code, _ = run_cli(tmp_path, "graph", "gaps", "--L", "2", "--omega-max", "5")
    assert code == 0


_GRAPH = ["--omega-max", "--tol"]
_STUDY = ["--tol", "--eps", "--h"]
_LOCALIZED = ["--eps", "--mu", "--h", "--cells", "--seed", "--dump-modes",
              "--window", "--gap", "--nev", "--ntheta"]
#: id -> (argv, flags --help lists besides --L, --class and --out, config keys
#: besides command, L, L_value and class, as resolved before the run;
#: `fem bands` and `study band-edges` then drop an unread seed, see
#: RECORDED_SEED)
COMMAND_FLAGS = {
    "graph-bands": (["graph", "bands", "--seed", "3"], _GRAPH, {"omega_max", "tol"}),
    "graph-gaps": (["graph", "gaps", "--seed", "3"], _GRAPH, {"omega_max", "tol"}),
    "graph-eigs": (["graph", "eigs", "--seed", "3"], _GRAPH + ["--mu"],
                   {"omega_max", "tol", "mu"}),
    "fem-bands": (["fem", "bands", "--eps", "0.2"],
                  ["--eps", "--h", "--nev", "--ntheta", "--seed"],
                  {"eps", "h", "nev", "ntheta", "seed"}),
    "fem-localized-gap": (["fem", "localized", "--eps", "0.2"], _LOCALIZED,
                          {"eps", "mu", "h", "cells", "seed", "dump_modes",
                           "gap", "nev", "ntheta"}),
    "fem-localized-window": (["fem", "localized", "--eps", "0.2", "--window", "2,5"],
                             _LOCALIZED,
                             {"eps", "mu", "h", "cells", "seed", "dump_modes", "window"}),
    "study-band-edges": (["study", "band-edges", "--eps", "0.2,0.1,0.05"],
                         _STUDY + ["--nev", "--ntheta", "--seed", "--slope-min", "--slope-max"],
                         {"tol", "eps", "h", "nev", "ntheta", "seed", "slope_min", "slope_max"}),
    "study-eigenvalues": (["study", "eigenvalues", "--eps", "0.2,0.1,0.05"],
                          _STUDY + ["--mu", "--nev", "--ntheta", "--seed", "--cells",
                                    "--slope-min"],
                          {"tol", "eps", "mu", "h", "nev", "ntheta", "seed", "cells",
                           "slope_min"}),
    "study-quasimode": (["study", "quasimode", "--eps", "0.2,0.1,0.05"],
                        _STUDY + ["--mu", "--cells", "--slope-min"],
                        {"tol", "eps", "mu", "h", "cells", "slope_min"}),
}
_ALL_FLAGS = {f for _, flags, _ in COMMAND_FLAGS.values() for f in flags} | {"--what"}


@pytest.mark.parametrize("case", sorted(COMMAND_FLAGS))
def test_each_command_takes_and_records_only_the_flags_it_reads(case, capsys):
    argv, flags, keys = COMMAND_FLAGS[case]
    with pytest.raises(SystemExit) as exc:
        main(argv[:2] + ["--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == {"--L", "--class", "--out", *flags}
    # graph commands accept a hidden --seed that they never read
    hidden = {"--seed"} if argv[0] == "graph" else set()
    for flag in sorted(_ALL_FLAGS - listed - hidden):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    args = cli._build_parser().parse_args(argv)
    _, config = cli._resolve(args)
    assert set(config) == {"command", "L", "L_value", "class"} | keys


_BANDS_KEYS = {"eps", "h", "nev", "ntheta"}
_BAND_EDGES_KEYS = {"tol", "eps", "h", "nev", "ntheta", "slope_min", "slope_max"}
_LOCALIZED_KEYS = {"eps", "mu", "h", "cells", "dump_modes"}
_EMPTY_WINDOW = ("fem", "localized", "--L", "2", "--eps", "0.2", "--mu", "0.25", "--cells", "6")
#: argv -> config keys the run records besides command, L, L_value and class:
#: a sweep records seed only when one of its cells (L = 2, h = eps/4) went to
#: the Lanczos side, above 500 dofs (eps 0.05: 780 dofs; 0.4, 0.3, 0.2: 80 to
#: 180 dofs); `fem localized` records it when its window holds a mode (the
#: window (2.1, 5) holds two, (2.1, 2.2) and the defect-free gap 1 none) or
#: its --gap sweep went to the Lanczos side
RECORDED_SEED = {
    ("fem", "bands", "--eps", "0.2"): _BANDS_KEYS,
    ("fem", "bands", "--eps", "0.05"): _BANDS_KEYS | {"seed"},
    ("study", "band-edges", "--eps", "0.4,0.3,0.2"): _BAND_EDGES_KEYS,
    ("study", "band-edges", "--eps", "0.4,0.3,0.05"): _BAND_EDGES_KEYS | {"seed"},
    (*_EMPTY_WINDOW, "--window", "2.1,2.2"): _LOCALIZED_KEYS | {"window"},
    (*_EMPTY_WINDOW, "--window", "2.1,5"): _LOCALIZED_KEYS | {"window", "seed"},
    ("fem", "localized", "--eps", "0.2", "--mu", "1"):
        _LOCALIZED_KEYS | {"gap", "nev", "ntheta"},
}


@pytest.mark.parametrize("argv", sorted(RECORDED_SEED), ids=" ".join)
def test_seed_is_recorded_only_when_a_lanczos_sweep_read_it(tmp_path, argv):
    code, _ = run_cli(tmp_path, *argv, "--seed", "5")
    assert code == 0
    config = SpectralReport.load(tmp_path / "out.json").config
    assert set(config) == {"command", "L", "L_value", "class"} | RECORDED_SEED[argv]
    assert config.get("seed", 5) == 5


@pytest.mark.parametrize("flag", ["--nev", "--ntheta"])
def test_fem_localized_window_rejects_gap_search_flags(tmp_path, capsys, flag):
    # --nev and --ntheta size the Bloch sweep that finds --gap; --window skips it
    code, _ = run_cli(tmp_path, "fem", "localized", "--eps", "0.2", "--window", "2,5",
                      flag, "9")
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    with pytest.raises(SystemExit) as exc:
        main(["fem", "localized", "--eps", "0.2", "--window", "2,5", "--gap", "2"])
    assert exc.value.code == 2
    assert "--gap" in capsys.readouterr().err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("ladderspec ")]


def test_readme_command_examples_parse():
    commands = _readme_commands()
    assert {(a[0], a[1]) for a in commands} == {
        (group, action) for group, actions in cli.COMMANDS.items() for action in actions
    }
    for argv in commands:
        args = cli._build_parser().parse_args(argv)  # exits 2 on an unknown flag
        cli._resolve(args)
