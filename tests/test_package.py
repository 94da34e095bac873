"""The package namespace: every lazily exported name resolves, every name the
benchmark's tracer wraps resolves, the command-line front end imports no
numeric library before it runs a command, the graph commands load numpy only,
the FEM route loads scipy.optimize only for an interior band extreme, every
SuperLU factorisation keeps the pencil's own column order, every ARPACK call
fixes its tolerance and start vector and runs on its caller's LU and Krylov
size, the three routes import nothing of
each other but the oracle's inertia count, the tests' Bloch reference
takes nothing from `fem` but the untied P1 matrices, and a dense `fem bands`
run solves through `fem.eig_dense`, where the benchmark's self-test hooks
it."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import ladderspec
from ladderspec import cli, fem


def test_every_exported_name_resolves():
    for name in ladderspec.__all__:
        assert getattr(ladderspec, name) is not None, name


def _modules_after(code):
    """Names in sys.modules after `code` runs in a fresh interpreter, with the
    package on the path and `ladderspec.cli` bound to `cli`."""
    src = str(Path(ladderspec.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import ladderspec, ladderspec.cli as cli\n"
        f"{code}\n"
        "print(*sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return set(out.stdout.splitlines()[-1].split())


def _top_level(modules):
    return {m.split(".")[0] for m in modules}


def test_cli_parser_loads_neither_numpy_nor_scipy():
    # LADDERSPEC_THREADS must reach the environment before the BLAS loads
    loaded = _top_level(_modules_after("cli._build_parser()"))
    assert loaded & {"numpy", "scipy"} == set()


def test_graph_commands_load_numpy_only(tmp_path):
    runs = [["bands"], ["gaps"], ["eigs", "--mu", "0.25"]]
    code = "\n".join(
        f"cli.main(['graph', *{r!r}, '--L', '2', '--omega-max', '10', "
        f"'--out', {str(tmp_path / r[0])!r}])"
        for r in runs
    )
    loaded = _top_level(_modules_after(code))
    assert loaded & {"numpy", "scipy"} == {"numpy"}


def test_fem_bands_on_the_grid_skips_scipy_optimize(tmp_path):
    # no band extreme of this cell lies strictly inside the theta grid, so the
    # bounded refinement, the only user of scipy.optimize, never runs
    code = (
        "import ladderspec.fem, ladderspec.graph1d, ladderspec.eigen\n"
        "cli.main(['fem', 'bands', '--L', '2', '--eps', '0.4', '--nev', '2', "
        f"'--out', {str(tmp_path / 'out')!r}])"
    )
    assert "scipy.optimize" not in _modules_after(code)


def _call_nodes(func_name):
    """(file, ast.Call) for every call of func_name, as a bare name or an
    attribute, in the package's source."""
    src = Path(ladderspec.__file__).resolve().parent
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == func_name:
                    calls.append((path.name, node))
    return calls


def _calls_in_package(func_name):
    """(file, line, keyword names) for every call of func_name."""
    return [
        (p, node.lineno, {k.arg for k in node.keywords}) for p, node in _call_nodes(func_name)
    ]


def test_every_splu_call_names_its_ordering():
    # every sparse pencil comes numbered along its comb, an order each
    # factorisation keeps (eigen.py says why): SuperLU must run no ordering
    # pass, and its default, COLAMD, must not stand in
    calls = _call_nodes("splu")
    assert calls
    orderings = {
        (p, node.lineno): [
            ast.literal_eval(k.value) for k in node.keywords if k.arg == "permc_spec"
        ]
        for p, node in calls
    }
    assert {where: o for where, o in orderings.items() if o != ["NATURAL"]} == {}


def test_every_eigsh_call_fixes_tol_and_start():
    # ARPACK's defaults are a machine-precision stop (tol=0), which the
    # oracle's error bounds make needless, and a start vector drawn from
    # process-global state, which makes repeated calls differ in the last bits
    calls = _calls_in_package("eigsh")
    assert calls
    assert [(p, n) for p, n, kws in calls if not {"tol", "v0"} <= kws] == []


def test_every_eigsh_call_runs_on_a_factorisation_of_its_caller():
    # without OPinv, scipy factors the shift for ARPACK by COLAMD, an
    # ordering pass the comb order makes needless, and with a default Krylov
    # size sized for no window of the package
    calls = _calls_in_package("eigsh")
    assert calls
    assert [(p, n) for p, n, kws in calls if not {"OPinv", "ncv"} <= kws] == []


def _package_imports(path):
    """(package module, name) for every import of the package in the file at
    path, function-level ones included; name is "*" for a whole module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # from .x import y, from . import x
                sub = module
            elif module == "ladderspec" or module.startswith("ladderspec."):
                sub = module.partition(".")[2]
            else:
                continue
            if sub:
                found |= {(sub.split(".")[0], a.name) for a in node.names}
            else:
                found |= {(a.name, "*") for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "ladderspec" and len(parts) > 1:
                    found.add((parts[1], "*"))
    return found


def test_routes_stay_independent():
    # the oracle and the closed-form route check each other and the FEM
    # route; the oracle takes only an inertia count from the FEM side
    src = Path(ladderspec.__file__).resolve().parent
    oracle = _package_imports(src / "graph1d.py")
    assert oracle
    assert {m for m, _ in oracle} & {"dispersion", "bands", "modes", "mesh", "fem"} == set()
    assert {n for m, n in oracle if m == "eigen"} <= {"count_below"}
    for module in ("dispersion", "bands", "modes"):
        imported = {m for m, _ in _package_imports(src / f"{module}.py")}
        assert imported & {"mesh", "fem", "eigen", "graph1d"} == set(), module


def test_bloch_reference_takes_only_assemble_p1_from_fem():
    # the test-side pencil checks `fem._BlochSplit`, so it must not be built
    # from the split or any other tying code of `fem`
    imported = _package_imports(Path(__file__).resolve().parent / "bloch_reference.py")
    assert {n for m, n in imported if m == "fem"} == {"assemble_p1"}


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/tracing.py wraps these names by module and qualified name; a
    # renamed or deleted one fails here, not only in the benchmark self-test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    names = [(mod, qual) for mod, qual, *_ in tracing.TARGETS.values()]
    names += list(tracing.COUNTED.values())
    assert [n for n in names if tracing.resolve(*n) is None] == []


def test_dense_bloch_cell_fails_through_fem_eig_dense(monkeypatch, tmp_path):
    # perfbench/selftest.py perturbs the bloch_cell workload by patching
    # fem.eig_dense: a dense `fem bands` run must reach its solver there, so
    # that a failing solver is a failing command
    def failing(*args, **kwargs):
        raise RuntimeError("injected numerical failure")

    monkeypatch.setattr(fem, "eig_dense", failing)
    argv = ["fem", "bands", "--L", "2", "--eps", "0.4", "--nev", "2"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 3
