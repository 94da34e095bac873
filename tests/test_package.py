"""The package namespace: every lazily exported name resolves, every name the
benchmark's tracer wraps resolves, the command-line front end imports no
numeric library before it runs a command, the graph commands load numpy only,
the FEM route loads scipy.optimize only for an interior band extreme, and
every SuperLU factorisation names its column ordering."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import ladderspec


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


def test_every_splu_call_names_its_ordering():
    # each factorisation's column ordering is chosen for how it is used
    # (eigen.py says which and why); SuperLU's default must not stand in
    src = Path(ladderspec.__file__).resolve().parent
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "splu":
                    calls.append((path.name, node.lineno, {k.arg for k in node.keywords}))
    assert calls
    assert [(p, n) for p, n, kws in calls if "permc_spec" not in kws] == []


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
