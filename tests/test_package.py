"""The package namespace: every lazily exported name resolves, every name the
benchmark's tracer wraps resolves, and the command-line front end imports no
numeric library before it runs a command."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import ladderspec


def test_every_exported_name_resolves():
    for name in ladderspec.__all__:
        assert getattr(ladderspec, name) is not None, name


def test_cli_parser_loads_neither_numpy_nor_scipy():
    # LADDERSPEC_THREADS must reach the environment before the BLAS loads
    src = str(Path(ladderspec.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import ladderspec, ladderspec.cli as cli; cli._build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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
