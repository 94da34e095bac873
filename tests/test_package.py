"""The package namespace: every lazily exported name resolves, and the
command-line front end imports no numeric library before it runs a command."""

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
