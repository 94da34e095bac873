"""Run the ``ladderspec`` command line in-process and read the CSV it wrote."""

from ladderspec.cli import main


def run_cli(tmp_path, *argv, name="out"):
    """Exit code of ``ladderspec *argv --out tmp_path/name``, and that prefix."""
    prefix = tmp_path / name
    code = main([*argv, "--out", str(prefix)])
    return code, prefix


def csv_rows(prefix):
    """Header and rows of ``<prefix>.csv``, each cell as written."""
    lines = (prefix.parent / (prefix.name + ".csv")).read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]
