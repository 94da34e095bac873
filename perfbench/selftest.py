"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a tiny pass (the ops marked ``tiny``) of each workload, untraced and
traced, and checks that: every output passes; every per-layer metric is
computed; ``run.py`` emits every metric named in BENCHMARK.json; a
perturbed program output, a failing command and a CSV that changes between
passes are each counted as a failed op, while eigenvalues moved by
round-off are not; and ``run.py`` refuses to report
from a directory without the program's sources.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from ladderspec import bands, fem, graph1d, report  # noqa: E402

FAILURES = []


def expect(ok, label):
    print(("ok   " if ok else "FAIL ") + label, flush=True)
    if not ok:
        FAILURES.append(label)


def tiny_runner(workload, workdir):
    ops = [op for op in workloads.build(workload, 0) if op.tiny]
    return run.Runner(ops, workdir)


def patched(module, name, make):
    """Context manager: replace module.name by make(original) for the block.

    Patch the namespace the caller looks the name up in (fem imports
    eig_dense into its own namespace, for instance).
    """

    class _Patch:
        def __enter__(self):
            self.original = getattr(module, name)
            setattr(module, name, make(self.original))

        def __exit__(self, *exc):
            setattr(module, name, self.original)

    return _Patch()


def test_metric_lists():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    want = [(m.name, m.unit, m.better) for m in tracing.METRICS]
    want += [(name, unit, better) for name, unit, better, _ in tracing.RUN_METRICS]
    expect(per_layer == want, "BENCHMARK.json per_layer matches tracing.METRICS")
    names = [w["name"] for w in spec["workloads"]]
    expect(tuple(names) == workloads.WORKLOADS, "BENCHMARK.json workloads match workloads.py")
    return spec


def test_tiny_passes(workdir):
    for workload in workloads.WORKLOADS:
        runner = tiny_runner(workload, workdir)
        runner.run_pass()
        originals = {name: tracing.resolve(mod, qual)[2]
                     for name, (mod, qual, _, _) in tracing.TARGETS.items()}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.run_pass()
        finally:
            tracer.uninstall()
        expect(runner.failures == [] and runner.attempted == 2 * len(runner.ops),
               f"{workload}: tiny pass of {len(runner.ops)} ops, untraced and traced, "
               f"all checked ok {runner.failures[:2]}")
        values = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.missing)
        expect(tracer.missing == [] and set(values) == {m.name for m in tracing.METRICS},
               f"{workload}: every traced name resolves and every layer metric is computed")
        restored = all(tracing.resolve(mod, qual)[2] is originals[name]
                       for name, (mod, qual, _, _) in tracing.TARGETS.items())
        expect(restored, f"{workload}: tracer restored every wrapped name")


def _shift_bands(original):
    def shifted(*args, **kwargs):
        out = original(*args, **kwargs)
        return [bands.Band(b.omega_lo * (1 + 1e-6), b.omega_hi * (1 + 1e-6)) for b in out]

    return shifted


def _scale_dense(original):
    def scaled(*args, **kwargs):
        res = original(*args, **kwargs)
        res.values = res.values * (1 + 1e-6)
        return res

    return scaled


def _shift_dense(original):
    """Shift every eigenvalue by 2e-11, the size of the difference between a
    dense and a sparse solve of one pencil: a band edge at zero moves from
    about 3e-7 to 4.5e-6 in omega."""

    def shifted(*args, **kwargs):
        res = original(*args, **kwargs)
        res.values = res.values + 2e-11
        return res

    return shifted


def _drop_oracle_root(original):
    def dropped(*args, **kwargs):
        res = original(*args, **kwargs)
        res.omegas = res.omegas[1:]
        return res

    return dropped


def _raise(original):
    def failing(*args, **kwargs):
        raise RuntimeError("injected numerical failure")

    return failing


def _csv_counter(original):
    calls = [0]

    def noisy(self, name, path):
        original(self, name, path)
        calls[0] += 1
        with open(path, "a") as fh:
            fh.write(f"# pass {calls[0]}\n")

    return noisy


def test_perturbations(workdir):
    cases = [
        ("graph_scan", bands, "essential_bands", _shift_bands,
         "graph band edges moved by 1e-6 relative"),
        ("bloch_cell", fem, "eig_dense", _scale_dense,
         "FEM eigenvalues scaled by 1 + 1e-6"),
        ("defect_window", graph1d, "oracle_gap_eigenvalues", _drop_oracle_root,
         "oracle returns one eigenvalue too few"),
        ("bloch_cell", fem, "eig_dense", _raise,
         "FEM solver raises (CLI exit 3)"),
    ]
    for workload, module, name, make, label in cases:
        runner = tiny_runner(workload, workdir)
        with patched(module, name, make):
            runner.run_pass()
        expect(len(runner.failures) >= 1 and runner.attempted == len(runner.ops),
               f"{workload}: perturbation counted as a failed op ({label}): "
               f"{len(runner.failures)} of {runner.attempted} failed")
    runner = tiny_runner("bloch_cell", workdir)
    with patched(fem, "eig_dense", _shift_dense):
        runner.run_pass()
    expect(runner.failures == [] and runner.attempted == len(runner.ops),
           f"bloch_cell: eigenvalues moved by round-off (2e-11) pass, zero band edge "
           f"included {runner.failures[:2]}")
    runner = tiny_runner("graph_scan", workdir)
    with patched(report.SpectralReport, "write_table_csv", _csv_counter):
        runner.run_pass()
        runner.run_pass()
    n = len(runner.ops)
    expect(len(runner.failures) == n and all("CSV differs" in f for f in runner.failures),
           f"graph_scan: CSVs that change between passes are flagged ({len(runner.failures)} of {n})")


def _run_py(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "graph_scan", "--seed", "0",
           "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_output(spec):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run_py(ROOT, "--trace", trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(proc.returncode == 0 and result["correct"] and got == want
               and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"run.py --trace {trace} emits every {group} metric with its unit")


def test_bare_directory(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_py(bare, "--trace", "0")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and '"correct"' not in last,
           f"run.py without the program's sources exits {proc.returncode} with no result")


def main():
    workdir = ROOT / ".perfbench-out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = test_metric_lists()
        test_tiny_passes(workdir)
        test_perturbations(workdir)
        test_run_output(spec)
        test_bare_directory(workdir)
    finally:
        run.remove_workdir(workdir)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
