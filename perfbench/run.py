"""ladderspec benchmark: one workload per process, single-threaded BLAS.

Usage (from the repository root):

    python3 perfbench/run.py --workload bloch_cell --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``bloch_cell``, ``defect_window``,
``graph_scan``.  A run sets up (imports, input generation, one warm-up
operation), then repeats passes over the workload's operations for
``--seconds`` seconds, checking every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and the samples.

--trace 0 reports the end-to-end metrics: ``wall_s`` (time for one pass of
checked solutions, summing each operation's median time in the run),
``setup_s`` (median over fresh processes of the time from process start to
the first timed operation) and ``peak_rss_mb``.  Both times are scaled to
the speed of a reference host by HostClock.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of tracing.py (median
over traced passes, in plain seconds) plus the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP before anything loads numpy (nothing above does): the
# single-threaded run is the baseline, and on a 2-core machine threaded
# LAPACK made the Bloch cells both slower and far noisier.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "LADDERSPEC_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_TIMEOUT_S = 100

# Time of HostClock's kernel on the reference host, a quiet 2-vCPU Intel
# Xeon VM: scaled times are seconds on that host.
CAL_REF_S = 0.0125


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process started at this epoch time
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import ladderspec from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "ladderspec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ladderspec sources under {src}")
    sys.path.insert(0, str(src))
    import ladderspec

    if Path(ladderspec.__file__).resolve().parent != src / "ladderspec":
        raise SystemExit(f"perfbench: imported ladderspec from {ladderspec.__file__}, not {src}")


def _environment():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "cpu": cpu or platform.processor(),
    }


class Runner:
    """Runs passes over one workload's operations and checks every output."""

    def __init__(self, ops, workdir):
        self.ops = ops
        self.workdir = workdir
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def run_op(self, i, op):
        """Time one operation, then check it; returns its wall time."""
        prefix = str(self.workdir / f"op{i}")
        for suffix in (".json", ".csv"):
            Path(prefix + suffix).unlink(missing_ok=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = op.call(prefix)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        try:
            problems = op.problems(op.read(prefix, raw))
            if op.writes_csv:
                digest = hashlib.sha256(Path(prefix + ".csv").read_bytes()).hexdigest()
                if self.digests.setdefault(i, digest) != digest:
                    problems.append(f"{op.key}: CSV differs from the first pass")
        except Exception as exc:
            problems = [f"{op.key}: unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append("; ".join(problems))
        return dt

    def run_pass(self, only=None):
        """Wall time of each op of one pass (or of the ops with indices in only)."""
        return {
            i: self.run_op(i, op) for i, op in enumerate(self.ops) if only is None or i in only
        }


def remove_workdir(workdir):
    """Delete a run's output directory, and its parent once that is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


class HostClock:
    """Factors that scale timings to the speed of the reference host.

    Other tenants of a shared host slow a run by up to half for stretches of
    seconds to minutes, and raw times move with them, the fastest time per
    op included.  A fixed kernel that does not touch the program (an
    interpreter loop, a small dense generalized eigh and a SuperLU solve, the
    three kinds of work the workloads do) is timed after every sample.  Each
    sample is divided by the mean kernel time just before and just after it
    and multiplied by CAL_REF_S.  Over ten seeds on a 2-vCPU VM whose
    kernel time swung between 12.7 and 21.5 ms, the median pass spread by
    8-26% (IQR/median) and wall_s by 2-4%.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        # Bound now, before a tracer wraps these names: the kernel's calls
        # must not show up in the trace.
        from scipy.linalg import eigh
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 120))
        self.a = a + a.T
        self.b = 4.0 * np.eye(120) + 0.01 * (self.a @ self.a.T) / 120
        line = sp.diags_array([-np.ones(49), 2.0 * np.ones(50), -np.ones(49)],
                              offsets=[-1, 0, 1])
        self.lap = (sp.kron(line, sp.eye_array(50)) + sp.kron(sp.eye_array(50), line)).tocsc()
        self.rhs = np.ones(2500)
        self.eigh, self.splu = eigh, splu
        self.samples = []
        self.last = self._kernel()

    def _kernel(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            acc += math.sin(i * 0.001) * (i % 7)
        self.eigh(self.a, self.b)
        self.splu(self.lap).solve(self.rhs)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self):
        """Reference-host seconds per second, for a sample just taken."""
        following = self._kernel()
        ratio = 2.0 * CAL_REF_S / (self.last + following)
        self.last = following
        return ratio


def pass_s(passes):
    """Sum over ops of each op's median scaled time; a sample is (seconds, factor)."""
    return sum(statistics.median(t * f for t, f in (p[i] for p in passes)) for i in passes[0])


def _setup(args, workdir):
    """Imports, input generation and one warm-up op; returns the runner."""
    _import_program()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    runner = Runner(ops, workdir)
    runner.run_pass({i for i, op in enumerate(ops) if op.warm})
    return runner, workloads


def _probe_setup(args):
    """Set-up time of a fresh process, measured by the parent's clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _measure(args, runner, tracer):
    """Passes for --seconds seconds (at least two); returns (seconds, factor) samples.

    Untraced runs time a fresh-process set-up after every other pass, so the
    set-up samples are spread over the run like the passes are.  Traced runs
    alternate untraced and traced passes instead.
    """
    from tracing import layer_metrics

    clock = HostClock()

    def timed_pass():
        return {i: (runner.run_op(i, op), clock.factor()) for i, op in enumerate(runner.ops)}

    untraced, traced, layers, setups = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(untraced) + len(traced) < 2:
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(timed_pass())
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, tracer.counts, tracer.missing))
        else:
            untraced.append(timed_pass())
            if tracer is None and len(untraced) % 2 == 1:
                setups.append((_probe_setup(args), clock.factor()))
    return untraced, traced, layers, setups, clock.samples


def main(argv=None):
    args = _parse(argv)
    workdir = ROOT / ".perfbench-out" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner, workloads = _setup(args, workdir)
        if args.setup_probe is not None:
            print(f"{time.time() - args.setup_probe!r}")
            return 0
        env = _environment()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        untraced, traced, layers, setups, kernel_s = _measure(args, runner, tracer)
    finally:
        remove_workdir(workdir)

    failed = len(runner.failures)
    if args.trace:
        from tracing import METRICS, RUN_METRICS

        names = [m.name for m in METRICS]
        units = {m.name: m.unit for m in METRICS}
        units.update({name: unit for name, unit, _, _ in RUN_METRICS})
        values = {n: statistics.median(p[n] for p in layers) for n in names if n in layers[0]}
        values["bench.trace_overhead_s"] = pass_s(traced) - pass_s(untraced)
        values["bench.failed_frac"] = failed / runner.attempted
        missing = [n for n in names if n not in values]
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "wall_s": pass_s(untraced),
            "setup_s": statistics.median(t * f for t, f in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        missing = []
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "mus": list(workloads.mus_for_seed(args.seed)),
        "trace": args.trace,
        "env": env,
        "ops_per_pass": len(runner.ops),
        "untraced_pass_s": [sum(t for t, _ in p.values()) for p in untraced],
        "traced_pass_s": [sum(t for t, _ in p.values()) for p in traced],
        "setup_s_samples": [t for t, _ in setups],
        "host_kernel_s": kernel_s,
        "failures": runner.failures[:20],
        "missing": missing + (tracer.missing if tracer else []),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
