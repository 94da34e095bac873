"""Record the reference values the benchmark checks outputs against.

Runs every operation of every workload once, for every defect weight in
MU_SET, and writes the checked fields to reference.json.  Run it only on a
commit whose outputs are trusted (the references in the repository were
recorded from the commit that introduced the benchmark):

    python3 perfbench/record.py

Oracle operations are not recorded: they are checked against the
closed-form route at run time.
"""

import json

import run  # pins the BLAS threads before numpy is imported

run._import_program()

import workloads  # noqa: E402


def main():
    ops = workloads.bloch_cell_ops(0)
    for mu in workloads.MU_SET:
        ops += workloads.defect_window_ops(0, (mu,))
    ops += workloads.graph_scan_ops(0, workloads.MU_SET)
    workdir = run.ROOT / ".perfbench-out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for op in ops:
            if op.ref is not None or op.key in refs:
                continue
            prefix = str(workdir / "op")
            out = op.read(prefix, op.call(prefix))
            refs[op.key] = {name: out[name] for name in op.fields if name in out}
            print(op.key, flush=True)
    finally:
        run.remove_workdir(workdir)
    lines = [f" {json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
    with open(workloads.REFERENCE_FILE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
