"""
Write the committed golden outputs for every operation of every pool.

    python3 perfbench/make_goldens.py

Run it only when a change is meant to alter the program's output; the
benchmark fails every operation whose output differs from its golden.
For sweep the golden is the CLI's JSON output and the member words of the
family; for the suites it is the report's to_json_dict() (ms null).
"""

from __future__ import annotations

import json

import workloads
from checks import golden_path
from worker import import_program, op_runner, prepare


def main() -> None:
    import_program()
    from schubfactor.composition import Composition
    from schubfactor.verifier import member_set

    for workload in workloads.WORKLOADS:
        ops = workloads.pool(workload)
        run = op_runner(workload)
        goldens = {}
        for (family, parts), inp in zip(ops, prepare(workload, ops)):
            _, status, output = run(inp)
            if status != 0:
                raise SystemExit(f"{workload} {family} {parts}: status {status}")
            if workload == workloads.SWEEP:
                members = member_set(Composition(parts), family).members
                golden = {"stdout": output, "members": [list(w.word) for w in members]}
            else:
                golden = {"report": output}
            goldens[workloads.op_key(family, parts)] = golden
        lines = [f"{json.dumps(key)}: {json.dumps(goldens[key], sort_keys=True)}" for key in sorted(goldens)]
        with open(golden_path(workload), "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one operation per line
        print(f"{workload}: {len(goldens)} goldens")


if __name__ == "__main__":
    main()
