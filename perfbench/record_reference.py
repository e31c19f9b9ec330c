"""Record the reference input digests and answers of the given seeds.

    python3 perfbench/record_reference.py 0 1 2 ...

Run from the root of a quivercoh checkout whose answers are trusted.
Every answer must first pass the workload's invariant checks.  Writes
perfbench/reference.json, keeping the seeds not named.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(seeds) -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import checks
    import gen
    from run import BUDGET_S, WORKLOADS, spawn_worker

    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in WORKLOADS:
        for seed in seeds:
            inputs = gen.inputs(workload, seed)
            payload = {"workload": workload, "mode": "pass", "root": root, "inputs": inputs}
            result, _ = spawn_worker(payload, time.monotonic() + BUDGET_S)
            failed = checks.failed_ops(workload, inputs, result["index"], result["answers"])
            if failed:
                print(f"{workload} seed {seed}: {len(failed)} answers fail their checks",
                      file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                "inputs": gen.digest(inputs),
                "answers": [checks.short_digest(a) for a in result["answers"]],
            }
            print(f"{workload} seed {seed}: {len(result['answers'])} answers", flush=True)
    lines = []
    for workload in sorted(reference):
        entries = [
            f'  "{seed}": {json.dumps(entry, sort_keys=True)}'
            for seed, entry in sorted(reference[workload].items(), key=lambda kv: int(kv[0]))
        ]
        lines.append(f'"{workload}": {{\n' + ",\n".join(entries) + "\n }")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n " + ",\n ".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
