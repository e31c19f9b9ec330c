"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py <workload> <first seed> <count> [seconds]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric its median and the distance between its quartiles as a share of
the median.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, first, count, seconds="20") -> int:
    values: dict[str, list[float]] = {}
    for seed in range(int(first), int(first) + int(count)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{name} median {median:.6g} spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
