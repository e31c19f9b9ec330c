"""quivercoh benchmark: one workload, one run.

    python3 perfbench/run.py --workload cohomology_batch --seed 0 --seconds 20 --trace 0

Run from the root of a quivercoh checkout; the library is imported from
its ``src``.  The parent generates the seeded inputs, checks their digest
against ``reference.json``, starts one worker process at a time, checks
every answer, prints every metric by name with its unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cohomology_batch", "tangent_batch", "pieri_sweep", "cli_cold")

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
SETUP_SAMPLES = 5  # set-up is timed this many times a run; the median is reported
BUDGET_S = 170  # every worker of a run must end within this

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import EXTRA, TARGETS

    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in EXTRA:
        units[name] = "ratio" if ".calls_per_" in name else "count"
    units.update({
        "cli.import_s": "s",
        "cli.main.calls": "count",
        "cli.main.self_s": "s",
        "cli.process_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile.  The p-th percentile needs enough samples
    that at least ten lie beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} samples has fewer than ten samples beyond it")
    return sorted(samples)[rank - 1]


class RunError(RuntimeError):
    pass


def spawn_worker(payload: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its set-up
    time (spawn until ready).  A worker past the deadline is killed with
    everything it started."""
    data = json.dumps(payload).encode()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        env=dict(os.environ, PYTHONHASHSEED="0"),  # one hash layout in every run
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(data, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{payload['workload']} worker ran past the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out.decode().splitlines()[-1])
    return result, result["ready"] - spawned


def load_reference(workload: str, seed: int):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: int, trace: bool, root: str):
    """Returns (attempted, failed op positions, metrics, notes)."""
    import checks
    import gen

    inputs = gen.inputs(workload, seed)
    input_digest = gen.digest(inputs)
    reference = load_reference(workload, seed)
    if reference is not None and reference["inputs"] != input_digest:
        raise RunError(
            f"input digest {input_digest} differs from the reference {reference['inputs']} "
            f"for {workload} seed {seed}: the generator or the library it uses changed"
        )
    payload = {"workload": workload, "seconds": seconds, "min_ops": MIN_OPS,
               "root": root, "inputs": inputs}
    deadline = time.monotonic() + BUDGET_S
    notes = {"input_digest": input_digest, "reference": reference is not None}
    if trace:
        result, _ = spawn_worker({**payload, "mode": "trace"}, deadline)
        if result["missed"]:
            raise RunError(f"tracer missed bindings: {result['missed']}")
        units = per_layer_units()
        unknown = set(result["metrics"]) - set(units)
        if unknown:
            raise RunError(f"traced run reported unlisted metrics: {sorted(unknown)}")
        # functions the workload never calls read 0
        metrics = {name: result["metrics"].get(name, 0) for name in units}
        failed = checks.failed_ops(workload, inputs, result["index"], result["answers"], reference)
        if not result["traced_matches"]:
            raise RunError("traced and untraced runs gave different answers")
        return len(result["index"]), failed, metrics, notes
    setups = []
    run = None
    for k in range(SETUP_SAMPLES):
        # set-up samples before and after the timed run, spread over the run
        mode = "run" if k == SETUP_SAMPLES // 2 else "setup"
        result, setup_s = spawn_worker({**payload, "mode": mode}, deadline)
        setups.append(setup_s)
        if mode == "run":
            run = result
    latencies = run["latencies"]
    failed = checks.failed_ops(workload, inputs, run["index"], run["answers"], reference)
    metrics = {
        "ops_per_s": len(latencies) / run["elapsed"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes["setups_s"] = [round(x, 4) for x in setups]
    notes["samples"] = len(latencies)
    notes["distinct_inputs"] = len(set(run["index"]))
    return len(latencies), failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (see spawn_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quivercoh", "__init__.py")):
        print("error: run from the root of a quivercoh checkout (no src/quivercoh here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    try:
        attempted, failed, metrics, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), root
        )
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = END_TO_END if not args.trace else per_layer_units()
    print(f"workload {args.workload} seed {args.seed} {json.dumps(notes)}")
    for name, value in metrics.items():
        extra = f"  (n={notes['samples']})" if name == "latency_p90_ms" else ""
        print(f"{name} {value:.6g} {units[name]}{extra}")
    print(f"failed_ops_frac {len(failed) / attempted:.6g} ratio  ({len(failed)} of {attempted})")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
