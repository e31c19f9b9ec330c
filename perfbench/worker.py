"""One benchmark worker: a fresh process that sets up one workload and
runs its closed loop with a single caller.

Reads one JSON payload on stdin:

    {"workload", "mode", "seconds", "min_ops", "root", "inputs"}

and prints one JSON result line on stdout.  ``ready`` in the result is
``time.monotonic()`` at the moment set-up ended, so the parent can take
set-up time from its own spawn timestamp.  Modes:

* ``setup``: stop once ready;
* ``run``: the untraced timed loop, at least ``seconds`` long and at
  least ``min_ops`` operations;
* ``pass``: one untraced pass over the inputs (for recording answers);
* ``trace``: an untraced loop of ``seconds / 2``, then the same
  operations again with the tracer installed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter

CLI_ENTRY = "import sys; from quivercoh.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60
TRACE_MARK = "PERFBENCH-TRACE "


class Failure:
    """An operation that raised; its answer is the exception text."""

    def __init__(self, exc: BaseException):
        self.text = f"error: {exc!r}"


class Workload:
    """Ops are (module, function name, args) so every call looks the
    function up at call time and goes through the tracer once installed."""

    whole_passes = False

    def before_pass(self):
        pass

    def run(self, i: int):
        module, name, args = self.ops[i]
        return getattr(module, name)(*args)

    def warm_up(self):
        for i in self.warm:
            self.run(i)

    def close(self):
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RepWorkload(Workload):
    def __init__(self, inputs, module, name):
        from quivercoh.quiver import rep_from_json

        reps = [rep_from_json(item["rep"]) for item in inputs]
        self.ops = [(module, name, (rep,)) for rep in reps]
        smallest = {}
        for i, (item, rep) in enumerate(zip(inputs, reps)):
            size = sum(rep.dims())
            if item["space"] not in smallest or size < smallest[item["space"]][0]:
                smallest[item["space"]] = (size, i)
        self.warm = [i for _, i in smallest.values()]


class CohomologyWorkload(RepWorkload):
    def __init__(self, inputs, root):
        from quivercoh import cohomology

        super().__init__(inputs, cohomology, "cohomology")

    @staticmethod
    def answer(table) -> str:
        return json.dumps([[r.degree, list(r.nu), r.multiplicity, r.dim] for r in table.rows])


class TangentWorkload(RepWorkload):
    def __init__(self, inputs, root):
        from quivercoh import stability

        super().__init__(inputs, stability, "tangent_dim")

    answer = staticmethod(str)


class PieriWorkload(Workload):
    """Every pass starts with cold pieri caches, as every ``quivercoh
    oracle`` process does; passes are never cut short."""

    whole_passes = True

    def __init__(self, inputs, root):
        from quivercoh import pieri
        from quivercoh.rootsys import Space

        self.caches = [f for f in vars(pieri).values() if hasattr(f, "cache_clear")]
        self.ops = [
            (pieri, "two_step_coefficients", (tuple(a), tuple(rows), m))
            for a, rows, m in inputs["twostep"]
        ]
        self.ops += [
            (pieri, "verify_relation_coefficients", (Space(k, n), tuple(w), tuple(map(tuple, boxes))))
            for k, n, w, boxes in inputs["verify"]
        ]
        self.warm = []  # nothing to warm: every pass clears the caches

    def before_pass(self):
        for f in self.caches:
            f.cache_clear()

    @staticmethod
    def answer(result) -> str:
        if isinstance(result, tuple):
            return f"{result[0]}|{result[1]}"
        return str(result)


class CliWorkload(Workload):
    """Each op is a fresh ``quivercoh`` CLI process, run one at a time."""

    def __init__(self, inputs, root):
        from quivercoh.quiver import rep_from_json

        for text in inputs["reps"]:
            rep_from_json(text)
        scratch = os.path.join(root, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=scratch)
        paths = {}
        for i, text in enumerate(inputs["reps"]):
            path = os.path.join(self.tmp, f"rep{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths[f"{{rep{i}}}"] = path
        self.ops = [[paths.get(arg, arg) for arg in cmd] for cmd in inputs["commands"]]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        self.warm = [0]

    def start_trace(self):
        from tracer import Tracer

        self.tracer = Tracer()  # totals of the traced CLI processes
        self.cli = {"cli.import_s": 0.0, "cli.process_s": 0.0}
        self.missed: list[str] = []

    def _spawn(self, argv):
        start = clock()
        proc = subprocess.run(
            argv, capture_output=True, env=self.env, cwd=self.root, timeout=CLI_TIMEOUT_S
        )
        return proc, clock() - start

    def run(self, i: int):
        proc, _ = self._spawn([sys.executable, "-c", CLI_ENTRY, *self.ops[i]])
        return proc.returncode, proc.stdout

    def run_traced(self, i: int):
        proc, wall = self._spawn(
            [sys.executable, os.path.join(HERE, "cli_traced.py"), *self.ops[i]]
        )
        lines = proc.stderr.decode().splitlines()
        if not lines or not lines[-1].startswith(TRACE_MARK):
            raise RuntimeError(f"traced CLI run left no trace: {proc.stderr[-400:]!r}")
        child = json.loads(lines[-1][len(TRACE_MARK):])
        self.tracer.merge(child["raw"])
        self.cli["cli.import_s"] += child["import_s"]
        self.cli["cli.process_s"] += wall - child["main_s"]
        self.missed.extend(child["missed"])
        return proc.returncode, proc.stdout

    @staticmethod
    def answer(result) -> str:
        import hashlib

        code, out = result
        return f"{code}:{hashlib.sha256(out).hexdigest()}"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "cohomology_batch": CohomologyWorkload,
    "tangent_batch": TangentWorkload,
    "pieri_sweep": PieriWorkload,
    "cli_cold": CliWorkload,
}


def loop(wl, run, seconds=0.0, min_ops=1, max_ops=None):
    """Closed loop over wl.ops in order, cycling.  Stops after max_ops
    ops, or once both seconds and min_ops are reached (at a pass end for
    whole-pass workloads).  Returns latencies, results, elapsed."""
    latencies, results = [], []
    n = len(wl.ops)
    start = clock()
    i = 0
    while True:
        if i % n == 0:
            wl.before_pass()
        t0 = clock()
        try:
            result = run(i % n)
        except Exception as exc:  # counted as a failed op, the loop goes on
            result = Failure(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        results.append(result)
        i += 1
        if max_ops is not None:
            if i >= max_ops:
                break
        elif t1 - start >= seconds and i >= min_ops and not (wl.whole_passes and i % n):
            break
    return latencies, results, clock() - start


def answers(wl, results) -> list[str]:
    return [r.text if isinstance(r, Failure) else wl.answer(r) for r in results]


def main() -> int:
    # a terminated worker still stops its running CLI child (subprocess.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    payload = json.load(sys.stdin)
    root = payload["root"]
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import quivercoh  # noqa: F401  (set-up covers the package import)

    wl = WORKLOADS[payload["workload"]](payload["inputs"], root)
    try:
        wl.warm_up()
        out = {"ready": time.monotonic()}
        mode = payload["mode"]
        if mode == "trace":
            out.update(trace(wl, payload["seconds"]))
        elif mode != "setup":
            if mode == "run":
                timed = loop(wl, wl.run, payload["seconds"], payload["min_ops"])
            else:  # "pass"
                timed = loop(wl, wl.run, max_ops=len(wl.ops))
            latencies, results, elapsed = timed
            out.update(
                latencies=latencies,
                elapsed=elapsed,
                answers=answers(wl, results),
                index=[i % len(wl.ops) for i in range(len(results))],
            )
        out["peak_rss_mb"] = wl.peak_rss_mb()
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


def trace(wl, seconds) -> dict:
    from tracer import Tracer

    _, plain, plain_s = loop(wl, wl.run, seconds / 2)
    if isinstance(wl, CliWorkload):
        wl.start_trace()
        _, traced, traced_s = loop(wl, wl.run_traced, max_ops=len(plain))
        metrics, missed = {**wl.tracer.metrics(), **wl.cli}, wl.missed
    else:
        tracer = Tracer()
        tracer.install()
        missed = tracer.missed()
        try:
            _, traced, traced_s = loop(wl, wl.run, max_ops=len(plain))
            missed += tracer.missed()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    plain_answers = answers(wl, plain)
    return {
        "metrics": metrics,
        "missed": sorted(set(missed)),
        "answers": plain_answers,
        "index": [i % len(wl.ops) for i in range(len(plain))],
        "traced_matches": plain_answers == answers(wl, traced),
    }


if __name__ == "__main__":
    sys.exit(main())
