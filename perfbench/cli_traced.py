"""Run one quivercoh CLI command with the tracer installed.

Usage: cli_traced.py <quivercoh arguments...>  (with the library's src
directory on PYTHONPATH).  Stdout is the command's own; the trace totals
go to stderr as the last line, after ``PERFBENCH-TRACE``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    start = time.perf_counter()
    import quivercoh.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    cli_main = tracer.span("cli.main", quivercoh.cli.main)
    start = time.perf_counter()
    try:
        code = cli_main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - start
        missed = tracer.missed()
        tracer.uninstall()
        sys.stdout.flush()
        trace = {"import_s": import_s, "main_s": main_s, "missed": missed, "raw": tracer.raw()}
        print("PERFBENCH-TRACE " + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
