"""Run the qpp command line from this checkout's sources in a fresh interpreter.

Usage: python3 perfbench/launch.py ARGS...   (the same ARGS as `qpp ARGS...`)

When QPP_BENCH_SPANS names a file, the launcher times `import qpp.cli` and
`cli.main(argv)` separately, traces the calls into qpp while main runs, and
writes the spans to that file before exiting with main's exit code.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path = os.environ.get("QPP_BENCH_SPANS")
    start = time.perf_counter_ns()
    from qpp import cli

    imported = time.perf_counter_ns()
    if not spans_path:
        return cli.main(sys.argv[1:])

    from tracer import Tracer

    tracer = Tracer()
    tracer.add("import.qpp_cli", start, imported, -1)
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
