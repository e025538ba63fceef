"""One traced `sebalab` command: python3 cli_child.py SPANS_OUT SPAWN_TIME ARGS...

Runs sebalab.cli.main(ARGS) with the benchmark's wrappers installed and
writes the command's spans to SPANS_OUT as JSON lines.  SPAWN_TIME is the
parent's time.time() just before it started this process, so the first span,
``cli.startup``, covers interpreter start-up and the import of sebalab.cli.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import sebalab.cli  # noqa: E402  (PYTHONPATH names the checkout's src)

t_imported, wall_imported = time.perf_counter(), time.time()

import sebalab  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    spans_out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    startup = {"id": 0, "parent": 0, "name": "cli.startup", "layer": "cli",
               "t0": t_imported - (wall_imported - spawned), "t1": t_imported, "items": 1}
    tracer = Tracer().install(sebalab)
    try:
        code = sebalab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_out, extra=[startup])
    return code


if __name__ == "__main__":
    sys.exit(main())
