"""Run one greenpot CLI invocation and record what the benchmark measures.

Usage: ``python3 child.py STATS TRACE SUBCOMMAND [FLAGS...]``

``STATS`` is the path of a JSON file written when the invocation ends;
``TRACE`` is 1 to record spans around the public functions, else 0.  The
parent passes its ``time.monotonic()`` reading taken just before spawning
this process in ``GREENPOT_BENCH_SPAWN``; on Linux that clock is shared by
all processes, so the difference is the set-up time from process start.
"""

import os
import sys
import time

spawned = float(os.environ["GREENPOT_BENCH_SPAWN"])
import_start = time.monotonic()
import greenpot.cli  # noqa: E402

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    stats_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    stats = {"setup_s": imported - spawned, "import_s": imported - import_start}
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        stats["rebound"] = recorder.install()
    try:
        code = greenpot.cli.main(argv)
    finally:
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            stats["trace"] = recorder.dump()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
