"""Run one ``treegroups`` CLI call with span tracing installed.

Usage: python perfbench/traced_cli.py OUT.json -- CLI-ARGS...

Stdout and the exit code are the CLI's own.  The span summary, the
interpreter's spawn-to-ready time and the import times are written to
OUT.json after the call returns.  The parent passes its spawn time in
PERFBENCH_SPAWN (``time.monotonic``, shared by processes on one host).
"""

import json
import os
import sys
import time

t_start = time.monotonic()
import mpmath  # noqa: E402,F401  (timed on its own: the bounds layer's dependency)
t_mpmath = time.monotonic()
import treegroups.cli  # noqa: E402
t_ready = time.monotonic()

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py OUT.json -- CLI-ARGS...")
    tracer = Tracer()
    tracer.install()
    sys.argv = ["treegroups"] + argv
    try:
        treegroups.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    summary = tracer.summary()
    summary["startup"] = {
        "ready_s": t_ready - float(os.environ["PERFBENCH_SPAWN"]),
        "import_s": t_ready - t_start,
        "mpmath_s": t_mpmath - t_start,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
