"""Run the cohlogic command line in this fresh interpreter with spans on.

    python3 perfbench/cli_shim.py TRACE_FILE ARGS...

behaves as ``python3 -m cohlogic.cli ARGS...`` (same output, same exit
code, same traceback on a crash) and writes the spans of the run, the time
taken to import ``cohlogic.cli`` and the size of the ``normalize`` cache to
TRACE_FILE when it ends.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import cohlogic.cli  # noqa: E402

import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.instrument()
    cli_main = tracer.wrap("cli.main", cohlogic.cli.main)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_path, import_s=import_s,
                    normalize_cache=cohlogic.syntax.normalize.cache_info().currsize)


if __name__ == "__main__":
    sys.exit(main())
