"""Run one nvreadout CLI command in this process and record its timings.

    python3 perfbench/launch.py RECORD TRACE -- ARGS...

ARGS are passed to ``nvreadout.cli.main`` unchanged.  The launcher imports
the CLI from the checkout's ``src``, stamps the moment ``cli.main`` is
entered and the moment it returns, and writes both to the JSON file RECORD,
with the library versions and, when TRACE is 1, every recorded span.  It
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    record_path, trace, separator, *argv = sys.argv[1:]
    if trace not in ("0", "1") or separator != "--":
        raise SystemExit("usage: launch.py RECORD 0|1 -- ARGS...")
    from nvreadout import cli
    from tracer import Tracer, clock_ns

    entry, tracer = cli.main, None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    t_main = clock_ns()
    rc = entry(argv)
    t_end = clock_ns()
    record = {
        "t_main_ns": t_main,
        "t_end_ns": t_end,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "spans": tracer.spans if tracer else None,
    }
    Path(record_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
