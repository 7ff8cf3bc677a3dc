"""Traced stand-in for `python -m gasp`, used by the cli workload's traced run.

Times `import gasp.cli`, wraps the layers, runs `cli.main(argv)` and
writes its spans as JSON on the last line of stderr, after MARK.

    python3 perfbench/cli_child.py models corpus/p1.gasp
"""

import json
import sys
from time import perf_counter

MARK = "perfbench-trace "


def main() -> int:
    start = perf_counter()
    from gasp import cli

    import_ms = (perf_counter() - start) * 1e3
    from tracing import Tracer

    tracer = Tracer()
    tracer.counts["cli.import_ms"] = import_ms
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(MARK + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
