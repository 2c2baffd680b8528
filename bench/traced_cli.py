"""One CLI query with tracing on, for the traced cli-oneshot run.

    python3 bench/traced_cli.py SPANS_FILE --json classify ...

Runs ``bundlegauge.cli.main`` on the remaining arguments and writes the
spans it recorded to SPANS_FILE.  Run with ``src`` on PYTHONPATH.
"""

import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from bundlegauge import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump_raw(out)


if __name__ == "__main__":
    sys.exit(main())
