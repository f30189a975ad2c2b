"""Traced launcher of the control-plane server.

``python3 perfbench/serve.py SPANS serve --journal DIR ...`` installs the
same layer wrappers as every other traced run, then hands the remaining
arguments to the service CLI's ``main`` -- exactly what ``python -m
repro.service`` runs.  The spans stay in memory and are written to SPANS
when ``main`` returns (after a ``/shutdown`` drain).  A server killed with
SIGKILL writes nothing.
"""

from __future__ import annotations

import os
import sys

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(f"service:{os.getpid()}")
    with tracer.span("runner.import"):
        from repro.service.__main__ import main as service_main
    install(tracer)
    try:
        return service_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
