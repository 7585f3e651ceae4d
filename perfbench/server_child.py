"""Process under test for the HTTP workloads: one ``ServiceHTTPServer``.

Usage (the benchmark spawns it with ``PYTHONPATH`` pointing at ``src``)::

    python perfbench/server_child.py --config '{"workers": 2, ...}' [--trace-out spans.json]

Prints ``{"port": N}`` once listening, serves until its stdin is closed,
then drains and exits.  With ``--trace-out`` the wrappers of
:mod:`benchtrace` are installed first and the recorded spans are written
there on shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="ServiceConfig fields as JSON")
    parser.add_argument("--trace-out", default=None, help="write recorded spans here")
    args = parser.parse_args()

    recorder = None
    if args.trace_out:
        import benchtrace

        recorder = benchtrace.install()

    from repro.service import AnonymizationService, ServiceConfig
    from repro.service.http import ServiceHTTPServer

    config = ServiceConfig(**json.loads(args.config))
    server = ServiceHTTPServer(AnonymizationService(config), port=0).start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        sys.stdin.read()  # EOF: the benchmark is done (or gone)
    finally:
        server.close(drain=True)
        if recorder is not None:
            recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
