"""Traced stand-in for ``python -m repro.cli``: same arguments, spans recorded.

Usage::

    REPRO_BENCH_OP=<op id> REPRO_BENCH_TRACE_OUT=spans.json \\
        python perfbench/cli_child.py anonymize input.jsonl --stream ...

Installs the :mod:`benchtrace` wrappers, runs ``repro.cli.main`` with the
given arguments as the root span of the operation, and writes the spans
out before exiting with the CLI's exit code.  Untraced runs call
``python -m repro.cli`` directly.
"""

from __future__ import annotations

import os
import sys

import benchtrace


def main() -> int:
    recorder = benchtrace.install()
    from repro import cli

    try:
        return recorder.call("cli.main", cli.main, (sys.argv[1:],), {}, op=os.environ["REPRO_BENCH_OP"])
    finally:
        recorder.dump(os.environ["REPRO_BENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
