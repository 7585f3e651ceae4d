"""Small statistics and host-fingerprint helpers of the benchmark."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys


def percentile(values, q: float) -> dict:
    """The ``q``-th percentile (nearest rank) with the sample it rests on.

    Returns ``{"value", "samples", "beyond"}``: ``beyond`` is how many
    samples lie above the reported rank, so a reader can tell a p90 that
    rests on ten slow requests from one that is just the maximum.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return {"value": ordered[rank - 1], "samples": len(ordered), "beyond": len(ordered) - rank}


def spread(values) -> dict:
    """Median, quartiles and the interquartile range as a share of the median."""
    values = list(values)
    if len(values) < 2:
        only = values[0]
        return {"median": only, "q1": only, "q3": only, "iqr_share": 0.0, "runs": len(values)}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(mid) if mid else math.inf
    return {"median": mid, "q1": q1, "q3": q3, "iqr_share": share, "runs": len(values)}


def fingerprint(src: str) -> dict:
    """Host facts that change what a timing means.

    The kernels backend is resolved by the program under test itself (in
    a child interpreter, so the benchmark process does not import it).
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    probe = subprocess.run(
        [sys.executable, "-c", "from repro.core import kernels; print(kernels.resolve(None))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "kernels": probe.stdout.strip() if probe.returncode == 0 else None,
    }


class FingerprintMismatch(Exception):
    """Two results were taken on hosts that are not comparable."""


def check_comparable(first: dict, second: dict) -> None:
    """Refuse to compare results whose host fingerprints differ."""
    if first != second:
        keys = sorted(set(first) | set(second))
        diff = {key: (first.get(key), second.get(key)) for key in keys if first.get(key) != second.get(key)}
        raise FingerprintMismatch(f"results come from different hosts: {diff}")
