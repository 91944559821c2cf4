"""Arithmetic shared by the benchmark: medians, quartiles, failure share,
and rescaling a duration to a reference host speed."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them.

    A single sample is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_frac(attempted: int, failed: int) -> float:
    """Commands that failed, as a share of the commands attempted."""
    if attempted < 1:
        raise ValueError("no command was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def normalized(seconds: float, probe_s: float, probe_ref_s: float) -> float:
    """A duration rescaled to a host on which the speed probe takes probe_ref_s,
    given that it took probe_s while the duration was measured."""
    return seconds * probe_ref_s / probe_s
